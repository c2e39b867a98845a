#include "src/detect/incremental.hpp"

#include <utility>

namespace home::detect {

// ------------------------------------------------------------- IncrementalHb

void IncrementalHb::ensure_tid(trace::Tid tid) {
  const auto i = static_cast<std::size_t>(tid);
  if (i >= thread_clock_.size()) {
    thread_clock_.resize(i + 1);
    thread_state_.resize(i + 1, 0);
    frame_gen_.resize(i + 1, 0);
    own_hw_.resize(i + 1, 0);
  }
}

VectorClock& IncrementalHb::live_clock(std::size_t i) {
  VectorClock& clk = thread_clock_[i];
  if ((thread_state_[i] & kHasClock) == 0) {
    thread_state_[i] = static_cast<std::uint8_t>(
        (thread_state_[i] | kHasClock) & ~kReclaimable);
    const auto tid = static_cast<trace::Tid>(i);
    if (own_hw_[i] > clk.get(tid)) clk.set(tid, own_hw_[i]);
  }
  return clk;
}

StampView IncrementalHb::advance(const trace::Event& e) {
  ensure_tid(e.tid);
  const auto ti = static_cast<std::size_t>(e.tid);

  {
    VectorClock& clk = live_clock(ti);
    // Incoming edges before the stamp, mirroring HappensBeforeAnalysis.
    const VectorClock* in = nullptr;
    switch (e.kind) {
      case trace::EventKind::kLockAcquire:
        if (cfg_.lock_edges) in = lock_clock_.find(e.obj);
        break;
      case trace::EventKind::kMsgRecv:
        if (cfg_.message_edges) in = message_clock_.find(e.obj);
        break;
      case trace::EventKind::kThreadJoin: {
        // A joined child keeps its clock until retire(), so joining the
        // same tid twice absorbs its history both times.
        const auto child = static_cast<std::size_t>(e.obj);
        if (child < thread_clock_.size() && child != ti) {
          in = &thread_clock_[child];
        }
        break;
      }
      default:
        break;
    }
    if (in != nullptr && in->size() != 0) {
      clk.join(*in);
      ++frame_gen_[ti];
    }
    clk.bump(e.tid);
  }

  // The stamp is the clock right after the bump, BEFORE outgoing edges.
  // Outgoing edges never mutate the issuing thread's own clock except on
  // barrier completion (joined-accumulator fan-out) — that path copies the
  // stamp to scratch_ below and returns a view over it.
  // Growing thread_clock_ (fork / barrier child) moves VectorClock elements,
  // but an element's heap buffer survives the move, so the span stays valid.
  StampView view;
  view.tid = e.tid;
  view.value = thread_clock_[ti].get(e.tid);
  view.clock = thread_clock_[ti].data();
  view.size = thread_clock_[ti].size();
  view.gen = frame_gen_[ti];

  // Outgoing edges after the stamp.  References into thread_clock_ are
  // re-fetched by index after any call that may grow it.
  switch (e.kind) {
    case trace::EventKind::kLockRelease:
      if (cfg_.lock_edges) lock_clock_[e.obj].join(thread_clock_[ti]);
      break;
    case trace::EventKind::kMsgSend:
      if (cfg_.message_edges) message_clock_[e.obj].join(thread_clock_[ti]);
      break;
    case trace::EventKind::kThreadFork: {
      const auto child = static_cast<trace::Tid>(e.obj);
      ensure_tid(child);
      const auto ci = static_cast<std::size_t>(child);
      live_clock(ci).join(thread_clock_[ti]);
      ++frame_gen_[ci];
      view.clock = thread_clock_[ti].data();
      break;
    }
    case trace::EventKind::kThreadJoin: {
      // The child's history is absorbed; it no longer constrains the
      // watermark.  Its clock stays until retire() finds it dominated.
      const auto child = static_cast<std::size_t>(e.obj);
      if (child < thread_clock_.size()) {
        std::uint8_t& state = thread_state_[child];
        state = static_cast<std::uint8_t>((state & ~(kHasClock | kDeclared)) |
                                          kJoined);
        if ((state & kReclaimable) == 0 && thread_clock_[child].size() != 0) {
          state |= kReclaimable;
          joined_.push_back(static_cast<trace::Tid>(child));
        }
      }
      break;
    }
    case trace::EventKind::kBarrier: {
      BarrierAcc& acc = barriers_[e.obj];
      acc.arrived.push_back(e.tid);
      acc.joined.join(thread_clock_[ti]);
      const auto expected = static_cast<std::size_t>(e.aux);
      if (expected > 0 && acc.arrived.size() >= expected) {
        // Completion joins back into the issuer's own clock: snapshot the
        // pre-edge stamp first (scratch_ reuses its buffer run-to-run).
        scratch_ = thread_clock_[ti];
        view.clock = scratch_.data();
        view.size = scratch_.size();
        for (trace::Tid t : acc.arrived) {
          ensure_tid(t);
          const auto i = static_cast<std::size_t>(t);
          live_clock(i).join(acc.joined);
          ++frame_gen_[i];
        }
        barriers_.erase(e.obj);
      }
      break;
    }
    default:
      break;
  }

  return view;
}

void IncrementalHb::declare_thread(trace::Tid tid) {
  if (tid == trace::kNoTid) return;
  ensure_tid(tid);
  const auto i = static_cast<std::size_t>(tid);
  if ((thread_state_[i] & kJoined) != 0) return;
  thread_state_[i] |= kDeclared;
}

bool IncrementalHb::watermark(VectorClock* out) const {
  // Live threads: declared ones plus any that already stamped events.
  bool first = true;
  for (std::size_t i = 0; i < thread_clock_.size(); ++i) {
    const std::uint8_t s = thread_state_[i];
    const bool live = (s & (kHasClock | kDeclared)) != 0;
    if (!live) continue;
    if ((s & kHasClock) == 0) return false;  // silent thread: meet is 0.
    if (first) {
      *out = thread_clock_[i];
      first = false;
    } else {
      out->meet(thread_clock_[i]);
    }
  }
  return !first;
}

void IncrementalHb::retire(const VectorClock& watermark) {
  auto dominated = [&watermark](trace::ObjId, const VectorClock& clk) {
    return clk.leq(watermark);
  };
  lock_clock_.erase_if(dominated);
  message_clock_.erase_if(dominated);
  // A joined child's clock below the watermark is in every live thread's
  // history already; a later join of it, or its own re-emission, loses
  // nothing a retained record could still be ordered by.
  std::erase_if(joined_, [&](trace::Tid t) {
    const auto i = static_cast<std::size_t>(t);
    if ((thread_state_[i] & kReclaimable) == 0) return true;  // re-emitted.
    VectorClock& clk = thread_clock_[i];
    if (!clk.leq(watermark)) return false;
    own_hw_[i] = clk.get(t);
    clk = VectorClock();
    thread_state_[i] &= static_cast<std::uint8_t>(~kReclaimable);
    ++frame_gen_[i];
    return true;
  });
}

std::size_t IncrementalHb::resident_entries() const {
  std::size_t threads = 0;
  for (const std::uint8_t s : thread_state_) {
    threads += (s & kHasClock) != 0 ? 1 : 0;
  }
  return threads + lock_clock_.size() + message_clock_.size() +
         barriers_.size();
}

std::size_t IncrementalHb::resident_clock_bytes() const {
  std::size_t n = 0;
  for (const VectorClock& clk : thread_clock_) n += clk.heap_bytes();
  lock_clock_.for_each(
      [&n](trace::ObjId, const VectorClock& clk) { n += clk.heap_bytes(); });
  message_clock_.for_each(
      [&n](trace::ObjId, const VectorClock& clk) { n += clk.heap_bytes(); });
  barriers_.for_each([&n](trace::ObjId, const BarrierAcc& acc) {
    n += acc.joined.heap_bytes();
  });
  return n;
}

const VectorClock* IncrementalHb::clock(trace::Tid tid) const {
  const auto i = static_cast<std::size_t>(tid);
  if (i >= thread_clock_.size() || (thread_state_[i] & kHasClock) == 0) {
    return nullptr;
  }
  return &thread_clock_[i];
}

// ------------------------------------------------------- IncrementalFrontier

void IncrementalFrontier::on_access(trace::ObjId var,
                                    std::shared_ptr<OnlineAccess> rec,
                                    const StampView& view,
                                    std::vector<PairHit>* hits) {
  VarMeta& meta = meta_[var];
  if (meta.saturated) return;  // pair budget spent: the sweep has stopped.
  rec->stamp = Stamp::epoch(view);
  const std::shared_ptr<const OnlineAccess> incoming = std::move(rec);

  const std::size_t hits_before = meta.epoch_hits;
  const bool more = vars_[var].sweep(
      Records{}, incoming, [&view](trace::Tid t) { return view.get(t); },
      cfg_, &meta, [&](const Records::Ref& earlier, trace::Tid) {
        if (hits) hits->push_back(PairHit{earlier, incoming});
      });
  epoch_hits_ += meta.epoch_hits - hits_before;
  if (!more) {
    // Mirror the post-mortem early return: the budget-overflow pair is
    // dropped and the variable is never processed again, so its frontier
    // state can be reclaimed immediately.
    meta.saturated = true;
    vars_.erase(var);
  }
}

std::size_t IncrementalFrontier::retire(const VectorClock& watermark) {
  std::size_t reclaimed = 0;
  auto dominated = [&watermark](const Records::Ref& r) {
    return r->stamp.leq(watermark);
  };
  vars_.erase_if([&](trace::ObjId, AccessFrontier<Records>& frontier) {
    reclaimed += frontier.retire(dominated);
    return frontier.empty();
  });
  return reclaimed;
}

bool IncrementalFrontier::concurrent(trace::ObjId var) const {
  auto it = meta_.find(var);
  return it != meta_.end() && it->second.concurrent;
}

std::size_t IncrementalFrontier::resident_records() const {
  std::size_t n = 0;
  vars_.for_each([&n](trace::ObjId, const AccessFrontier<Records>& frontier) {
    n += frontier.retained();
  });
  return n;
}

}  // namespace home::detect
