#include "tests/oracle/oracle.hpp"

#include <algorithm>

namespace home::oracle {

namespace {

using detect::VectorClock;
using trace::EventKind;

/// Barrier instance in progress: who arrived, and the join of their clocks.
struct Barrier {
  std::vector<trace::Tid> arrived;
  VectorClock joined;
};

/// Per-thread clocks, dense by tid and grown on first mention.
class ThreadClocks {
 public:
  VectorClock& of(trace::Tid tid) {
    const auto i = static_cast<std::size_t>(tid);
    if (i >= clocks_.size()) clocks_.resize(i + 1);
    return clocks_[i];
  }

 private:
  std::vector<VectorClock> clocks_;
};

}  // namespace

Oracle::Oracle(std::vector<trace::Event> events, detect::DetectorMode mode)
    : events_(std::move(events)), mode_(mode) {
  const bool lock_edges = mode == detect::DetectorMode::kHbOnly;
  ThreadClocks threads;
  std::map<trace::ObjId, VectorClock> released;  // lock -> join of releases.
  std::map<trace::ObjId, VectorClock> sent;      // message -> join of sends.
  std::map<trace::ObjId, Barrier> barriers;
  clocks_.reserve(events_.size());

  for (const trace::Event& e : events_) {
    // Incoming edges, then the thread's own tick; the tick's result is the
    // event's clock.
    switch (e.kind) {
      case EventKind::kLockAcquire:
        if (lock_edges && released.count(e.obj) != 0) {
          threads.of(e.tid).join(released[e.obj]);
        }
        break;
      case EventKind::kMsgRecv:
        if (sent.count(e.obj) != 0) threads.of(e.tid).join(sent[e.obj]);
        break;
      case EventKind::kThreadJoin: {
        // The child's whole history flows into the joiner (copied first:
        // growing the table for the child may move the joiner's clock).
        const VectorClock child = threads.of(static_cast<trace::Tid>(e.obj));
        threads.of(e.tid).join(child);
        break;
      }
      default:
        break;
    }
    VectorClock& mine = threads.of(e.tid);
    mine.set(e.tid, mine.get(e.tid) + 1);
    clocks_.push_back(mine);
    const VectorClock& stamp = clocks_.back();

    // Outgoing edges carry the event's clock.
    switch (e.kind) {
      case EventKind::kLockRelease:
        if (lock_edges) released[e.obj].join(stamp);
        break;
      case EventKind::kMsgSend:
        sent[e.obj].join(stamp);
        break;
      case EventKind::kThreadFork:
        threads.of(static_cast<trace::Tid>(e.obj)).join(stamp);
        break;
      case EventKind::kBarrier: {
        // All arrivals happen-before all departures: once the last of the
        // `aux` participants arrives, every arrived thread absorbs the join
        // of the arrival clocks, and the barrier id is free for reuse.
        Barrier& b = barriers[e.obj];
        b.arrived.push_back(e.tid);
        b.joined.join(stamp);
        if (e.aux > 0 && b.arrived.size() >= e.aux) {
          for (const trace::Tid t : b.arrived) threads.of(t).join(b.joined);
          barriers.erase(e.obj);
        }
        break;
      }
      default:
        break;
    }
  }
}

bool Oracle::ordered(std::size_t i, std::size_t j) const {
  const VectorClock& a = clocks_[i];
  const VectorClock& b = clocks_[j];
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t t = 0; t < n; ++t) {
    const auto tid = static_cast<trace::Tid>(t);
    if (a.get(tid) > b.get(tid)) return false;
  }
  return true;
}

std::map<trace::ObjId, bool> Oracle::verdicts() const {
  std::map<trace::ObjId, std::vector<std::size_t>> accesses;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].is_access()) accesses[events_[i].obj].push_back(i);
  }
  std::map<trace::ObjId, bool> out;
  for (const auto& [var, idx] : accesses) {
    bool racy = false;
    for (std::size_t a = 0; a < idx.size() && !racy; ++a) {
      for (std::size_t b = a + 1; b < idx.size() && !racy; ++b) {
        racy = accesses_racy(*this, idx[a], idx[b]);
      }
    }
    out[var] = racy;
  }
  return out;
}

bool is_potential_hb_race(const Oracle& oracle, std::size_t i, std::size_t j) {
  const trace::Event& a = oracle.events()[i];
  const trace::Event& b = oracle.events()[j];
  if (a.tid == b.tid) return false;
  if (a.obj != b.obj) return false;
  if (!a.is_access() || !b.is_access()) return false;
  if (!a.is_write() && !b.is_write()) return false;
  return oracle.concurrent(i, j);
}

bool accesses_racy(const Oracle& oracle, std::size_t i, std::size_t j) {
  const trace::Event& a = oracle.events()[i];
  const trace::Event& b = oracle.events()[j];
  switch (oracle.mode()) {
    case detect::DetectorMode::kHybrid:
      return is_potential_hb_race(oracle, i, j) &&
             trace::locksets_disjoint(a.locks_held, b.locks_held);
    case detect::DetectorMode::kHbOnly:
      return is_potential_hb_race(oracle, i, j);
    case detect::DetectorMode::kLocksetOnly:
      return a.tid != b.tid && a.obj == b.obj && a.is_access() &&
             b.is_access() && (a.is_write() || b.is_write()) &&
             trace::locksets_disjoint(a.locks_held, b.locks_held);
  }
  return false;
}

}  // namespace home::oracle
