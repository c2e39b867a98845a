#include "src/detect/happens_before.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "src/detect/incremental.hpp"
#include "src/obs/telemetry.hpp"

namespace home::detect {

namespace {

constexpr std::uint32_t kind_bit(trace::EventKind k) {
  return std::uint32_t{1} << static_cast<unsigned>(k);
}
constexpr std::uint32_t kSyncKinds =
    kind_bit(trace::EventKind::kMsgSend) |
    kind_bit(trace::EventKind::kMsgRecv) |
    kind_bit(trace::EventKind::kThreadFork) |
    kind_bit(trace::EventKind::kThreadJoin) |
    kind_bit(trace::EventKind::kBarrier) |
    kind_bit(trace::EventKind::kLockAcquire) |
    kind_bit(trace::EventKind::kLockRelease);

}  // namespace

HbIndex::HbIndex(std::vector<trace::Event> events,
                 std::vector<VectorClock> stamps)
    : events_(std::move(events)) {
  assert(events_.size() == stamps.size());
  ClockArena& arena = ClockArena::global();
  stamps_.reserve(stamps.size());
  std::vector<std::uint64_t> frame;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    const trace::Event& e = events_[i];
    const auto t = static_cast<std::size_t>(e.tid);
    if (t >= thread_events_.size()) thread_events_.resize(t + 1);
    std::vector<std::uint32_t>& mine = thread_events_[t];
    if ((kind_bit(e.kind) & kSyncKinds) != 0) {
      sync_events_.push_back(SyncEvent{static_cast<std::uint32_t>(i),
                                       static_cast<std::uint32_t>(mine.size()),
                                       e.tid, e.kind, e.obj, e.aux});
    }
    mine.push_back(static_cast<std::uint32_t>(i));

    FrameStamp s;
    s.tid = e.tid;
    s.own = stamps[i].get(s.tid);
    dense_stamp_bytes_ += stamps[i].heap_bytes();
    frame.assign(stamps[i].data(), stamps[i].data() + stamps[i].size());
    if (static_cast<std::size_t>(s.tid) < frame.size()) {
      frame[static_cast<std::size_t>(s.tid)] = 0;
    }
    s.frame = arena.intern(frame.data(), frame.size());
    stamps_.push_back(std::move(s));
  }
}

VectorClock HbIndex::stamp_clock(std::size_t i) const {
  const FrameStamp& s = stamps_[i];
  VectorClock clock(s.frame->data(), s.frame->size());
  clock.set(s.tid, s.own);
  return clock;
}

std::size_t HbIndex::stamp_bytes() const {
  std::size_t bytes = stamps_.capacity() * sizeof(FrameStamp);
  std::unordered_set<const InternedClock*> seen;
  for (const FrameStamp& s : stamps_) {
    if (seen.insert(s.frame.get()).second) bytes += s.frame->bytes();
  }
  return bytes;
}

std::size_t HbIndex::index_of_seq(trace::Seq seq) const {
  // events_ is sorted by seq; binary search.
  std::size_t lo = 0;
  std::size_t hi = events_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (events_[mid].seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < events_.size() && events_[lo].seq == seq) return lo;
  return npos;
}

const std::vector<std::uint32_t>& HbIndex::events_of(trace::Tid tid) const {
  static const std::vector<std::uint32_t> kNone;
  const auto t = static_cast<std::size_t>(tid);
  return t < thread_events_.size() ? thread_events_[t] : kNone;
}

std::size_t HbIndex::thread_position(std::size_t i) const {
  const std::vector<std::uint32_t>& mine = events_of(stamps_[i].tid);
  // Dense own components put event i at position own - 1; the search only
  // runs for stamps that did not come from the HB replay.
  const std::uint64_t own = stamps_[i].own;
  if (own >= 1 && own <= mine.size() && mine[own - 1] == i) return own - 1;
  return static_cast<std::size_t>(
      std::lower_bound(mine.begin(), mine.end(),
                       static_cast<std::uint32_t>(i)) -
      mine.begin());
}

std::size_t HbIndex::knowledge_frontier(std::size_t dst, trace::Tid tid) const {
  const std::uint64_t view = stamp_get(dst, tid);
  if (view == 0) return npos;
  const std::vector<std::uint32_t>& mine = events_of(tid);
  if (view <= mine.size() && stamps_[mine[view - 1]].own == view) {
    return mine[view - 1];
  }
  for (std::uint32_t i : mine) {
    if (stamps_[i].own == view) return i;
  }
  return npos;
}

HbIndex HappensBeforeAnalysis::run(std::vector<trace::Event> events) const {
  // One IncrementalHb step per event: the offline replay IS the streaming
  // replay over a buffered stream, so the online engine (src/online/) and
  // this pass can never diverge on stamps.
  IncrementalHb inc(cfg_);
  std::vector<VectorClock> stamps(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    stamps[i] = inc.advance(events[i]).to_clock();
  }
  // The post-mortem index needs arbitrary-order queries, but the HbIndex
  // constructor interns the per-event frames instead of keeping one private
  // full clock each; one batched fold keeps the replay loop free of atomics.
  static obs::Counter& allocs = obs::Registry::global().counter("clock.allocs");
  if (!events.empty()) allocs.add(events.size());
  return HbIndex(std::move(events), std::move(stamps));
}

}  // namespace home::detect
