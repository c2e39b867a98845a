#include "src/detect/happens_before.hpp"

#include <algorithm>

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

HbIndex::HbIndex(std::vector<trace::Event> events)
    : events_(std::move(events)) {
  stamps_.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
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
  }
}

std::uint32_t HbIndex::copy_frame(const StampView& view,
                                  const std::uint64_t** out) {
  std::size_t n = view.size;
  const auto own = static_cast<std::size_t>(view.tid);
  while (n > 0 && (n - 1 == own || view.clock[n - 1] == 0)) --n;
  if (n == 0) {
    *out = nullptr;
    return 0;
  }
  if (frame_chunks_.empty() ||
      frame_chunks_.back().capacity() - frame_chunks_.back().size() < n) {
    // Chunks double up to kMaxChunkWords, so small traces stay small and a
    // wide one wastes at most one frame's width per chunk.
    constexpr std::size_t kMinChunkWords = std::size_t{1} << 10;
    constexpr std::size_t kMaxChunkWords = std::size_t{1} << 17;
    const std::size_t grown =
        frame_chunks_.empty()
            ? kMinChunkWords
            : std::min(kMaxChunkWords, 2 * frame_chunks_.back().capacity());
    frame_chunks_.emplace_back().reserve(std::max(grown, n));
  }
  std::vector<std::uint64_t>& chunk = frame_chunks_.back();
  const std::size_t at = chunk.size();
  chunk.insert(chunk.end(), view.clock, view.clock + n);
  if (own < n) chunk[at + own] = 0;
  *out = chunk.data() + at;
  return static_cast<std::uint32_t>(n);
}

VectorClock HbIndex::stamp_clock(std::size_t i) const {
  const FrameStamp& s = stamps_[i];
  VectorClock clock(s.frame, s.size);
  clock.set(s.tid, s.own);
  return clock;
}

std::size_t HbIndex::stamp_bytes() const {
  std::size_t bytes = stamps_.capacity() * sizeof(FrameStamp);
  for (const std::vector<std::uint64_t>& chunk : frame_chunks_) {
    bytes += chunk.capacity() * sizeof(std::uint64_t);
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

std::size_t HbIndex::knowledge_frontier(std::size_t dst, trace::Tid tid) const {
  const std::uint64_t view = stamp_get(dst, tid);
  if (view == 0) return npos;
  return events_of(tid)[view - 1];
}

HbIndex HappensBeforeAnalysis::run(std::vector<trace::Event> events) const {
  // One IncrementalHb step per event: the offline replay IS the streaming
  // replay over a buffered stream, so the online engine (src/online/) and
  // this pass can never diverge on stamps.  A thread's frame is copied only
  // when its generation moved since the thread's previous event.
  HbIndex index(std::move(events));
  IncrementalHb inc(cfg_);
  struct LastFrame {
    std::uint64_t gen = ~std::uint64_t{0};  ///< none copied yet.
    const std::uint64_t* frame = nullptr;
    std::uint32_t size = 0;
  };
  std::vector<LastFrame> last(index.thread_events_.size());
  std::size_t copies = 0;
  for (const trace::Event& e : index.events_) {
    const StampView view = inc.advance(e);
    LastFrame& cur = last[static_cast<std::size_t>(e.tid)];
    if (cur.gen != view.gen) {
      cur.size = index.copy_frame(view, &cur.frame);
      cur.gen = view.gen;
      ++copies;
    }
    index.stamps_.push_back(
        HbIndex::FrameStamp{e.tid, cur.size, view.value, cur.frame});
    index.dense_stamp_bytes_ += view.size * sizeof(std::uint64_t);
  }
  // One batched fold keeps the replay loop free of atomics.
  static obs::Counter& allocs = obs::Registry::global().counter("clock.allocs");
  if (copies != 0) allocs.add(copies);
  return index;
}

}  // namespace home::detect
