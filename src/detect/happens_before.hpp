// Happens-before analysis: replays a seq-ordered event stream and stamps
// every event with the issuing thread's vector clock.
//
// Synchronization edges:
//   * program order within each thread,
//   * thread fork / join,
//   * barriers (all arrivals happen-before all departures),
//   * cross-rank message edges (MsgSend -> matching MsgRecv),
//   * optionally lock release -> subsequent acquire of the same lock.
//
// The lock-edge option matters: the classic *hybrid* race detector
// (O'Callahan & Choi, PPoPP'03 — the paper's citation [16]) deliberately
// excludes lock edges from HB and leaves mutual exclusion to the lockset
// analysis, so that a race hidden by one lucky lock ordering is still
// reported.  Including lock edges gives a pure-HB detector for the ablation.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

struct StampView;

struct HappensBeforeConfig {
  bool lock_edges = false;      ///< model release->acquire as an HB edge.
  bool message_edges = true;    ///< model MsgSend->MsgRcv as an HB edge.
};

/// Per-event clock stamps plus ordering queries.
///
/// Stamps are stored factored, not as private dense clocks: each event keeps
/// its own (tid, value) component inline plus a pointer to its *frame* — the
/// stamp with the own component zeroed (and trailing zeros dropped).
/// Between incoming sync edges a thread's frame never changes (only its own
/// component advances), so the HB replay copies a frame only when the
/// thread's IncrementalHb generation moves, and long per-thread runs share
/// one copy.  The frames live in index-owned chunks that never move and
/// are freed with the index.
///
/// Own components are unique per thread — the replay bumps the issuing
/// thread's component at every event and never restarts it — which makes
/// every ordering query one component read (see ordered()).
class HbIndex {
 public:
  HbIndex(HbIndex&&) = default;
  HbIndex& operator=(HbIndex&&) = default;

  const std::vector<trace::Event>& events() const { return events_; }

  /// Component `tid` of event i's stamp.
  std::uint64_t stamp_get(std::size_t i, trace::Tid tid) const {
    const FrameStamp& s = stamps_[i];
    if (tid == s.tid) return s.own;
    const auto t = static_cast<std::uint32_t>(tid);
    return t < s.size ? s.frame[t] : 0;
  }

  /// Event i's stamp materialized as a dense clock (test/diagnostic use;
  /// queries should go through stamp_get/ordered, which stay allocation-free).
  VectorClock stamp_clock(std::size_t i) const;

  /// events()[i] happens-before-or-equals events()[j].  O(1): a stamp
  /// component of thread t only ever holds a value t published at or after
  /// the event that set it, so stamp_j[tid_i] >= own_i iff j has seen i.
  bool ordered(std::size_t i, std::size_t j) const {
    const FrameStamp& a = stamps_[i];
    return stamp_get(j, a.tid) >= a.own;
  }

  /// Neither order holds (the paper's IsPotentialHappenBeforeRace core).
  bool concurrent(std::size_t i, std::size_t j) const {
    return !ordered(i, j) && !ordered(j, i);
  }

  /// Find the index of the event with the given seq stamp (or npos).
  std::size_t index_of_seq(trace::Seq seq) const;

  /// Seq-ordered event indices of thread `tid` (empty for a thread with no
  /// events).  Built in the same pass that stamps the events, so consumers
  /// (diagnose::SyncGraph, certificate endpoints) never rescan the trace.
  const std::vector<std::uint32_t>& events_of(trace::Tid tid) const;

  /// Position of event i within events_of(events()[i].tid): own components
  /// are dense 1..n per thread, so it is own - 1.
  std::size_t thread_position(std::size_t i) const {
    return static_cast<std::size_t>(stamps_[i].own - 1);
  }

  /// An event that can carry a cross-thread HB edge (message, fork/join,
  /// barrier, lock), copied out of the trace with its in-thread position so
  /// edge builders scan one compact array instead of the large Events.
  struct SyncEvent {
    std::uint32_t idx = 0;  ///< index into events().
    std::uint32_t pos = 0;  ///< position within events_of(tid).
    trace::Tid tid = 0;
    trace::EventKind kind = trace::EventKind::kBarrier;
    trace::ObjId obj = 0;
    std::uint64_t aux = 0;
  };

  /// The sync events in seq order — typically a small fraction of the trace.
  const std::vector<SyncEvent>& sync_events() const { return sync_events_; }

  /// The knowledge frontier: the index of the last event of `tid` that
  /// events()[dst] is HB-after — i.e. the unique event of `tid` whose own
  /// stamp component equals stamp_get(dst, tid).  Per-thread own components
  /// are dense 1..n in seq order, so it is events_of(tid)[view - 1].
  /// Returns npos when dst's view of `tid` is zero (never synchronized).
  /// This is what anchors a diagnose:: witness chain.
  std::size_t knowledge_frontier(std::size_t dst, trace::Tid tid) const;

  /// Resident bytes of the stamp store: inline FrameStamps plus the frame
  /// chunks.
  std::size_t stamp_bytes() const;
  /// What the same stamps would occupy as private dense clocks (the width
  /// of every replayed view) — the bench compares the two.
  std::size_t dense_stamp_bytes() const { return dense_stamp_bytes_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  friend class HappensBeforeAnalysis;

  struct FrameStamp {
    trace::Tid tid = 0;                  ///< issuing thread.
    std::uint32_t size = 0;              ///< frame components.
    std::uint64_t own = 0;               ///< the stamp's own component.
    const std::uint64_t* frame = nullptr;  ///< into frame_chunks_.
  };

  explicit HbIndex(std::vector<trace::Event> events);

  /// Copy `view`'s clock into the frame chunks, own component zeroed and
  /// trailing zeros dropped; returns the copy's size.
  std::uint32_t copy_frame(const StampView& view, const std::uint64_t** out);

  std::vector<trace::Event> events_;
  std::vector<FrameStamp> stamps_;
  /// Frame storage: each chunk is reserved once and only appended to within
  /// its capacity, so frame pointers stay valid as the index grows and moves.
  std::vector<std::vector<std::uint64_t>> frame_chunks_;
  std::vector<std::vector<std::uint32_t>> thread_events_;  ///< by tid.
  std::vector<SyncEvent> sync_events_;
  std::size_t dense_stamp_bytes_ = 0;
};

class HappensBeforeAnalysis {
 public:
  explicit HappensBeforeAnalysis(HappensBeforeConfig cfg = {}) : cfg_(cfg) {}

  /// Events must be sorted by seq (TraceLog::sorted_events()).
  HbIndex run(std::vector<trace::Event> events) const;

 private:
  HappensBeforeConfig cfg_;
};

}  // namespace home::detect
