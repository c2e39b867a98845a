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

#include "src/detect/clock_arena.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

struct HappensBeforeConfig {
  bool lock_edges = false;      ///< model release->acquire as an HB edge.
  bool message_edges = true;    ///< model MsgSend->MsgRcv as an HB edge.
};

/// Per-event clock stamps plus ordering queries.
///
/// Stamps are stored factored, not as private dense clocks: each event keeps
/// its own (tid, value) component inline plus a ClockRef to its *frame* —
/// the stamp with the own component zeroed, interned in the global
/// ClockArena.  Between incoming sync edges a thread's frame never changes
/// (only its own component advances), so long per-thread runs share one
/// interned allocation and the index's resident clock bytes collapse from
/// O(events * threads) to O(sync-edges * threads).
class HbIndex {
 public:
  /// Interns the dense per-event stamps (clocks[i] belongs to events[i]).
  HbIndex(std::vector<trace::Event> events, std::vector<VectorClock> stamps);

  const std::vector<trace::Event>& events() const { return events_; }

  /// Component `tid` of event i's stamp.
  std::uint64_t stamp_get(std::size_t i, trace::Tid tid) const {
    const FrameStamp& s = stamps_[i];
    return tid == s.tid ? s.own : s.frame->get(tid);
  }

  /// Event i's stamp materialized as a dense clock (test/diagnostic use;
  /// queries should go through stamp_get/ordered, which stay allocation-free).
  VectorClock stamp_clock(std::size_t i) const;

  /// events()[i] happens-before events()[j].
  bool ordered(std::size_t i, std::size_t j) const {
    const FrameStamp& a = stamps_[i];
    const FrameStamp& b = stamps_[j];
    std::size_t n = a.frame->size();
    if (static_cast<std::size_t>(a.tid) >= n) {
      n = static_cast<std::size_t>(a.tid) + 1;
    }
    for (std::size_t t = 0; t < n; ++t) {
      const trace::Tid tid = static_cast<trace::Tid>(t);
      const std::uint64_t av = tid == a.tid ? a.own : a.frame->get(tid);
      const std::uint64_t bv = tid == b.tid ? b.own : b.frame->get(tid);
      if (av > bv) return false;
    }
    return true;
  }

  /// Neither order holds (the paper's IsPotentialHappenBeforeRace core).
  bool concurrent(std::size_t i, std::size_t j) const {
    return !ordered(i, j) && !ordered(j, i);
  }

  /// Find the index of the event with the given seq stamp (or npos).
  std::size_t index_of_seq(trace::Seq seq) const;

  /// Seq-ordered event indices of thread `tid` (empty for a thread with no
  /// events).  Built in the same pass that interns the stamps, so consumers
  /// (diagnose::SyncGraph, certificate endpoints) never rescan the trace.
  const std::vector<std::uint32_t>& events_of(trace::Tid tid) const;

  /// Position of event i within events_of(events()[i].tid).
  std::size_t thread_position(std::size_t i) const;

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
  /// stamp component equals stamp_get(dst, tid).  Uniqueness holds because
  /// the HB replay bumps the issuing thread's own component at *every*
  /// event, so per-thread own components are dense 1..n in seq order and
  /// the frontier is events_of(tid)[view - 1].
  /// Returns npos when dst's view of `tid` is zero (never synchronized).
  /// This is what anchors a diagnose:: witness chain.
  std::size_t knowledge_frontier(std::size_t dst, trace::Tid tid) const;

  /// Resident bytes of the stamp store: inline FrameStamps plus each
  /// distinct interned frame counted once.
  std::size_t stamp_bytes() const;
  /// What the same stamps would occupy as private dense clocks (the
  /// pre-interning representation) — the bench compares the two.
  std::size_t dense_stamp_bytes() const { return dense_stamp_bytes_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  struct FrameStamp {
    trace::Tid tid = 0;        ///< issuing thread.
    std::uint64_t own = 0;     ///< the stamp's own component.
    ClockRef frame;            ///< stamp with own component zeroed, interned.
  };

  std::vector<trace::Event> events_;
  std::vector<FrameStamp> stamps_;
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
