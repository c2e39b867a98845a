// Incremental (streaming) counterparts of the post-mortem detection passes.
//
// The post-mortem pipeline buffers the whole trace, replays it through
// HappensBeforeAnalysis, then sweeps each variable's accesses with the
// frontier engine.  The online engine (src/online/) cannot afford either
// buffer: it consumes one event at a time and must keep resident state
// bounded on arbitrarily long runs.  This header provides the two stateful
// pieces that make that possible:
//
//   * IncrementalHb — the event-at-a-time form of HappensBeforeAnalysis.
//     `advance(e)` applies e's incoming edges, bumps the thread clock, stamps
//     e, and applies its outgoing edges; feeding a seq-sorted stream through
//     advance() yields exactly the stamps HappensBeforeAnalysis::run()
//     computes (run() is in fact implemented on top of advance()).  It also
//     tracks which threads may still emit (declared minus joined), which
//     yields the retirement watermark below.
//
//   * IncrementalFrontier — the streaming form of frontier_sweep_variable:
//     the same AccessFrontier (frontier.hpp) per variable, fed one access
//     at a time.  New racy pairs are surfaced immediately instead of
//     collected in a verdict.
//
// Stamps: advance() returns an allocation-free StampView (epoch + clock
// span); each *retained* record keeps its 16-byte epoch and nothing else.
// All retained-vs-incoming and retained-vs-watermark checks are
// epoch-exact (see stamp.hpp).
//
// Epoch-based retirement: a retained record with stamp V can never race any
// future event once every thread that may still emit has a clock >= V —
// every future stamp then dominates V, so the pair is HB-ordered.  The meet
// of the live threads' clocks (`IncrementalHb::watermark`) is therefore a
// sound retirement bound for every HB-based DetectorMode; records at or
// below it are reclaimed.  kLocksetOnly ignores HB, so retirement is
// disabled there (callers simply skip retire()).  The watermark is
// conservative: a declared thread that has not stamped anything yet pins it
// at zero, and a thread that stops emitting without being joined freezes it
// at its last clock.
//
// Frame generations: a thread's clock changes other than by its own tick
// only at an incoming lock/message/join edge, a fork into it, a barrier
// fan-out, or the reclaim of its clock after a join.  Each of those bumps
// the thread's generation, and every StampView carries it, so a consumer
// that keeps per-event stamps (HappensBeforeAnalysis::run) copies the
// thread's frame — its clock with the own component zeroed — only when the
// generation moves.
//
// Re-emission after a join: a joined child keeps its clock (a later join of
// the same tid still absorbs its history, and a tid that emits again keeps
// counting from it).  Only retire() reclaims it, once the watermark
// dominates it, and a per-tid own high-water mark keeps the own component
// of a re-emitting tid unique.  Post-mortem never retires, so its stamps
// equal the dense replay's exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/detect/flat_map.hpp"
#include "src/detect/frontier.hpp"
#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"
#include "src/detect/stamp.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

/// One access retained by the streaming frontier: the slice of the original
/// Event the race predicate and the violation matcher need, plus the HB
/// epoch, plus the aux-linked MPI call event (shared so the record can
/// outlive the analyzer's call table).
struct OnlineAccess {
  trace::Seq seq = 0;
  trace::Tid tid = trace::kNoTid;
  bool write = false;
  std::vector<trace::ObjId> locks;
  Stamp stamp;
  std::shared_ptr<const trace::Event> call;  ///< may be null (unlinked access).
};

class IncrementalHb {
 public:
  explicit IncrementalHb(HappensBeforeConfig cfg = {}) : cfg_(cfg) {}

  /// Apply e's incoming HB edges, bump e.tid's clock, and apply e's outgoing
  /// edges.  Returns the stamp view of e — the epoch plus a span of the
  /// issuing thread's clock, valid until the next advance() call and
  /// allocation-free on the access/lock/message hot path.  Events must be
  /// fed in seq order; e.tid must be a registry tid (>= 0).
  StampView advance(const trace::Event& e);

  /// Declare a thread that may emit events (typically every registry tid).
  /// Idempotent; threads retired by a kThreadJoin stay retired.
  void declare_thread(trace::Tid tid);

  /// The retirement watermark: pointwise meet of every live (declared or
  /// observed, not joined) thread's clock.  Returns false when some live
  /// thread has not stamped anything yet — the meet is zero and nothing can
  /// be retired.
  bool watermark(VectorClock* out) const;

  /// Reclaim synchronization state that can no longer order anything: lock
  /// and message clocks, and the clocks of joined threads, at or below the
  /// watermark (joining them into any future stamp is a no-op).  Barrier
  /// accumulators are kept — an in-flight barrier still owes its arrivals a
  /// join.
  void retire(const VectorClock& watermark);

  /// Retained lock/message/barrier entries plus thread clocks (diagnostic;
  /// feeds the bounded-memory accounting).
  std::size_t resident_entries() const;

  /// Heap bytes held by resident clocks (thread + lock + message + barrier).
  std::size_t resident_clock_bytes() const;

  const VectorClock* clock(trace::Tid tid) const;

 private:
  struct BarrierAcc {
    std::vector<trace::Tid> arrived;
    VectorClock joined;
  };

  // Per-thread liveness, dense by tid alongside thread_clock_.
  static constexpr std::uint8_t kHasClock = 1;  ///< observed or fork target.
  static constexpr std::uint8_t kDeclared = 2;
  static constexpr std::uint8_t kJoined = 4;
  static constexpr std::uint8_t kReclaimable = 8;  ///< joined, clock kept.

  void ensure_tid(trace::Tid tid);
  /// Thread i's clock, marked live; a tid whose clock was reclaimed after a
  /// join resumes its own component from the high-water mark.
  VectorClock& live_clock(std::size_t i);

  HappensBeforeConfig cfg_;
  /// Dense by tid (registry tids are small ints) — no tree nodes, no
  /// per-event lookups beyond one index.  An element's heap buffer is stable
  /// across outer-vector growth, which is what keeps StampView spans valid
  /// while outgoing edges create new threads.
  std::vector<VectorClock> thread_clock_;
  std::vector<std::uint8_t> thread_state_;
  std::vector<std::uint64_t> frame_gen_;  ///< by tid; see the header note.
  std::vector<std::uint64_t> own_hw_;     ///< own component at reclaim.
  std::vector<trace::Tid> joined_;        ///< kReclaimable candidates.
  FlatMap<VectorClock> lock_clock_;
  FlatMap<VectorClock> message_clock_;
  FlatMap<BarrierAcc> barriers_;
  /// Stamp storage for the one event whose outgoing edges mutate the
  /// issuing thread's own clock (barrier completion) — the view must show
  /// the pre-edge stamp, so that event copies it here first.
  VectorClock scratch_;
};

/// Per-variable verdict metadata that must survive frontier retirement (the
/// verdict, the pair budget and the tallies are cumulative over the run).
struct VarMeta : SweepTally {
  /// Pair budget spent: the post-mortem sweep stops processing the variable
  /// entirely at this point, so the streaming engine does too.
  bool saturated = false;
};

class IncrementalFrontier {
 public:
  explicit IncrementalFrontier(const RaceDetectorConfig& cfg) : cfg_(cfg) {}

  /// A newly detected racy pair; `first` is the older access.
  struct PairHit {
    std::shared_ptr<const OnlineAccess> first;
    std::shared_ptr<const OnlineAccess> second;
  };

  /// Feed one access of `var` (records must arrive in seq order across the
  /// whole stream).  `view` is the access's stamp view from the same
  /// advance() call; on_access fills rec->stamp with its 16-byte epoch.  New
  /// racy pairs are appended to `hits` in the same order the post-mortem
  /// frontier sweep reports them.
  void on_access(trace::ObjId var, std::shared_ptr<OnlineAccess> rec,
                 const StampView& view, std::vector<PairHit>* hits);

  /// Drop frontier records at or below the watermark.  Sound for HB-based
  /// modes only; the caller must not retire under kLocksetOnly.
  /// Returns the number of records reclaimed.
  std::size_t retire(const VectorClock& watermark);

  bool concurrent(trace::ObjId var) const;
  const std::map<trace::ObjId, VarMeta>& meta() const { return meta_; }

  /// Access records currently resident across all variables.
  std::size_t resident_records() const;

  /// Cumulative HB tests answered by the epoch compare, kept thread-local
  /// to the analysis loop; the analyzer folds deltas into obs::Registry at
  /// checkpoints.
  std::size_t epoch_hits() const { return epoch_hits_; }

 private:
  /// The streaming access store: shared records, ordered by seq.
  struct Records {
    using Ref = std::shared_ptr<const OnlineAccess>;
    static AccessFacts facts(const Ref& r) {
      return AccessFacts{r->tid, r->write, &r->locks, r->stamp.value()};
    }
    static std::uint64_t order(const Ref& r) { return r->seq; }
  };

  RaceDetectorConfig cfg_;
  FlatMap<AccessFrontier<Records>> vars_;
  std::map<trace::ObjId, VarMeta> meta_;
  std::size_t epoch_hits_ = 0;
};

}  // namespace home::detect
