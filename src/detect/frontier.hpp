// Frontier-based per-variable concurrency sweep (FastTrack-style), shared by
// the post-mortem detector and the streaming engine.
//
// The paper's check evaluates every cross-thread access pair of a variable:
// O(k^2) vector-clock comparisons for k accesses (tests/oracle/ keeps that
// formulation as the reference this sweep is checked against).  This pass
// sweeps the variable's accesses once in seq order and keeps, per thread,
// only the *maximal* access of each (read/write, lockset) class — the
// frontier.  Each incoming access is checked against the other threads'
// frontiers only.
//
// Why that is enough for the Concurrent(v) verdict, in every DetectorMode:
// take any racy pair (a, e) with a earlier in seq order, and let f be the
// frontier entry of a's thread for a's (kind, lockset) class when e is swept.
// Then a <=po f, so
//   * f cannot happen-before e (else a would, contradicting a || e),
//   * e cannot happen-before f (HB edges only point forward in seq order),
// hence f || e; and f has a's lockset and kind, so the lockset-disjointness
// and write conditions carry over.  The sweep therefore flags e against f —
// same verdict as the pairwise check, in O(events x frontier width).
//
// The frontier additionally keeps a small ring of each thread's most recent
// accesses (kFrontierHistory): a racy access superseded in its class by a
// later same-class access (e.g. MPI_Probe then MPI_Recv, both writing
// `srctmp` unlocked) would otherwise vanish from the frontier before its
// cross-thread partner arrives, and the thread-safety matcher needs that
// pair to classify the violation (V5 vs V3).  The ring only enriches the
// reported pairs; the verdict never depends on it.
//
// One implementation, two engines: AccessFrontier below holds one variable's
// frontier.  frontier_sweep_variable drives it with event indices into an
// HbIndex; IncrementalFrontier (incremental.hpp) drives it with shared
// OnlineAccess records and additionally retires records the HB watermark
// dominates.  Both check every pair with the one predicate accesses_racy,
// so they report the same pairs in the same order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"

namespace home::detect {

/// Depth of the per-thread recent-access ring (it only enriches the
/// reported pairs; the verdict never depends on it).
inline constexpr std::size_t kFrontierHistory = 8;

/// What the racy-pair predicate reads of one access.
struct AccessFacts {
  trace::Tid tid = trace::kNoTid;
  bool write = false;
  const std::vector<trace::ObjId>* locks = nullptr;
  std::uint64_t own = 0;  ///< own stamp component: the access's epoch.
};

/// The racy-pair predicate of both engines, for two accesses of one
/// variable on different threads, `earlier` before `later` in seq order;
/// `later_sees(t)` is later's stamp component of thread t.  At least one
/// must write, then the mode's test.  The HB test is the epoch compare
/// own_earlier > later_sees(tid_earlier): later <= earlier is impossible
/// (later's own component already exceeds earlier's view of it), and
/// earlier <= later reduces to the epoch test because a stamp only
/// propagates whole along sync edges, after its own bump (stamp.hpp).
/// `epoch_hits` counts the HB tests.
template <class LaterSees>
bool accesses_racy(DetectorMode mode, const AccessFacts& earlier,
                   const AccessFacts& later, const LaterSees& later_sees,
                   std::size_t* epoch_hits) {
  if (!earlier.write && !later.write) return false;
  if (mode != DetectorMode::kLocksetOnly) {
    ++*epoch_hits;
    if (earlier.own <= later_sees(earlier.tid)) return false;
    if (mode == DetectorMode::kHbOnly) return true;
  }
  return trace::locksets_disjoint(*earlier.locks, *later.locks);
}

/// A variable's running sweep tallies (cumulative over a whole stream).
struct SweepTally {
  bool concurrent = false;
  std::size_t pairs = 0;          ///< racy pairs reported, within the budget.
  std::size_t pairs_checked = 0;  ///< cross-thread candidates examined.
  std::size_t epoch_hits = 0;     ///< HB tests answered by the epoch compare.
};

/// One variable's frontier: per thread, the maximal access of each
/// (kind, lockset) class plus the kFrontierHistory most recent accesses,
/// mirrored into one seq-sorted candidate list.  Accesses only enter with
/// the largest seq so far, so appends keep the list sorted; an access held
/// by both a class maximum and the ring is listed once, refcounted.
///
/// `Accesses` is the engine's access store:
///   using Ref = ...;                          cheap to copy, ==-comparable
///   AccessFacts facts(const Ref&) const;
///   std::uint64_t order(const Ref&) const;    strictly increasing in seq
template <class Accesses>
class AccessFrontier {
 public:
  using Ref = typename Accesses::Ref;

  /// Check the incoming access `ref` (seq-later than every retained one)
  /// against the other threads' retained accesses in seq order, calling
  /// on_pair(earlier, earlier_tid) for each racy pair within the pair
  /// budget, then retain it.  Returns false, retaining nothing, once a racy
  /// pair finds the budget spent: nothing about the variable can change.
  template <class LaterSees, class OnPair>
  bool sweep(const Accesses& store, const Ref& ref, const LaterSees& later_sees,
             const RaceDetectorConfig& cfg, SweepTally* tally,
             OnPair&& on_pair) {
    const AccessFacts in = store.facts(ref);
    for (const Candidate& c : candidates_) {
      if (c.tid == in.tid) continue;
      ++tally->pairs_checked;
      if (!accesses_racy(cfg.mode, store.facts(c.ref), in, later_sees,
                         &tally->epoch_hits)) {
        continue;
      }
      tally->concurrent = true;
      if (cfg.max_pairs_per_var != 0 && tally->pairs >= cfg.max_pairs_per_var) {
        return false;
      }
      ++tally->pairs;
      on_pair(c.ref, c.tid);
    }
    retain(store, ref, in);
    return true;
  }

  /// Drop every retained access `dominated(ref)` holds.  The ring keeps
  /// its survivors in seq order, so it goes on evicting the oldest first.
  /// Returns the class and ring slots freed.
  template <class Dominated>
  std::size_t retire(const Dominated& dominated) {
    std::size_t freed = 0;
    for (ThreadFrontier& tf : threads_) {
      freed += std::erase_if(tf.keyed, dominated);
      const auto oldest = static_cast<std::ptrdiff_t>(tf.recent_next);
      std::rotate(tf.recent.begin(), tf.recent.begin() + oldest,
                  tf.recent.end());
      tf.recent_next = 0;
      freed += std::erase_if(tf.recent, dominated);
    }
    std::erase_if(threads_, [](const ThreadFrontier& tf) {
      return tf.keyed.empty() && tf.recent.empty();
    });
    std::erase_if(candidates_, [&dominated](const Candidate& c) {
      return dominated(c.ref);
    });
    return freed;
  }

  bool empty() const { return threads_.empty(); }

  /// Class and ring slots in use (an access in both counts twice).
  std::size_t retained() const {
    std::size_t n = 0;
    for (const ThreadFrontier& tf : threads_) {
      n += tf.keyed.size() + tf.recent.size();
    }
    return n;
  }

 private:
  struct ThreadFrontier {
    trace::Tid tid = trace::kNoTid;
    std::vector<Ref> keyed;   ///< maximal access per (kind, lockset) class.
    std::vector<Ref> recent;  ///< ring of the most recent accesses.
    std::size_t recent_next = 0;  ///< ring overwrite cursor (the oldest).
  };
  struct Candidate {
    Ref ref;
    trace::Tid tid = trace::kNoTid;
    std::uint8_t refs = 0;
  };

  void retain(const Accesses& store, const Ref& ref, const AccessFacts& in) {
    ThreadFrontier& mine = thread(in.tid);
    bool replaced = false;
    for (Ref& k : mine.keyed) {
      const AccessFacts kf = store.facts(k);
      if (kf.write == in.write && *kf.locks == *in.locks) {
        release(store, k);
        k = ref;
        replaced = true;
        break;
      }
    }
    if (!replaced) mine.keyed.push_back(ref);
    hold(ref, in.tid);
    if (mine.recent.size() < kFrontierHistory) {
      mine.recent.push_back(ref);
    } else {
      release(store, mine.recent[mine.recent_next]);
      mine.recent[mine.recent_next] = ref;
      mine.recent_next = (mine.recent_next + 1) % kFrontierHistory;
    }
    hold(ref, in.tid);
  }

  ThreadFrontier& thread(trace::Tid tid) {
    for (ThreadFrontier& tf : threads_) {
      if (tf.tid == tid) return tf;
    }
    ThreadFrontier& tf = threads_.emplace_back();
    tf.tid = tid;
    tf.recent.reserve(kFrontierHistory);
    return tf;
  }

  void hold(const Ref& ref, trace::Tid tid) {
    if (!candidates_.empty() && candidates_.back().ref == ref) {
      ++candidates_.back().refs;
    } else {
      candidates_.push_back(Candidate{ref, tid, 1});
    }
  }

  void release(const Accesses& store, const Ref& ref) {
    const std::uint64_t key = store.order(ref);
    auto it = std::lower_bound(candidates_.begin(), candidates_.end(), key,
                               [&store](const Candidate& c, std::uint64_t k) {
                                 return store.order(c.ref) < k;
                               });
    if (--it->refs == 0) candidates_.erase(it);
  }

  std::vector<ThreadFrontier> threads_;  ///< in order of first access.
  std::vector<Candidate> candidates_;    ///< seq-sorted, deduplicated.
};

/// Sweep one variable's access-event indices (ascending) and return its
/// verdict.  `indices` must index hb.events() and all refer to accesses of
/// `var`.
VariableVerdict frontier_sweep_variable(const HbIndex& hb,
                                        const RaceDetectorConfig& cfg,
                                        trace::ObjId var,
                                        const std::vector<std::size_t>& indices);

}  // namespace home::detect
