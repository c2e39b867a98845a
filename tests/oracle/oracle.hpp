// Independent reference detector for the equivalence suites and benches.
//
// Production decides Concurrent(v) with the frontier sweep over the epoch
// stamps IncrementalHb hands out.  This oracle re-derives the same answers
// the way the paper states them and shares no code path with that engine:
//
//   * the constructor replays the raw seq-ordered events into one dense
//     VectorClock per event, applying the edge rules of DESIGN.md §4
//     directly — it never calls IncrementalHb, HappensBeforeAnalysis or
//     RaceDetector, so a bug in the production HB replay cannot hide by
//     agreeing with itself;
//   * verdicts() decides each variable with the paper's O(k^2) pairwise
//     check, lockset ∧ IsPotentialHappenBeforeRace, in the DetectorMode the
//     oracle was built for.
//
// It is deliberately naive: every event keeps a private dense clock and
// every pair of a variable's accesses is compared, so keep its inputs to
// test and bench sizes.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::oracle {

class Oracle {
 public:
  /// `events` must be seq-sorted.  Release->acquire edges are modeled only
  /// under kHbOnly: the hybrid detector leaves mutual exclusion to the
  /// lockset test, and lockset-only ignores HB altogether.
  Oracle(std::vector<trace::Event> events, detect::DetectorMode mode);

  detect::DetectorMode mode() const { return mode_; }
  const std::vector<trace::Event>& events() const { return events_; }

  /// Event i's dense clock: the issuing thread's clock right after its own
  /// tick, before the event's outgoing edges.
  const detect::VectorClock& clock(std::size_t i) const { return clocks_[i]; }

  /// events()[i] happens-before-or-equals events()[j].
  bool ordered(std::size_t i, std::size_t j) const;

  /// Neither order holds.
  bool concurrent(std::size_t i, std::size_t j) const {
    return !ordered(i, j) && !ordered(j, i);
  }

  /// Concurrent(v) for every variable the trace accesses, decided by
  /// comparing every pair of its accesses with accesses_racy().
  std::map<trace::ObjId, bool> verdicts() const;

 private:
  std::vector<trace::Event> events_;
  detect::DetectorMode mode_;
  std::vector<detect::VectorClock> clocks_;
};

/// The paper's IsPotentialHappenBeforeRace: same location, different
/// threads, at least one write, unordered in HB.
bool is_potential_hb_race(const Oracle& oracle, std::size_t i, std::size_t j);

/// The oracle mode's racy-pair predicate over two accesses of one variable
/// (order-agnostic): lockset ∧ IsPotentialHappenBeforeRace under kHybrid,
/// the HB race alone under kHbOnly, disjoint locksets alone (different
/// threads, at least one write) under kLocksetOnly.
bool accesses_racy(const Oracle& oracle, std::size_t i, std::size_t j);

}  // namespace home::oracle
