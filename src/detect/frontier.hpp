// Frontier-based per-variable concurrency sweep (FastTrack-style).
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
#pragma once

#include <cstddef>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"

namespace home::detect {

/// Depth of the per-thread recent-access ring, shared by the post-mortem
/// sweep and the streaming IncrementalFrontier (it only enriches the
/// reported pairs; the verdict never depends on it).
inline constexpr std::size_t kFrontierHistory = 8;

/// Sweep one variable's access-event indices (ascending) and return its
/// verdict.  `indices` must index hb.events() and all refer to accesses of
/// `var`.
VariableVerdict frontier_sweep_variable(const HbIndex& hb,
                                        const RaceDetectorConfig& cfg,
                                        trace::ObjId var,
                                        const std::vector<std::size_t>& indices);

}  // namespace home::detect
