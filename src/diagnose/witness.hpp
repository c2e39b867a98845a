// The synchronization-edge graph behind witness chains: the primitive HB
// edges of one trace, materialized as an adjacency structure so the
// certificate builder can BFS the *shortest* sync path from a knowledge
// frontier to a violation endpoint.
//
// The edge set mirrors detect::IncrementalHb::advance() exactly:
//   * program order (consecutive events of one thread),
//   * kMsgSend -> kMsgRecv on the same message object (the recv joins the
//     accumulated message clock before its own bump, so the recv event
//     itself is HB-after every prior send),
//   * kThreadFork -> the child's next event after the fork (the fork joins
//     the parent clock into the child's clock after the fork's stamp),
//   * the child's last event -> kThreadJoin (the join absorbs the child
//     clock before its own bump),
//   * barrier completion fan-out: every arrival -> each participant's next
//     event *after the instance completes* (for a blocking barrier, the
//     successor of its own arrival).  The target must be a successor, not
//     the arrival: arrival stamps are taken before the completion join, so
//     the arrival events themselves are NOT ordered across threads,
//   * lock release -> later acquires of the same lock, only when the HB
//     configuration models lock edges.
#pragma once

#include <cstddef>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/diagnose/certificate.hpp"
#include "src/trace/event.hpp"

namespace home::diagnose {

class SyncGraph {
 public:
  /// Built from the finished HB index: its per-thread event lists give the
  /// program-order edges and its sync-event list the rest, so the build
  /// touches only the (few) sync events instead of rescanning the trace.
  /// `hb` must outlive the graph.
  SyncGraph(const detect::HbIndex& hb, const detect::HappensBeforeConfig& cfg);

  /// Shortest path (fewest hops) from events[from] to events[to] over the
  /// primitive sync edges; empty when unreachable or from == to.  Every sync
  /// edge points forward in seq order, so the search is bounded to the
  /// [from, to] index window — witness chains between a knowledge frontier
  /// and its nearby endpoint cost O(window), not O(trace).
  std::vector<ChainLink> shortest_chain(std::size_t from, std::size_t to) const;

  std::size_t edge_count() const { return edges_.size(); }

  /// Barriers thread `tid` passed before its pos-th event (pos indexes
  /// hb.events_of(tid)) — the endpoint's barrier phase without a trace scan.
  std::uint64_t barriers_before(trace::Tid tid, std::size_t pos) const;

 private:
  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    EdgeKind kind = EdgeKind::kProgramOrder;
  };

  /// Event i's same-thread successor, or -1 (the implicit program-order
  /// edge, read off the HB index's per-thread lists).
  std::uint32_t po_next(std::size_t i) const;

  const detect::HbIndex* hb_;
  // Sync edges sorted by source + a per-event "has out-edges" bitmask.  Sync
  // edges are sparse (most events only have the implicit program-order
  // link), so a dense per-event offset table would cost several O(events)
  // passes just to index them; the BFS instead tests one bit per visited
  // node and binary-searches the edge array only on a hit.
  std::vector<Edge> edges_;
  std::vector<std::uint64_t> edge_bits_;
  // Per-thread in-thread positions of barrier arrivals; barrier phases are
  // recovered by binary search rather than stored per event.
  std::vector<std::vector<std::uint32_t>> tid_barriers_;
};

}  // namespace home::diagnose
