#include "src/diagnose/witness.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace home::diagnose {

namespace {

constexpr std::uint32_t kNone32 = static_cast<std::uint32_t>(-1);

/// First event of `list` (a seq-ordered per-thread index list) after `idx`,
/// or -1.
std::uint32_t first_after(const std::vector<std::uint32_t>& list,
                          std::uint32_t idx) {
  const auto it = std::upper_bound(list.begin(), list.end(), idx);
  return it == list.end() ? kNone32 : *it;
}

/// Last event of `list` before `idx`, or -1.
std::uint32_t last_before(const std::vector<std::uint32_t>& list,
                          std::uint32_t idx) {
  const auto it = std::lower_bound(list.begin(), list.end(), idx);
  return it == list.begin() ? kNone32 : *(it - 1);
}

}  // namespace

SyncGraph::SyncGraph(const detect::HbIndex& hb,
                     const detect::HappensBeforeConfig& cfg)
    : hb_(&hb) {
  const std::size_t n = hb.events().size();

  // Edges are emitted in the order a single forward walk over the trace
  // would meet their targets (a fork edge first, then the event's own
  // incoming message/join/lock edges), then the barrier fan-out, so the
  // shortest-chain tie-breaking is that of a full-trace walk.  Only the
  // sync events are visited; fork edges resolve to the child's next event
  // and are merged in by target afterwards.
  std::vector<Edge> walk;
  std::vector<Edge> forks;
  std::unordered_map<trace::ObjId, std::vector<std::uint32_t>> sends;
  std::unordered_map<trace::ObjId, std::vector<std::uint32_t>> releases;
  struct Arrival {
    trace::ObjId obj;
    std::uint32_t idx;
    std::uint32_t size;  // e.aux: participant count closing the instance.
    trace::Tid tid;
    std::uint32_t pos;   // in-thread position of the arrival.
  };
  std::vector<Arrival> barrier_arrivals;
  barrier_arrivals.reserve(hb.sync_events().size());

  for (const detect::HbIndex::SyncEvent& e : hb.sync_events()) {
    const std::uint32_t i = e.idx;
    switch (e.kind) {
      case trace::EventKind::kMsgSend:
        if (cfg.message_edges) sends[e.obj].push_back(i);
        break;
      case trace::EventKind::kMsgRecv:
        if (cfg.message_edges) {
          // The message clock accumulates every send to this object, so
          // all prior sends are edge sources.
          for (std::uint32_t src : sends[e.obj]) {
            walk.push_back(Edge{src, i, EdgeKind::kMessage});
          }
        }
        break;
      case trace::EventKind::kThreadFork: {
        // The parent clock was joined into the child at fork time, so the
        // child's next event (and everything after it) is HB-after the
        // fork.  A later fork of the same child before that event replaces
        // this one.
        const auto child = static_cast<trace::Tid>(e.obj);
        const std::uint32_t target = first_after(hb.events_of(child), i);
        if (target != kNone32) forks.push_back(Edge{i, target, EdgeKind::kFork});
        break;
      }
      case trace::EventKind::kThreadJoin: {
        // The join absorbs the child's clock as of its last event; a
        // self-join adds nothing beyond program order.
        const auto child = static_cast<trace::Tid>(e.obj);
        if (child == e.tid) break;
        const std::uint32_t last = last_before(hb.events_of(child), i);
        if (last != kNone32) walk.push_back(Edge{last, i, EdgeKind::kJoin});
        break;
      }
      case trace::EventKind::kBarrier: {
        const auto t = static_cast<std::size_t>(e.tid);
        if (t >= tid_barriers_.size()) tid_barriers_.resize(t + 1);
        tid_barriers_[t].push_back(e.pos);
        barrier_arrivals.push_back(Arrival{
            e.obj, i, static_cast<std::uint32_t>(e.aux), e.tid, e.pos});
        break;
      }
      case trace::EventKind::kLockRelease:
        if (cfg.lock_edges) releases[e.obj].push_back(i);
        break;
      case trace::EventKind::kLockAcquire:
        if (cfg.lock_edges) {
          for (std::uint32_t r : releases[e.obj]) {
            walk.push_back(Edge{r, i, EdgeKind::kLock});
          }
        }
        break;
      default:
        break;
    }
  }

  // Forks sharing a target are forks of one child before its next event:
  // only the last one is an edge.  The survivors are merged into the walk
  // order by target, a fork edge ahead of the target's own incoming edges.
  std::sort(forks.begin(), forks.end(), [](const Edge& a, const Edge& b) {
    return a.to != b.to ? a.to < b.to : a.from < b.from;
  });
  std::size_t kept = 0;
  for (std::size_t k = 0; k < forks.size(); ++k) {
    if (k + 1 < forks.size() && forks[k + 1].to == forks[k].to) continue;
    forks[kept++] = forks[k];
  }
  forks.resize(kept);
  edges_.reserve(walk.size() + forks.size());
  std::merge(forks.begin(), forks.end(), walk.begin(), walk.end(),
             std::back_inserter(edges_),
             [](const Edge& a, const Edge& b) { return a.to < b.to; });

  // Completed-barrier fan-out: arrival a -> next event of every *other*
  // participant after the instance completes (the participant's own
  // successor is already covered by program order).  A participant blocks
  // in the barrier, so that is its next event after its own arrival; a
  // trace where it ran ahead gets no backward edge.  Grouping: sort
  // arrivals by (object, trace position), then each run of `size` arrivals
  // of one object is a completed instance — matching the
  // accumulate-then-reset semantics of IncrementalHb, where an object id is
  // reused per instance.
  // Arrivals are usually already grouped (one global barrier object, or
  // phase-ordered objects) — skip the sort when a linear check confirms it.
  const auto arrival_before = [](const Arrival& a, const Arrival& b) {
    return a.obj != b.obj ? a.obj < b.obj : a.idx < b.idx;
  };
  if (!std::is_sorted(barrier_arrivals.begin(), barrier_arrivals.end(),
                      arrival_before)) {
    std::sort(barrier_arrivals.begin(), barrier_arrivals.end(),
              arrival_before);
  }
  // Completed instances, as [lo, hi) runs of the arrivals, are found first
  // so their fan-out edges are reserved in one allocation.
  std::vector<std::pair<std::size_t, std::size_t>> instances;
  std::size_t fanout = 0;
  for (std::size_t lo = 0; lo < barrier_arrivals.size();) {
    const trace::ObjId obj = barrier_arrivals[lo].obj;
    const std::size_t size = barrier_arrivals[lo].size;
    std::size_t hi = lo;
    while (hi < barrier_arrivals.size() && barrier_arrivals[hi].obj == obj &&
           hi - lo < size) {
      ++hi;
    }
    if (size > 0 && hi - lo == size) {
      instances.emplace_back(lo, hi);
      fanout += size * (size - 1);
    }
    lo = hi == lo ? lo + 1 : hi;
  }
  edges_.reserve(edges_.size() + fanout);
  std::vector<std::uint32_t> succ;  // per participant of one instance.
  for (const auto& [lo, hi] : instances) {
    const std::uint32_t completed = barrier_arrivals[hi - 1].idx;
    succ.clear();
    for (std::size_t b = lo; b < hi; ++b) {
      const std::vector<std::uint32_t>& theirs =
          hb.events_of(barrier_arrivals[b].tid);
      const std::size_t p = barrier_arrivals[b].pos + 1;
      std::uint32_t next = p < theirs.size() ? theirs[p] : kNone32;
      if (next != kNone32 && next < completed) {
        next = first_after(theirs, completed);
      }
      succ.push_back(next);
    }
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = lo; b < hi; ++b) {
        if (a == b || succ[b - lo] == kNone32) continue;
        edges_.push_back(
            Edge{barrier_arrivals[a].idx, succ[b - lo], EdgeKind::kBarrier});
      }
    }
  }

  // Finalize the adjacency: the (sparse) sync edges must be grouped by
  // source for the BFS's binary search — tie order within one source is
  // irrelevant.  Sorting m << n edges beats building a dense per-event
  // offset table, and barrier-dominated traces emit the fan-out already
  // source-ordered, so a linear check usually skips the sort outright.
  const auto by_from = [](const Edge& a, const Edge& b) {
    return a.from < b.from;
  };
  if (!std::is_sorted(edges_.begin(), edges_.end(), by_from)) {
    std::sort(edges_.begin(), edges_.end(),
              [](const Edge& a, const Edge& b) {
                return a.from != b.from ? a.from < b.from : a.to < b.to;
              });
  }
  edge_bits_.assign((n + 63) / 64, 0);
  for (const Edge& e : edges_) {
    edge_bits_[e.from >> 6] |= std::uint64_t{1} << (e.from & 63);
  }
}

std::uint32_t SyncGraph::po_next(std::size_t i) const {
  const std::vector<std::uint32_t>& mine =
      hb_->events_of(hb_->events()[i].tid);
  const std::size_t next = hb_->thread_position(i) + 1;
  return next < mine.size() ? mine[next] : kNone32;
}

std::vector<ChainLink> SyncGraph::shortest_chain(std::size_t from,
                                                 std::size_t to) const {
  std::vector<ChainLink> chain;
  const std::size_t n = hb_->events().size();
  if (from >= n || to >= n || from >= to) return chain;

  // Every edge satisfies from < to (program order is seq order; message,
  // fork, join, barrier and lock edges all target later events), so only
  // the [from, to] window can lie on a path.  BFS state is indexed relative
  // to the window.
  const std::size_t width = to - from + 1;
  constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> parent(width, kUnseen);
  std::vector<EdgeKind> via(width, EdgeKind::kProgramOrder);
  std::vector<std::uint32_t> queue;
  queue.reserve(64);
  parent[0] = 0;  // self-mark as visited.
  queue.push_back(static_cast<std::uint32_t>(from));

  bool found = false;
  for (std::size_t head = 0; head < queue.size() && !found; ++head) {
    const std::uint32_t cur = queue[head];
    // The program-order successor is implicit (po_next); the edge array
    // holds only the cross-thread sync edges.
    auto relax = [&](std::uint32_t dst, EdgeKind kind) {
      if (dst > to) return;  // outside the window: cannot reach `to`.
      const std::size_t rel = dst - from;
      if (parent[rel] != kUnseen) return;
      parent[rel] = cur;
      via[rel] = kind;
      if (dst == to) {
        found = true;
        return;
      }
      queue.push_back(dst);
    };
    const std::uint32_t next = po_next(cur);
    if (next != kNone32) relax(next, EdgeKind::kProgramOrder);
    if ((edge_bits_[cur >> 6] >> (cur & 63)) & 1) {
      auto it = std::lower_bound(edges_.begin(), edges_.end(), cur,
                                 [](const Edge& e, std::uint32_t v) {
                                   return e.from < v;
                                 });
      for (; it != edges_.end() && it->from == cur && !found; ++it) {
        relax(it->to, it->kind);
      }
    }
    if (found) break;
  }
  if (parent[width - 1] == kUnseen) return chain;

  for (std::size_t cur = to; cur != from; cur = parent[cur - from]) {
    ChainLink link;
    link.from = hb_->events()[parent[cur - from]].seq;
    link.to = hb_->events()[cur].seq;
    link.edge = via[cur - from];
    chain.push_back(link);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::uint64_t SyncGraph::barriers_before(trace::Tid tid,
                                         std::size_t pos) const {
  if (static_cast<std::size_t>(tid) >= tid_barriers_.size()) return 0;
  const std::vector<std::uint32_t>& bars = tid_barriers_[tid];
  // Barrier events at in-thread positions strictly before `pos`.
  return static_cast<std::uint64_t>(
      std::lower_bound(bars.begin(), bars.end(),
                       static_cast<std::uint32_t>(pos)) -
      bars.begin());
}

}  // namespace home::diagnose
