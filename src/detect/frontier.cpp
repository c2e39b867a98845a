#include "src/detect/frontier.hpp"

namespace home::detect {

namespace {

/// Post-mortem accesses: indices into the HbIndex's seq-sorted events.
struct EventAccesses {
  using Ref = std::size_t;
  const HbIndex* hb;

  AccessFacts facts(std::size_t i) const {
    const trace::Event& e = hb->events()[i];
    return AccessFacts{e.tid, e.is_write(), &e.locks_held,
                       hb->stamp_get(i, e.tid)};
  }
  static std::uint64_t order(std::size_t i) { return i; }
};

}  // namespace

VariableVerdict frontier_sweep_variable(const HbIndex& hb,
                                        const RaceDetectorConfig& cfg,
                                        trace::ObjId var,
                                        const std::vector<std::size_t>& indices) {
  VariableVerdict verdict;
  verdict.var = var;
  const EventAccesses store{&hb};
  AccessFrontier<EventAccesses> frontier;
  SweepTally tally;
  for (const std::size_t i : indices) {
    const trace::Tid tid = hb.events()[i].tid;
    const bool more = frontier.sweep(
        store, i, [&hb, i](trace::Tid t) { return hb.stamp_get(i, t); }, cfg,
        &tally, [&](std::size_t j, trace::Tid jtid) {
          verdict.pairs.push_back(ConcurrentPair{j, i, jtid, tid});
        });
    if (!more) break;
  }
  verdict.concurrent = tally.concurrent;
  verdict.pairs_checked = tally.pairs_checked;
  verdict.epoch_hits = tally.epoch_hits;
  return verdict;
}

}  // namespace home::detect
