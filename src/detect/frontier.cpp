#include "src/detect/frontier.hpp"

#include <algorithm>

namespace home::detect {

namespace {

/// Frontier state for one thread on one variable.
struct ThreadFrontier {
  /// Maximal access per (is_write, lockset) class; small in practice (one or
  /// two lock disciplines per thread per variable).
  std::vector<std::size_t> keyed;
  /// Ring of most recent accesses (any class), newest-independent order.
  std::vector<std::size_t> recent;
  std::size_t recent_next = 0;
};

bool same_class(const trace::Event& a, const trace::Event& b) {
  return a.is_write() == b.is_write() && a.locks_held == b.locks_held;
}

}  // namespace

VariableVerdict frontier_sweep_variable(const HbIndex& hb,
                                        const RaceDetectorConfig& cfg,
                                        trace::ObjId var,
                                        const std::vector<std::size_t>& indices) {
  VariableVerdict verdict;
  verdict.var = var;

  // Dense tid-indexed frontiers plus one incrementally maintained candidate
  // list.  The old sweep rebuilt + sorted the candidate vector on every
  // access — O(C log C) of pure overhead per event on the detector's
  // hottest path.  Entries only ever enter with the largest index so far,
  // so appends keep `entries` sorted by construction; an index referenced
  // by both a keyed maximum and the recent ring is stored once with a
  // refcount (the old sort+unique dedupe, allocation-free).  Iteration
  // order (ascending event index) is byte-identical to the old sweep.
  std::vector<ThreadFrontier> frontiers;
  struct Entry {
    std::size_t idx;
    std::uint8_t refs;
  };
  std::vector<Entry> entries;
  auto entry_add = [&entries](std::size_t i) {
    if (!entries.empty() && entries.back().idx == i) {
      ++entries.back().refs;
    } else {
      entries.push_back(Entry{i, 1});
    }
  };
  auto entry_remove = [&entries](std::size_t j) {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), j,
        [](const Entry& e, std::size_t v) { return e.idx < v; });
    if (--it->refs == 0) entries.erase(it);
  };

  for (const std::size_t i : indices) {
    const trace::Event& e = hb.events()[i];

    for (const Entry& entry : entries) {
      const std::size_t j = entry.idx;
      const trace::Tid jtid = hb.events()[j].tid;
      if (jtid == e.tid) continue;
      ++verdict.pairs_checked;
      // Frontier candidates are all seq-earlier than i, so the ordered-pair
      // (epoch-capable) predicate applies.
      if (!accesses_racy_ordered(cfg.mode, hb, j, i, &verdict.epoch_hits)) {
        continue;
      }
      verdict.concurrent = true;
      if (cfg.max_pairs_per_var != 0 &&
          verdict.pairs.size() >= cfg.max_pairs_per_var) {
        // Verdict set and the pair budget is spent: nothing about this
        // variable can change any more.
        return verdict;
      }
      verdict.pairs.push_back(ConcurrentPair{j, i, jtid, e.tid});
    }

    // Advance this thread's frontier (mirrored into `entries`).
    const auto et = static_cast<std::size_t>(e.tid);
    if (frontiers.size() <= et) frontiers.resize(et + 1);
    ThreadFrontier& mine = frontiers[et];
    bool replaced = false;
    for (std::size_t& j : mine.keyed) {
      if (same_class(hb.events()[j], e)) {
        entry_remove(j);
        j = i;
        replaced = true;
        break;
      }
    }
    if (!replaced) mine.keyed.push_back(i);
    entry_add(i);
    if (mine.recent.size() < kFrontierHistory) {
      mine.recent.push_back(i);
    } else {
      entry_remove(mine.recent[mine.recent_next]);
      mine.recent[mine.recent_next] = i;
      mine.recent_next = (mine.recent_next + 1) % kFrontierHistory;
    }
    entry_add(i);
  }

  return verdict;
}

}  // namespace home::detect
