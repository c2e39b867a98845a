#include "src/spec/matcher.hpp"

#include <map>
#include <set>

#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/simmpi/types.hpp"
#include "src/spec/rules.hpp"

namespace home::spec {
namespace {

using detect::ConcurrencyReport;
using detect::HbIndex;
using trace::Event;
using trace::MpiCallType;

bool is_wildcard(int v) { return v < 0; }

/// Everything the matcher aggregates per rank in one scan of the trace.
struct RankFacts {
  bool saw_init = false;
  bool used_init_thread = false;
  simmpi::ThreadLevel provided = simmpi::ThreadLevel::kSingle;
  std::vector<std::size_t> call_events;      ///< indices of kMpiCall events.
  std::vector<std::size_t> finalize_events;  ///< subset of call_events.
  bool parallel_region = false;              ///< saw a team of size > 1.
};

}  // namespace

bool args_overlap(int a, int b) { return a == b || is_wildcard(a) || is_wildcard(b); }

std::vector<Violation> Matcher::match(const ConcurrencyReport& report) const {
  obs::Span span("spec.match");
  stats_ = MatcherStats{};
  const HbIndex& hb = report.hb();
  const auto& events = hb.events();

  std::map<int, RankFacts> ranks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == trace::EventKind::kRegionBegin && e.rank >= 0 && e.aux > 1) {
      ranks[e.rank].parallel_region = true;
    }
    if (e.kind != trace::EventKind::kMpiCall || !e.mpi) continue;
    RankFacts& facts = ranks[e.rank];
    switch (e.mpi->type) {
      case MpiCallType::kInit:
        facts.saw_init = true;
        facts.provided = static_cast<simmpi::ThreadLevel>(e.mpi->provided);
        break;
      case MpiCallType::kInitThread:
        facts.saw_init = true;
        facts.used_init_thread = true;
        facts.provided = static_cast<simmpi::ThreadLevel>(e.mpi->provided);
        break;
      case MpiCallType::kFinalize:
        facts.finalize_events.push_back(i);
        facts.call_events.push_back(i);
        break;
      default:
        facts.call_events.push_back(i);
        break;
    }
  }

  std::vector<Violation> out;
  std::set<std::string> seen;
  obs::Counter& rule_hits = obs::Registry::global().counter("spec.rule_hits");
  auto add = [&](Violation v) {
    const std::string key = violation_key(v);
    if (seen.insert(key).second) {
      out.push_back(std::move(v));
      ++stats_.violations;
      rule_hits.add(1);
    }
  };
  std::vector<Violation> scratch;
  auto add_all = [&](std::vector<Violation>& vs) {
    for (Violation& v : vs) add(std::move(v));
    vs.clear();
  };

  // --- pair rules: V3 ConcurrentRecv, V4 ConcurrentRequest, V5 Probe,
  // --- V6 CollectiveCall, driven by the monitored-variable verdicts. --------
  for (const auto& [var, verdict] : report.verdicts()) {
    if (!is_monitored_var(var) || !verdict.concurrent) continue;
    const MonitoredVar kind = monitored_var_kind(var);
    // srctmp carries the receive/probe rules; requesttmp carries V4;
    // collectivetmp carries V6. tagtmp/commtmp/finalizetmp pairs would
    // duplicate reports for the same call pairs and are skipped here.
    if (kind != MonitoredVar::kSrcTmp && kind != MonitoredVar::kRequestTmp &&
        kind != MonitoredVar::kCollectiveTmp) {
      continue;
    }
    for (const detect::ConcurrentPair& pair : verdict.pairs) {
      ++stats_.concurrent_pairs;
      // aux of a monitored-variable write is the seq of its kMpiCall event.
      const std::size_t i1 = hb.index_of_seq(events[pair.first].aux);
      const std::size_t i2 = hb.index_of_seq(events[pair.second].aux);
      if (i1 == HbIndex::npos || i2 == HbIndex::npos) continue;
      const Event& c1 = events[i1];
      const Event& c2 = events[i2];
      if (!c1.mpi || !c2.mpi || c1.tid == c2.tid) continue;
      ++stats_.call_pairs;
      rules::match_call_pair(kind, c1, c2, strings_, &scratch);
      add_all(scratch);
    }
  }

  // --- V1 Initialization, per rank ------------------------------------------
  for (auto& [rank, facts] : ranks) {
    if (!facts.saw_init) continue;
    switch (facts.provided) {
      case simmpi::ThreadLevel::kSingle:
        if (facts.parallel_region) {
          add(rules::single_with_parallel_region(rank, facts.used_init_thread));
        }
        break;
      case simmpi::ThreadLevel::kFunneled:
        for (std::size_t i : facts.call_events) {
          const Event& c = events[i];
          if (c.mpi && !c.mpi->on_main_thread) {
            add(rules::funneled_off_main(c, strings_));
          }
        }
        break;
      case simmpi::ThreadLevel::kSerialized: {
        // Any concurrent monitored variable of this rank means two MPI calls
        // can overlap, which SERIALIZED forbids.
        for (int k = 0; k < kMonitoredVarCount; ++k) {
          const trace::ObjId var =
              monitored_var_id(rank, static_cast<MonitoredVar>(k));
          const detect::VariableVerdict* verdict = report.verdict(var);
          if (verdict && verdict->concurrent && !verdict->pairs.empty()) {
            const detect::ConcurrentPair& pair = verdict->pairs.front();
            add(rules::serialized_concurrent(rank, static_cast<MonitoredVar>(k),
                                             pair.tid1, pair.tid2));
            break;  // one report per rank is enough for V1/SERIALIZED.
          }
        }
        break;
      }
      case simmpi::ThreadLevel::kMultiple:
        break;
    }
  }

  // --- V2 Finalization, per rank --------------------------------------------
  for (auto& [rank, facts] : ranks) {
    (void)rank;
    for (std::size_t fi : facts.finalize_events) {
      const Event& fin = events[fi];
      if (fin.mpi && !fin.mpi->on_main_thread) {
        add(rules::finalize_off_main(fin, strings_));
      }
      for (std::size_t ci : facts.call_events) {
        if (ci == fi) continue;
        const Event& call = events[ci];
        if (!call.mpi || call.mpi->type == MpiCallType::kFinalize) continue;
        if (call.tid == fin.tid) {
          // Program order: a call after finalize on the same thread.
          if (call.seq > fin.seq) {
            add(rules::call_after_finalize(fin, call, strings_));
          }
          continue;
        }
        // Cross-thread: a call concurrent with or after finalize (i.e. not
        // ordered before it) means the rank finalized with communication
        // pending on another thread.
        if (!hb.ordered(ci, fi)) {
          add(rules::finalize_unordered(fin, call, strings_));
        }
      }
    }
  }

  return out;
}

}  // namespace home::spec
