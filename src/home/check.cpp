#include "src/home/check.hpp"

#include <sstream>

#include "src/homp/runtime.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"

namespace home {

CheckResult check_program(const CheckConfig& cfg,
                          const std::function<void(simmpi::Process&)>& rank_main) {
  Session session(cfg.session);

  simmpi::UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  ucfg.max_thread_level = cfg.max_thread_level;
  ucfg.rendezvous_sends = cfg.rendezvous_sends;
  ucfg.block_timeout_ms = cfg.block_timeout_ms;
  session.configure(ucfg);

  simmpi::Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(cfg.nthreads);

  CheckResult result;
  result.run = universe.run(rank_main);
  session.detach(universe);
  result.report = session.analyze();
  result.reconciliation = session.reconciliation();
  result.provenance = session.provenance();
  if (session.online_analyzer() != nullptr) {
    result.online_stats = session.online_analyzer()->stats();
  }
  return result;
}

PostMortem analyze_events(std::vector<trace::Event> events,
                          const trace::StringTable* strings,
                          const detect::RaceDetectorConfig& cfg) {
  ReportStats stats;
  stats.trace_events = events.size();
  detect::ConcurrencyReport concurrency =
      detect::RaceDetector(cfg).analyze(std::move(events));
  std::vector<spec::Violation> violations =
      spec::Matcher(strings).match(concurrency);
  for (const auto& [var, verdict] : concurrency.verdicts()) {
    if (!spec::is_monitored_var(var)) continue;
    ++stats.monitored_variables;
    if (verdict.concurrent) ++stats.concurrent_variables;
    stats.concurrent_pairs += verdict.pairs.size();
  }
  return PostMortem{std::move(concurrency), std::move(violations), stats};
}

Report analyze_trace(trace::LoadedTrace loaded, const SessionConfig& cfg) {
  // Rebuild the string table so callsite ids resolve like in the live run.
  trace::StringTable strings;
  for (const std::string& s : loaded.strings) strings.intern(s);
  PostMortem pm = analyze_events(std::move(loaded.events), &strings,
                                 make_detector_config(cfg));
  return Report(std::move(pm.violations), pm.stats);
}

Report analyze_trace_file(const std::string& path, const SessionConfig& cfg) {
  return analyze_trace(trace::load_trace_file(path), cfg);
}

Report analyze_wal_file(const std::string& path, const SessionConfig& cfg,
                        trace::WalSalvage* salvage_out) {
  trace::WalSalvage salvage;
  Report report = analyze_trace(trace::salvage_wal_file(path, &salvage), cfg);
  if (salvage_out != nullptr) *salvage_out = salvage;
  if (!salvage.clean()) {
    std::ostringstream reason;
    reason << "WAL salvage: recovered " << salvage.events << " events ("
           << salvage.frames << " frames, " << salvage.bytes_recovered
           << " bytes); discarded " << salvage.corrupt_frames
           << " corrupt frame(s), " << salvage.bytes_discarded << " bytes";
    if (salvage.missing_header) reason << "; header missing";
    report.mark_degraded(reason.str());
  }
  return report;
}

}  // namespace home
