#include "stages.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/detect/clock_arena.hpp"
#include "src/diagnose/provenance.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/spec/matcher.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_io.hpp"
#include "src/trace/wal.hpp"
#include "checks.hpp"

namespace perfbench {

namespace {

using home::trace::Event;

double per_event_ns(double seconds, std::size_t events) {
  return seconds * 1e9 / static_cast<double>(std::max<std::size_t>(events, 1));
}

// RaceDetector::analyze's own telemetry spans ("detect.hb", "detect.sweep"),
// as children of the benchmark's "detect" span.  Telemetry is on only for
// the one call, and the spans are read through the public obs API.
home::detect::ConcurrencyReport detect_with_split(
    std::vector<Event> events, const home::detect::RaceDetectorConfig& dcfg,
    SpanLog* spans, double* hb_s) {
  home::obs::reset_spans();
  home::obs::set_enabled(true);
  home::detect::ConcurrencyReport report =
      home::detect::RaceDetector(dcfg).analyze(std::move(events));
  home::obs::set_enabled(false);
  // obs times count from its own epoch on the same steady clock.
  const std::int64_t offset =
      now_ns() - static_cast<std::int64_t>(home::obs::now_ns());
  *hb_s = 0.0;
  for (const home::obs::FinishedSpan& s : home::obs::collect_spans()) {
    if (s.is_instant || (s.name != "detect.hb" && s.name != "detect.sweep")) {
      continue;
    }
    const auto start = static_cast<std::int64_t>(s.start_ns) + offset;
    spans->add(s.name, start, start + static_cast<std::int64_t>(s.dur_ns));
    if (s.name == "detect.hb") *hb_s += static_cast<double>(s.dur_ns) * 1e-9;
  }
  return report;
}

}  // namespace

Staged staged_analysis(std::vector<Event> events,
                       const home::trace::StringTable& strings,
                       const home::SessionConfig& scfg, SpanLog* spans,
                       Values* values) {
  const home::detect::RaceDetectorConfig dcfg =
      home::make_detector_config(scfg);
  const std::size_t nevents = events.size();
  SpanLog::Scope analysis(spans, "analysis");
  const int analysis_index = static_cast<int>(spans->spans().size()) - 1;

  // detect.sweep_s is RaceDetector::analyze minus its HB pass: the
  // grouping, the per-variable sweeps and their worker fan-out.
  SpanLog::Scope detect_span(spans, "detect");
  double hb_s = 0.0;
  Staged staged{detect_with_split(std::move(events), dcfg, spans, &hb_s), {}};
  const double detect_s = detect_span.close();
  const home::detect::HbIndex& hb = staged.report.hb();
  (*values)["detect.hb_s"] = hb_s;
  (*values)["detect.hb_ns_per_event"] = per_event_ns(hb_s, nevents);
  (*values)["detect.hb_stamp_bytes"] = static_cast<double>(hb.stamp_bytes());
  (*values)["detect.hb_dense_bytes"] =
      static_cast<double>(hb.dense_stamp_bytes());
  (*values)["detect.sweep_s"] = detect_s - hb_s;
  double checked = 0;
  double found = 0;
  double epoch_hits = 0;
  for (const auto& [var, verdict] : staged.report.verdicts()) {
    checked += static_cast<double>(verdict.pairs_checked);
    found += static_cast<double>(verdict.pairs.size());
    epoch_hits += static_cast<double>(verdict.epoch_hits);
  }
  (*values)["detect.vars_swept"] =
      static_cast<double>(staged.report.verdicts().size());
  (*values)["detect.pairs_checked"] = checked;
  (*values)["detect.pairs_found"] = found;
  (*values)["detect.pair_yield"] = checked > 0 ? found / checked : 0.0;
  (*values)["detect.epoch_hits"] = epoch_hits;

  {
    SpanLog::Scope match_span(spans, "spec.match");
    staged.violations = home::spec::Matcher(&strings).match(staged.report);
    (*values)["spec.match_s"] = match_span.close();
  }
  (*values)["spec.violations"] = static_cast<double>(staged.violations.size());
  if (scfg.diagnose.enabled) {
    diagnose_stage(staged.report, staged.violations, strings, scfg, spans,
                   values);
  }
  (*values)[kStagedS] = analysis.close();
  (*values)["analysis.self_s"] =
      spans->self_seconds()[static_cast<std::size_t>(analysis_index)];
  (*values)["clock.arena_resident_bytes"] = static_cast<double>(
      home::detect::ClockArena::global().resident_bytes());
  return staged;
}

void diagnose_stage(const home::detect::ConcurrencyReport& report,
                    const std::vector<home::spec::Violation>& violations,
                    const home::trace::StringTable& strings,
                    const home::SessionConfig& scfg, SpanLog* spans,
                    Values* values) {
  home::diagnose::Options opts = scfg.diagnose;
  opts.enabled = true;
  SpanLog::Scope span(spans, "diagnose");
  const home::diagnose::ProvenanceReport provenance =
      home::diagnose::diagnose_violations(report.hb(), violations, &strings,
                                          home::diagnose_hb_config(scfg), opts);
  const double seconds = span.close();
  const auto certificates = provenance.certificates.size();
  (*values)["diagnose.s"] = seconds;
  (*values)["diagnose.certificates"] = static_cast<double>(certificates);
  // Per certificate; per call when there is nothing to certify (clean apps).
  (*values)["diagnose.us_per_certificate"] =
      seconds * 1e6 / static_cast<double>(std::max<std::size_t>(certificates, 1));
}

bool loader_roundtrip(const home::trace::TraceLog& log,
                      const std::vector<Event>& events, const std::string& dir,
                      SpanLog* spans, Values* values, std::string* why) {
  const std::string text_path = dir + "/roundtrip.trace";
  const std::string wal_path = dir + "/roundtrip.wal";
  {
    SpanLog::Scope save(spans, "trace.save");
    home::trace::save_trace_file(text_path, log);
  }
  {
    SpanLog::Scope write(spans, "trace.wal_write");
    home::trace::WalWriter wal(wal_path, &log.strings());
    for (const Event& e : events) wal.on_event(e);
    wal.close();
    if (!wal.ok()) {
      *why = "cannot write " + wal_path;
      return false;
    }
  }

  SpanLog::Scope load_span(spans, "trace.load");
  const home::trace::LoadedTrace text = home::trace::load_trace_file(text_path);
  const double load_s = load_span.close();
  (*values)["trace.load_s"] = load_s;
  (*values)["trace.load_ns_per_event"] = per_event_ns(load_s, events.size());

  home::trace::WalSalvage salvage;
  SpanLog::Scope salvage_span(spans, "trace.salvage");
  const home::trace::LoadedTrace wal =
      home::trace::salvage_wal_file(wal_path, &salvage);
  const double salvage_s = salvage_span.close();
  (*values)["trace.salvage_s"] = salvage_s;
  (*values)["trace.salvage_ns_per_event"] = per_event_ns(salvage_s, events.size());

  if (text.events.size() != events.size() || wal.events.size() != events.size() ||
      !salvage.clean()) {
    *why = "trace round trip lost events: wrote " +
           std::to_string(events.size()) + ", text loader read " +
           std::to_string(text.events.size()) + ", WAL salvage read " +
           std::to_string(wal.events.size());
    return false;
  }
  return true;
}

std::vector<home::spec::Violation> online_replay(
    const std::vector<Event>& events, const home::trace::StringTable& strings,
    const home::SessionConfig& scfg, SpanLog* spans, Values* values) {
  // The thread population the live registry had: the analyzer declares
  // every registered thread before it may retire state.
  home::trace::ThreadRegistry registry;
  home::trace::Tid max_tid = 0;
  for (const Event& e : events) {
    if (e.tid != home::trace::kNoTid) max_tid = std::max(max_tid, e.tid);
  }
  for (home::trace::Tid t = 0; t <= max_tid; ++t) {
    registry.register_thread(home::trace::kNoTid, home::trace::kNoRank, false);
  }

  // Mirrors Session::configure.
  home::online::OnlineConfig ocfg;
  ocfg.detector = home::make_detector_config(scfg);
  ocfg.queue_capacity = scfg.online.queue_capacity;
  ocfg.backpressure = scfg.online.backpressure;
  ocfg.retire_interval = scfg.online.retire_interval;
  ocfg.stream.max_live_reports_per_type = scfg.online.max_live_reports_per_type;
  home::online::OnlineAnalyzer analyzer(std::move(ocfg), &strings, &registry);

  SpanLog::Scope replay(spans, "online.replay");
  SpanLog::Scope feed(spans, "online.replay_feed");
  for (const Event& e : events) analyzer.on_event(e);
  const double feed_s = feed.close();
  SpanLog::Scope drain(spans, "online.replay_drain");
  analyzer.finish();
  const double drain_s = drain.close();
  (*values)["online.replay_ns_per_event"] =
      per_event_ns(replay.close(), events.size());
  (*values)["online.stream_s"] = feed_s;
  (*values)["online.drain_s"] = drain_s;
  const home::online::OnlineStats stats = analyzer.stats();
  (*values)["online.events_processed"] =
      static_cast<double>(stats.events_processed);
  (*values)["online.blocked_s"] = static_cast<double>(stats.blocked_ns) * 1e-9;
  (*values)["online.max_queue_depth"] =
      static_cast<double>(stats.max_queue_depth);
  (*values)["online.peak_resident"] = static_cast<double>(stats.peak_resident);
  (*values)["online.peak_clock_bytes"] =
      static_cast<double>(stats.peak_clock_bytes);
  (*values)["online.records_retired"] =
      static_cast<double>(stats.records_retired);
  (*values)["online.shed_events"] = static_cast<double>(stats.events_shed);
  return analyzer.violations();
}

std::set<std::string> violation_keys(
    const std::vector<home::spec::Violation>& violations) {
  std::set<std::string> keys;
  for (const home::spec::Violation& v : violations) {
    keys.insert(home::spec::violation_key(v));
  }
  return keys;
}

}  // namespace perfbench
