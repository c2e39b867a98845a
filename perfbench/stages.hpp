// The traced run's stage-by-stage decomposition.  Each stage is one call
// into a HOME module's public functions, timed by a benchmark span; nothing
// here reaches inside the modules.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "spans.hpp"
#include "src/detect/race_detector.hpp"
#include "src/home/session.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/trace_log.hpp"

namespace perfbench {

using Values = std::map<std::string, double>;

struct Staged {
  home::detect::ConcurrencyReport report;
  std::vector<home::spec::Violation> violations;
};

/// Session::analyze's post-mortem pipeline over seq-sorted events, split at
/// its public calls: RaceDetector::analyze ("detect", split into its own
/// "detect.hb" and "detect.sweep" telemetry spans), Matcher::match
/// ("spec.match"), and diagnose_violations when the session enables it
/// ("diagnose"), all under one "analysis" span.  The span's duration is
/// recorded as `staged_s`.
Staged staged_analysis(std::vector<home::trace::Event> events,
                       const home::trace::StringTable& strings,
                       const home::SessionConfig& scfg, SpanLog* spans,
                       Values* values);

/// diagnose_violations over a finished report, as Session::analyze runs it
/// (span "diagnose"; certificates are built even when `scfg` has diagnose
/// off, for workloads that measure the layer outside their checks).
void diagnose_stage(const home::detect::ConcurrencyReport& report,
                    const std::vector<home::spec::Violation>& violations,
                    const home::trace::StringTable& strings,
                    const home::SessionConfig& scfg, SpanLog* spans,
                    Values* values);

/// Write the trace through the production writers (save_trace_file and a
/// WalWriter) into `dir`, then time load_trace_file ("trace.load") and
/// salvage_wal_file ("trace.salvage").  Returns false with a reason when a
/// loader does not give back every event.
bool loader_roundtrip(const home::trace::TraceLog& log,
                      const std::vector<home::trace::Event>& events,
                      const std::string& dir, SpanLog* spans, Values* values,
                      std::string* why);

/// Feed recorded events into a fresh OnlineAnalyzer configured as a
/// session in online mode would configure it ("online.replay"): the
/// streaming layer's feed (online.stream_s), drain (online.drain_s),
/// OnlineStats and online.replay_ns_per_event.
std::vector<home::spec::Violation> online_replay(
    const std::vector<home::trace::Event>& events,
    const home::trace::StringTable& strings, const home::SessionConfig& scfg,
    SpanLog* spans, Values* values);

std::set<std::string> violation_keys(
    const std::vector<home::spec::Violation>& violations);

}  // namespace perfbench
