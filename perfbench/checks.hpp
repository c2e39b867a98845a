// The checks the benchmark issues against HOME's public entry points, one
// at a time (closed loop, one client), and the verdict oracle every check
// is judged by.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "src/apps/app.hpp"
#include "src/home/session.hpp"
#include "src/spec/violations.hpp"

namespace perfbench {

enum class Workload { kPmWide, kPmNarrow };

bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload workload);

/// What a workload fixes about every check it issues.
struct Plan {
  Workload workload = Workload::kPmWide;
  int nranks = 2;
  int nthreads = 2;
  bool injected = true;  ///< paper-injected apps; false = clean apps.
  int grid = 0;          ///< 0 = the app's default.
  int iterations = 0;    ///< 0 = the app's default.
  bool cold = false;     ///< every check runs in a fresh process.
  /// One check in this many is paired with a Base run.
  int base_stride = 1;
  /// Percentile reported as `*_tail`, chosen for the sample count a run of
  /// this workload collects.
  double tail_percentile = 90.0;
};

Plan plan_for(Workload workload);
home::apps::AppConfig app_config(const Plan& plan, home::apps::AppKind app);
home::SessionConfig session_config(const Plan& plan);

/// One check's measurements by name, its spans, and how it ended.
struct CheckRecord {
  std::map<std::string, double> values;
  std::vector<SpanRecord> spans;
  std::string failure;    ///< non-empty: the check failed (counted in `failed`).
  std::string incorrect;  ///< non-empty: a verdict or equivalence check failed.

  void mark_incorrect(const std::string& why) {
    if (incorrect.empty()) incorrect = why;
  }
  bool has(const std::string& name) const { return values.count(name) != 0; }
};

// Per-check value names shared by the checks and the aggregation.
inline constexpr const char* kCheckS = "check_s";        ///< start -> verdict.
inline constexpr const char* kAnalysisS = "analysis_s";  ///< end -> verdict.
inline constexpr const char* kEvents = "events";
inline constexpr const char* kRunS = "run.s";
inline constexpr const char* kBaseS = "run.base_s";
inline constexpr const char* kStreamRate = "stream_events_per_s";
inline constexpr const char* kRssMb = "rss_mb";
inline constexpr const char* kSetupS = "setup_s";
inline constexpr const char* kExpected = "expected_classes";
inline constexpr const char* kFound = "found_classes";
inline constexpr const char* kFalseReports = "false_reports";
inline constexpr const char* kTraced = "traced";
inline constexpr const char* kStagedS = "staged_s";        ///< traced analysis.
inline constexpr const char* kReferenceS = "reference_s";  ///< untraced, same trace.

/// Verdict oracle: every paper-injected app must report all six classes,
/// a clean app nothing, and no report may name a `bait.*` callsite.
/// Adds to the record's expected/found/false-report counts (a check may
/// judge several verdicts); marks the check incorrect on a false report or
/// when a class outside the known defect goes missing.
void judge(const Plan& plan, const std::vector<home::spec::Violation>& found,
           CheckRecord* record);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Uninstrumented Tool::kBase run of the app (`run.base_s`).
CheckRecord base_run(const Plan& plan, home::apps::AppKind app);

/// A HOME check's preparation, up to where the program would start:
/// Session construction, configure, Universe construction, attach (then
/// detach).  The cold workloads time it, from process start, as set-up.
void prepare_check(const Plan& plan, home::apps::AppKind app);

/// One HOME check: run the app under a Session, analyze, judge.  Traced
/// checks add the stage-by-stage decomposition (see stages.hpp) and compare
/// its violation keys with the untraced analysis of the same trace.
CheckRecord home_check(const Plan& plan, home::apps::AppKind app, bool traced,
                       int check_id, const std::string& work_dir);

}  // namespace perfbench
