// One-call convenience API: run a hybrid MPI/OpenMP program under HOME and
// return the violation report.  This is the entry point the examples and the
// integration tests use.
#pragma once

#include <functional>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/home/report.hpp"
#include "src/home/session.hpp"
#include "src/simmpi/universe.hpp"
#include "src/trace/trace_io.hpp"
#include "src/trace/wal.hpp"

namespace home {

struct CheckConfig {
  int nranks = 2;
  /// Default OpenMP team size handed to homp (apps may override per region).
  int nthreads = 2;
  SessionConfig session;
  /// Forwarded simmpi knobs.
  simmpi::ThreadLevel max_thread_level = simmpi::ThreadLevel::kMultiple;
  bool rendezvous_sends = false;
  int block_timeout_ms = 10000;
};

struct CheckResult {
  Report report;
  simmpi::RunResult run;
  /// Online-vs-post-mortem cross-check (ran only in AnalysisMode::kOnline
  /// with reconciliation enabled).
  Reconciliation reconciliation;
  /// Streaming-engine statistics (meaningful only in AnalysisMode::kOnline).
  online::OnlineStats online_stats;
  /// Explanation certificates (empty unless session.diagnose.enabled).
  diagnose::ProvenanceReport provenance;
};

/// Run `rank_main` on nranks rank-threads under full HOME checking.
CheckResult check_program(const CheckConfig& cfg,
                          const std::function<void(simmpi::Process&)>& rank_main);

/// One post-mortem pass: the concurrency report, the matched violations,
/// and the report statistics it determines (trace_events and the
/// monitored-variable tallies; callers add their run counters and timing).
struct PostMortem {
  detect::ConcurrencyReport concurrency;
  std::vector<spec::Violation> violations;
  ReportStats stats;
};

/// The post-mortem pipeline every analysis path runs: detect over the
/// seq-sorted `events`, then match the thread-safety spec (`strings`
/// resolves callsite labels).
PostMortem analyze_events(std::vector<trace::Event> events,
                          const trace::StringTable* strings,
                          const detect::RaceDetectorConfig& cfg);

/// Offline mode: run the detection + matching pipeline over a previously
/// saved execution log (Session::save_trace / trace::load_trace_file).
/// An rvalue trace is moved into detection, never copied.
Report analyze_trace(trace::LoadedTrace loaded,
                     const SessionConfig& cfg = {});

/// Convenience: load the trace file and analyze it.
Report analyze_trace_file(const std::string& path,
                          const SessionConfig& cfg = {});

/// Degraded-mode analysis: salvage a (possibly torn) WAL file and analyze
/// the longest valid prefix, tagging the report Verdict::kDegraded (with
/// exact damage accounting in the reasons) unless the salvage was clean.
/// `salvage_out` (may be null) receives the damage report.
Report analyze_wal_file(const std::string& path, const SessionConfig& cfg = {},
                        trace::WalSalvage* salvage_out = nullptr);

}  // namespace home
