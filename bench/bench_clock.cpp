// Clock-engine bench: production's epoch stamps and factored HbIndex frames
// vs the dense per-event vector clocks of the independent test oracle
// (tests/oracle/, the paper's O(k^2) formulation).
//
// Three experiments, each one JSON row per sweep point (stdout and
// --json-out, default BENCH_clock.json):
//   clock_micro     join/leq/== ns/op on vector clocks at 2..128 threads
//   clock_sweep     end-to-end frontier detection over the barrier-phased
//                   race-free trace (the NPB long-clean-trace shape) at 64
//                   threads vs the oracle's pairwise verdicts, each with its
//                   own HB replay timed out of the sweep figure
//   clock_resident  streamed frontier resident clock-bytes at 64 threads (one
//                   16-byte epoch Stamp per resident record) vs what the
//                   same resident records would pin as the oracle's dense
//                   clocks, on both the clean and the racy trace
//
// Modes:
//   bench_clock            full sweep (acceptance: >= 3x sweep speedup and
//                          >= 5x lower resident clock-bytes at 64 threads)
//   bench_clock --smoke    fast functional gate: verdicts equal the
//                          oracle's, epoch sweep no slower than the oracle's,
//                          resident clock-bytes >= 5x smaller; ctest runs
//                          this
//
// Knobs: --threads (default 64), --vars, --phases, --reps, --json-out.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench/fig_common.hpp"
#include "src/detect/frontier.hpp"
#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/util/flags.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "tests/oracle/oracle.hpp"

namespace {

using namespace home;

// --------------------------------------------------------------- micro ops

struct MicroTimes {
  double join_ns = 0;
  double leq_ns = 0;
  double eq_ns = 0;
  std::uint64_t sink = 0;  ///< defeats dead-code elimination; reported.
};

MicroTimes micro(int threads, int reps) {
  util::Rng rng(static_cast<std::uint64_t>(threads) * 977 + 3);
  detect::VectorClock a;
  detect::VectorClock b;
  for (int t = 0; t < threads; ++t) {
    a.set(static_cast<trace::Tid>(t), rng.next_below(1000) + 1);
    b.set(static_cast<trace::Tid>(t), rng.next_below(1000) + 1);
  }
  MicroTimes out;
  util::Stopwatch timer;
  for (int r = 0; r < reps; ++r) {
    detect::VectorClock j = a;
    j.join(b);
    out.sink += j.get(static_cast<trace::Tid>(r % threads));
  }
  out.join_ns = timer.elapsed_seconds() * 1e9 / reps;
  timer.reset();
  for (int r = 0; r < reps; ++r) {
    out.sink += a.leq(b) ? 1 : 0;
    out.sink += b.leq(a) ? 1 : 0;
  }
  out.leq_ns = timer.elapsed_seconds() * 1e9 / (2 * reps);
  timer.reset();
  for (int r = 0; r < reps; ++r) out.sink += (a == b) ? 1 : 0;
  out.eq_ns = timer.elapsed_seconds() * 1e9 / reps;
  return out;
}

// -------------------------------------------- end-to-end frontier sweep

struct SweepRun {
  double seconds = 0;
  std::size_t pairs_checked = 0;
  std::size_t epoch_hits = 0;
  bool matches_oracle = false;
};

/// Production verdicts equal the oracle's and every reported pair is racy
/// per the oracle.
bool matches_oracle(const detect::ConcurrencyReport& report,
                    const oracle::Oracle& reference) {
  const std::map<trace::ObjId, bool> expected = reference.verdicts();
  if (report.verdicts().size() != expected.size()) return false;
  for (const auto& [var, verdict] : report.verdicts()) {
    const auto it = expected.find(var);
    if (it == expected.end() || it->second != verdict.concurrent) return false;
    for (const detect::ConcurrentPair& p : verdict.pairs) {
      if (!oracle::accesses_racy(reference, p.first, p.second)) return false;
    }
  }
  return true;
}

/// The per-variable frontier sweeps alone (grouping included) over a
/// prebuilt HB index — what RaceDetector::analyze runs after its HB pass.
double frontier_sweep_seconds(const detect::HbIndex& hb) {
  util::Stopwatch timer;
  std::map<trace::ObjId, std::vector<std::size_t>> by_var;
  for (std::size_t i = 0; i < hb.events().size(); ++i) {
    if (hb.events()[i].is_access()) by_var[hb.events()[i].obj].push_back(i);
  }
  const detect::RaceDetectorConfig cfg;
  std::size_t pairs = 0;
  for (const auto& [var, indices] : by_var) {
    pairs += detect::frontier_sweep_variable(hb, cfg, var, indices).pairs.size();
  }
  const double seconds = timer.elapsed_seconds();
  volatile std::size_t sink = pairs;  // keep the sweeps observable.
  (void)sink;
  return seconds;
}

SweepRun run_sweep(const std::vector<trace::Event>& events,
                   const oracle::Oracle& reference) {
  detect::RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;  // serial: measure the engine, not the pool.
  util::Stopwatch timer;
  const detect::ConcurrencyReport report =
      detect::RaceDetector(cfg).analyze(events);
  SweepRun run;
  run.seconds = timer.elapsed_seconds();
  for (const auto& [var, verdict] : report.verdicts()) {
    run.pairs_checked += verdict.pairs_checked;
    run.epoch_hits += verdict.epoch_hits;
  }
  run.matches_oracle = matches_oracle(report, reference);
  return run;
}

/// Oracle timings: its dense HB replay and its pairwise verdict pass.
struct OracleRun {
  double replay_seconds = 0;
  double verdict_seconds = 0;
};

OracleRun run_oracle(const std::vector<trace::Event>& events) {
  OracleRun run;
  util::Stopwatch timer;
  const oracle::Oracle reference(events, detect::DetectorMode::kHybrid);
  run.replay_seconds = timer.elapsed_seconds();
  timer.reset();
  std::size_t racy = 0;
  for (const auto& [var, concurrent] : reference.verdicts()) {
    racy += concurrent ? 1 : 0;
  }
  run.verdict_seconds = timer.elapsed_seconds();
  volatile std::size_t sink = racy;  // keep the verdict pass observable.
  (void)sink;
  return run;
}

// ---------------------------------------- streamed resident clock-bytes

struct ResidentRun {
  /// Resident records priced as their retained epochs.
  std::size_t peak_frontier_clock_bytes = 0;
  /// The same resident records priced as the oracle's dense clocks (one
  /// private full clock per record).
  std::size_t peak_dense_clock_bytes = 0;
  std::size_t peak_hb_clock_bytes = 0;
  std::size_t racy_pairs = 0;
};

ResidentRun run_resident(const std::vector<trace::Event>& events, int threads,
                         std::size_t retire_every) {
  const oracle::Oracle dense(events, detect::DetectorMode::kHybrid);
  detect::IncrementalHb hb;
  for (int t = 0; t < threads; ++t) hb.declare_thread(static_cast<trace::Tid>(t));
  detect::RaceDetectorConfig cfg;
  detect::IncrementalFrontier frontier(cfg);
  ResidentRun run;
  // Every record handed to the frontier, by event index; a record is
  // resident exactly while the frontier still holds it.
  std::vector<std::pair<std::weak_ptr<const detect::OnlineAccess>, std::size_t>>
      records;
  auto sample = [&] {
    run.peak_frontier_clock_bytes =
        std::max(run.peak_frontier_clock_bytes,
                 frontier.resident_records() * sizeof(detect::Stamp));
    run.peak_hb_clock_bytes =
        std::max(run.peak_hb_clock_bytes, hb.resident_clock_bytes());
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [](const auto& r) { return r.first.expired(); }),
                  records.end());
    std::size_t dense_bytes = 0;
    for (const auto& r : records) {
      dense_bytes +=
          dense.clock(r.second).heap_bytes() + sizeof(detect::VectorClock);
    }
    run.peak_dense_clock_bytes =
        std::max(run.peak_dense_clock_bytes, dense_bytes);
  };
  std::vector<detect::IncrementalFrontier::PairHit> hits;
  std::size_t since_retire = 0;
  std::size_t since_sample = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    const detect::StampView stamp = hb.advance(e);
    if (e.is_access()) {
      auto rec = std::make_shared<detect::OnlineAccess>();
      rec->seq = e.seq;
      rec->tid = e.tid;
      rec->write = e.is_write();
      rec->locks = e.locks_held;
      records.emplace_back(rec, i);
      frontier.on_access(e.obj, std::move(rec), stamp, &hits);
      run.racy_pairs += hits.size();
      hits.clear();
    }
    if (++since_sample >= 64) {  // sampling cadence mirrors OnlineAnalyzer.
      since_sample = 0;
      sample();
    }
    if (retire_every != 0 && ++since_retire >= retire_every) {
      since_retire = 0;
      detect::VectorClock wm;
      if (hb.watermark(&wm)) {
        frontier.retire(wm);
        hb.retire(wm);
      }
    }
  }
  sample();  // catch the final state too (short traces may miss the cadence).
  return run;
}

// ------------------------------------------------------------------ main

struct Output {
  std::FILE* json = nullptr;  ///< BENCH_clock.json (always written).
  bool echo = false;          ///< also echo rows to stdout (full mode).

  void emit(const bench::JsonRow& row) const {
    if (json != nullptr) row.print(json);
    if (echo) row.print();
  }
};

void micro_rows(const Output& out, int reps) {
  for (int threads = 2; threads <= 128; threads *= 2) {
    const MicroTimes t = micro(threads, reps);
    bench::JsonRow row("clock_micro");
    row.field("threads", threads)
        .field("join_ns", t.join_ns)
        .field("leq_ns", t.leq_ns)
        .field("eq_ns", t.eq_ns)
        .field("sink", t.sink);
    out.emit(row);
  }
}

/// Emits the sweep + resident rows; returns oracle_sweep / epoch_sweep.
double engine_rows(const Output& out, int threads, int vars,
                   std::size_t phases, int reps, bool* verdicts_equal,
                   std::size_t* epoch_bytes, std::size_t* dense_bytes) {
  const std::vector<trace::Event> clean =
      bench::phased_trace(phases, threads, vars);
  const oracle::Oracle reference(clean, detect::DetectorMode::kHybrid);

  SweepRun epoch;
  OracleRun dense;
  epoch.seconds = dense.replay_seconds = dense.verdict_seconds = 1e100;
  // Each side's HB replay is timed apart from its sweep, so the ratio
  // isolates the sweep the gate is about.  analyze() under kHybrid uses the
  // default HB config.
  double hb_seconds = 1e100;
  double epoch_sweep = 1e100;
  for (int r = 0; r < reps; ++r) {
    const SweepRun e = run_sweep(clean, reference);
    if (e.seconds < epoch.seconds) epoch = e;
    const OracleRun o = run_oracle(clean);
    dense.replay_seconds = std::min(dense.replay_seconds, o.replay_seconds);
    dense.verdict_seconds = std::min(dense.verdict_seconds, o.verdict_seconds);
    util::Stopwatch timer;
    const detect::HbIndex hb =
        detect::HappensBeforeAnalysis().run(std::vector<trace::Event>(clean));
    hb_seconds = std::min(hb_seconds, timer.elapsed_seconds());
    epoch_sweep = std::min(epoch_sweep, frontier_sweep_seconds(hb));
  }
  *verdicts_equal = epoch.matches_oracle;
  const double oracle_sweep = dense.verdict_seconds;
  const double speedup = oracle_sweep / epoch_sweep;
  const double oracle_seconds = dense.replay_seconds + dense.verdict_seconds;
  {
    bench::JsonRow row("clock_sweep");
    row.field("threads", threads)
        .field("vars", vars)
        .field("events", clean.size())
        .field("epoch_seconds", epoch.seconds)
        .field("oracle_seconds", oracle_seconds)
        .field("hb_seconds", hb_seconds)
        .field("oracle_hb_seconds", dense.replay_seconds)
        .field("epoch_sweep_seconds", epoch_sweep)
        .field("oracle_sweep_seconds", oracle_sweep)
        .field("total_speedup", oracle_seconds / epoch.seconds)
        .field("sweep_speedup", speedup)
        .field("pairs_checked", epoch.pairs_checked)
        .field("epoch_hits", epoch.epoch_hits)
        .field("verdicts_equal", *verdicts_equal ? 1 : 0);
    out.emit(row);
  }

  // Resident clock bytes: the clean stream is the headline (epoch keeps
  // 16-byte stamps; a dense clock per record pins O(threads) bytes), the
  // racy stream shows the same under real concurrency.
  const ResidentRun clean_run = run_resident(clean, threads, 256);
  *epoch_bytes = clean_run.peak_frontier_clock_bytes;
  *dense_bytes = clean_run.peak_dense_clock_bytes;
  {
    bench::JsonRow row("clock_resident");
    row.field("workload", "phased")
        .field("threads", threads)
        .field("events", clean.size())
        .field("epoch_clock_bytes", clean_run.peak_frontier_clock_bytes)
        .field("dense_clock_bytes", clean_run.peak_dense_clock_bytes)
        .field("hb_clock_bytes", clean_run.peak_hb_clock_bytes);
    out.emit(row);
  }
  const std::vector<trace::Event> racy =
      bench::racy_trace(phases, threads, vars, /*seed=*/11);
  const ResidentRun racy_run = run_resident(racy, threads, 256);
  {
    bench::JsonRow row("clock_resident");
    row.field("workload", "racy")
        .field("threads", threads)
        .field("events", racy.size())
        .field("epoch_clock_bytes", racy_run.peak_frontier_clock_bytes)
        .field("dense_clock_bytes", racy_run.peak_dense_clock_bytes)
        .field("hb_clock_bytes", racy_run.peak_hb_clock_bytes)
        .field("racy_pairs", racy_run.racy_pairs);
    out.emit(row);
  }
  return speedup;
}

/// Post-mortem HbIndex stamp store: a frame (the stamp with the own
/// component zeroed) is copied only when the thread's frame generation
/// moves, so a thread's event run between sync edges shares one frame.  The
/// workload has compute-bound phases (many accesses per thread per barrier),
/// the regime real programs live in; hb_dense_stamp_bytes is what the same
/// stamps cost as private full clocks.  Returns dense/factored.
double hb_index_row(const Output& out, int threads) {
  const std::vector<trace::Event> events =
      bench::phased_trace(/*events_per_var=*/16, threads,
                          /*vars=*/threads * 32);
  const detect::HbIndex hb =
      detect::HappensBeforeAnalysis().run(std::vector<trace::Event>(events));
  const std::size_t factored = hb.stamp_bytes();
  const std::size_t dense = hb.dense_stamp_bytes();
  const double ratio = factored > 0 ? static_cast<double>(dense) /
                                          static_cast<double>(factored)
                                    : 0.0;
  bench::JsonRow row("clock_hb_index");
  row.field("threads", threads)
      .field("events", events.size())
      .field("hb_dense_stamp_bytes", dense)
      .field("hb_clock_bytes", factored)
      .field("bytes_ratio", ratio);
  out.emit(row);
  return ratio;
}

int smoke(const Output& out) {
  // Small but still 64-wide: the acceptance shape at CI-friendly size.
  bool verdicts_equal = false;
  std::size_t epoch_bytes = 0;
  std::size_t dense_bytes = 0;
  const double speedup = engine_rows(out, /*threads=*/64, /*vars=*/8,
                                     /*phases=*/64, /*reps=*/3,
                                     &verdicts_equal, &epoch_bytes,
                                     &dense_bytes);
  if (!verdicts_equal) {
    std::fprintf(stderr, "smoke: verdicts or pairs disagree with the oracle\n");
    return 1;
  }
  // Regression gate: the epoch sweep must never be slower than the oracle's
  // dense pairwise pass.  The 3x acceptance number is asserted on the full
  // run where timing noise is amortized; here we allow 10% jitter.
  if (speedup < 0.9) {
    std::fprintf(stderr, "smoke: epoch sweep regressed vs oracle (%.2fx)\n",
                 speedup);
    return 1;
  }
  if (epoch_bytes * 5 > dense_bytes) {
    std::fprintf(stderr,
                 "smoke: epoch resident clock-bytes not 5x smaller "
                 "(%zu vs %zu)\n",
                 epoch_bytes, dense_bytes);
    return 1;
  }
  const double hb_ratio = hb_index_row(out, /*threads=*/16);
  if (hb_ratio < 2.0) {
    std::fprintf(stderr,
                 "smoke: factored HbIndex stamps not 2x smaller than dense "
                 "(%.2fx)\n",
                 hb_ratio);
    return 1;
  }
  std::printf(
      "bench_clock --smoke: OK (sweep %.2fx vs oracle, resident %zu vs %zu "
      "dense bytes, hb index %.1fx smaller factored)\n",
      speedup, epoch_bytes, dense_bytes, hb_ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const std::string json_path = flags.get("json-out", "BENCH_clock.json");
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "bench_clock: cannot write %s\n", json_path.c_str());
    return 1;
  }
  Output out;
  out.json = json;

  int status = 0;
  if (flags.get_bool("smoke", false)) {
    status = smoke(out);
  } else {
    out.echo = true;
    micro_rows(out, flags.get_int("reps", 200000));
    bool verdicts_equal = false;
    std::size_t epoch_bytes = 0;
    std::size_t dense_bytes = 0;
    const double speedup = engine_rows(
        out, flags.get_int("threads", 64), flags.get_int("vars", 8),
        static_cast<std::size_t>(flags.get_int("phases", 256)),
        flags.get_int("reps-sweep", 3), &verdicts_equal, &epoch_bytes,
        &dense_bytes);
    if (!verdicts_equal) {
      std::fprintf(stderr, "bench_clock: production disagrees with oracle\n");
      status = 1;
    }
    // Acceptance: >= 3x sweep speedup, >= 5x lower clock-bytes.
    if (speedup < 3.0) {
      std::fprintf(stderr, "bench_clock: sweep speedup %.2fx < 3x\n", speedup);
      status = 1;
    }
    if (epoch_bytes * 5 > dense_bytes) {
      std::fprintf(stderr, "bench_clock: clock-bytes ratio below 5x\n");
      status = 1;
    }
    if (hb_index_row(out, flags.get_int("threads", 64)) < 2.0) {
      std::fprintf(stderr, "bench_clock: factored HbIndex ratio below 2x\n");
      status = 1;
    }
  }
  std::fclose(json);
  return status;
}
