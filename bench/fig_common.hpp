// Shared driver for the Figure 4/5/6/7 reproductions: sweep the MPI process
// count and print one runtime row per tool, like the paper's bar charts.
// Also provides the one-JSON-object-per-line emitter the scaling benches use
// so their measurements stay machine-comparable across runs.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/toolrun.hpp"
#include "src/obs/export.hpp"
#include "src/trace/event.hpp"
#include "src/util/flags.hpp"
#include "src/util/rng.hpp"

namespace home::bench {

// ------------------------------------------------ synthetic trace builders
// Shared by bench_detect_scaling (the ISSUE-1 sweeps) and bench_obs (the
// telemetry-overhead gate), so both benches measure the same workload.

/// Barrier-phased race-free trace: in every phase each variable is written by
/// exactly one thread (rotating across phases), then all threads arrive at a
/// barrier.  Every cross-thread access pair is barrier-ordered, so there are
/// no races: the pairwise engine can never early-break on its pair cap and
/// pays the full O(k^2) vector-clock comparisons per variable — exactly the
/// NPB-style long-clean-trace shape that motivated the frontier detector.
inline std::vector<trace::Event> phased_trace(std::size_t events_per_var,
                                              int threads, int vars) {
  std::vector<trace::Event> events;
  const std::size_t phases = events_per_var;
  events.reserve(phases * static_cast<std::size_t>(threads + vars));
  trace::Seq seq = 1;
  for (std::size_t phase = 0; phase < phases; ++phase) {
    for (int v = 0; v < vars; ++v) {
      trace::Event e;
      e.seq = seq++;
      e.tid = static_cast<trace::Tid>(
          (phase + static_cast<std::size_t>(v)) %
          static_cast<std::size_t>(threads));
      e.kind = trace::EventKind::kMemWrite;
      e.obj = 100 + static_cast<trace::ObjId>(v);
      events.push_back(std::move(e));
    }
    for (int t = 0; t < threads; ++t) {
      trace::Event e;
      e.seq = seq++;
      e.tid = t;
      e.kind = trace::EventKind::kBarrier;
      e.obj = 9000 + static_cast<trace::ObjId>(phase);
      e.aux = static_cast<std::uint64_t>(threads);
      events.push_back(std::move(e));
    }
  }
  return events;
}

/// Racy variant: no barriers, mixed locksets — verdicts are non-trivial.
inline std::vector<trace::Event> racy_trace(std::size_t events_per_var,
                                            int threads, int vars,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::Event> events;
  const std::size_t total = events_per_var * static_cast<std::size_t>(vars);
  events.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    trace::Event e;
    e.seq = static_cast<trace::Seq>(i + 1);
    e.tid = static_cast<trace::Tid>(rng.next_below(
        static_cast<std::uint64_t>(threads)));
    e.kind = rng.next_bool(0.7) ? trace::EventKind::kMemWrite
                                : trace::EventKind::kMemRead;
    e.obj = 100 + rng.next_below(static_cast<std::uint64_t>(vars));
    if (rng.next_bool(0.4)) e.locks_held = {500 + rng.next_below(2)};
    events.push_back(std::move(e));
  }
  return events;
}

/// Builds one flat JSON object and prints it as a single line, e.g.
///   JsonRow("detect_scaling").field("algo", "frontier")
///       .field("events", 4000).field("seconds", 0.01).print();
/// -> {"bench":"detect_scaling","algo":"frontier","events":4000,...}
/// Values are limited to what the benches need: strings, integers, doubles.
class JsonRow {
 public:
  explicit JsonRow(const std::string& bench) {
    body_ = "{\"bench\":\"" + obs::json_escape(bench) + "\"";
  }

  JsonRow& field(const char* key, const std::string& value) {
    body_ += std::string(",\"") + key + "\":\"" + obs::json_escape(value) +
             "\"";
    return *this;
  }
  JsonRow& field(const char* key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRow& field(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    body_ += std::string(",\"") + key + "\":" + buf;
    return *this;
  }
  JsonRow& field(const char* key, std::size_t value) {
    body_ += std::string(",\"") + key + "\":" + std::to_string(value);
    return *this;
  }
  JsonRow& field(const char* key, int value) {
    body_ += std::string(",\"") + key + "\":" + std::to_string(value);
    return *this;
  }

  void print(std::FILE* out = stdout) const {
    std::fprintf(out, "%s}\n", body_.c_str());
  }

 private:
  std::string body_;
};

inline std::vector<int> process_sweep(const util::Flags& flags) {
  const int max_p = flags.get_int("max-procs", 64);
  std::vector<int> sweep;
  for (int p = 2; p <= max_p; p *= 2) sweep.push_back(p);
  return sweep;
}

/// The figure workload: clean app (no injected sleeps distorting timing),
/// sized so per-point runtimes are stable on one machine.
inline apps::AppConfig figure_config(apps::AppKind kind, int nranks,
                                     const util::Flags& flags) {
  apps::AppConfig cfg = apps::clean_config(kind, nranks);
  cfg.grid = flags.get_int("grid", 36);
  cfg.zones_per_rank = flags.get_int("zones", 2);
  cfg.iterations = flags.get_int("iters", 10);
  return cfg;
}

/// Median-of-reps runtime for one (tool, config) point.
inline double measure_seconds(apps::Tool tool, const apps::AppConfig& cfg,
                              int reps) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    times.push_back(apps::run_with_tool(tool, cfg).run_seconds);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Print one figure: rows = tools, columns = process counts.
inline void run_figure(const char* figure_name, apps::AppKind kind,
                       const util::Flags& flags) {
  const std::vector<int> sweep = process_sweep(flags);
  const int reps = flags.get_int("reps", 3);

  std::printf("=== %s: %s execution time (seconds) vs MPI processes ===\n",
              figure_name, apps::app_kind_name(kind));
  std::printf("%-8s", "procs");
  for (int p : sweep) std::printf("%10d", p);
  std::printf("\n");

  std::vector<double> base_times;
  for (apps::Tool tool : {apps::Tool::kBase, apps::Tool::kHome,
                          apps::Tool::kMarmot, apps::Tool::kItc}) {
    std::printf("%-8s", apps::tool_name(tool));
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      apps::AppConfig cfg = figure_config(kind, sweep[i], flags);
      const double seconds = measure_seconds(tool, cfg, reps);
      if (tool == apps::Tool::kBase) base_times.push_back(seconds);
      std::printf("%10.4f", seconds);
    }
    std::printf("\n");
  }

  std::printf("\n(paper shape: Base < HOME < MARMOT < ITC at every process "
              "count; HOME within ~16-45%% of Base)\n\n");
}

}  // namespace home::bench
