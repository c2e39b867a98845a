// perfbench_driver: HOME's end-to-end benchmark.
//
//   perfbench_driver --workload pm-wide|pm-narrow
//                    --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// One client issues one check at a time (closed loop) for S seconds and
// judges every verdict against the app's known answer.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1).  The lines before it are the same numbers for
// people, plus the counts the JSON carries only through `correct` and
// `failed` (false reports, failed ratio).  See NOTES.md for what each
// workload and metric means.
//
// The cold workload (pm-wide) runs every check in a fresh child
// process (`--child ...`, an internal mode), so no check inherits the clock
// arena or allocator state of an earlier one.  The whole run is pinned to
// one CPU, and checks that ran while the hypervisor stole from that CPU are
// left out of the timings (see pin_to_one_cpu and StealWatch).
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

extern char** environ;

namespace perfbench {
namespace {

using home::apps::AppKind;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names and units).
constexpr Metric kEndToEnd[] = {
    {"check_s_p50", "s"},          {"check_s_tail", "s"},
    {"analysis_s_p50", "s"},       {"analysis_s_tail", "s"},
    {"analysis_ns_per_event", "ns"}, {"run_overhead_x", "x"},
    {"stream_events_per_s", "1/s"}, {"peak_rss_mb", "MB"},
    {"verdict_recall", "ratio"},   {"setup_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"run.s", "s"},
    {"run.base_s", "s"},
    {"run.ns_per_event", "ns"},
    {"run.events", "count"},
    {"run.instrumented_calls", "count"},
    {"run.skipped_calls", "count"},
    {"run.tids", "count"},
    {"trace.sort_s", "s"},
    {"trace.load_s", "s"},
    {"trace.load_ns_per_event", "ns"},
    {"trace.salvage_s", "s"},
    {"trace.salvage_ns_per_event", "ns"},
    {"detect.hb_s", "s"},
    {"detect.hb_ns_per_event", "ns"},
    {"detect.hb_stamp_bytes", "bytes"},
    {"detect.hb_dense_bytes", "bytes"},
    {"clock.arena_resident_bytes", "bytes"},
    {"detect.sweep_s", "s"},
    {"detect.vars_swept", "count"},
    {"detect.pairs_checked", "count"},
    {"detect.pairs_found", "count"},
    {"detect.pair_yield", "ratio"},
    {"detect.epoch_hits", "count"},
    {"spec.match_s", "s"},
    {"spec.violations", "count"},
    {"diagnose.s", "s"},
    {"diagnose.certificates", "count"},
    {"diagnose.us_per_certificate", "us"},
    {"online.stream_s", "s"},
    {"online.drain_s", "s"},
    {"online.events_processed", "count"},
    {"online.blocked_s", "s"},
    {"online.max_queue_depth", "count"},
    {"online.peak_resident", "count"},
    {"online.peak_clock_bytes", "bytes"},
    {"online.records_retired", "count"},
    {"online.shed_events", "count"},
    {"online.replay_ns_per_event", "ns"},
    {"analysis.self_s", "s"},
    {"bench.trace_overhead_x", "x"},
};

/// Set-up rounds per run for the warm workload, each one unmeasured check
/// of every app (the median round is reported as setup_s).  The first ~100
/// checks of a fresh process run ~10% faster than later ones, while its
/// clock arena and heap fill, so the rounds also carry the process past
/// that drift before timing starts.
constexpr int kSetupRounds = 35;
/// Cold check preparations timed before a cold run's first check, and after
/// each of its checks; the median of all is its setup_s.  Spread over the
/// run, because the figure follows the host's speed, which drifts within
/// seconds.
constexpr int kStartProbes = 10;
constexpr int kProbesPerCheck = 2;
/// A warm process's peak RSS is read after this many measured checks, so
/// state a long-lived process accumulates per check does not make the
/// figure depend on how many checks a run managed.
constexpr std::size_t kRssChecks = 200;
/// Checks that ran while the hypervisor stole more than this share of the
/// benchmark's CPU are left out of the timing statistics.
constexpr double kStealLimit = 0.05;
/// Steal is read from /proc/stat in 10 ms ticks, so it is judged over
/// windows of at least this long.
constexpr double kStealWindowS = 0.5;
/// Per-check flag: the check ran inside a window over kStealLimit.
constexpr const char* kDisturbed = "disturbed";
/// A child check that has not answered by then is killed and counted failed.
constexpr int kChildTimeoutSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  // Child mode.
  std::string child;  ///< "start" | "base" | "home"
  std::string app;
  int check = 0;
  std::int64_t spawn_ns = 0;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::stoull(value);
    else if (key == "--seconds") args->seconds = std::stod(value);
    else if (key == "--trace") args->trace = value == "1";
    else if (key == "--work-dir") args->work_dir = value;
    else if (key == "--child") args->child = value;
    else if (key == "--app") args->app = value;
    else if (key == "--check") args->check = std::stoi(value);
    else if (key == "--spawn-ns") args->spawn_ns = std::stoll(value);
    else return false;
  }
  return argc % 2 == 1;
}

const char* app_flag(AppKind app) {
  switch (app) {
    case AppKind::kLU: return "lu";
    case AppKind::kBT: return "bt";
    case AppKind::kSP: return "sp";
  }
  return "?";
}

bool parse_app(const std::string& name, AppKind* out) {
  for (AppKind app : {AppKind::kLU, AppKind::kBT, AppKind::kSP}) {
    if (name == app_flag(app)) {
      *out = app;
      return true;
    }
  }
  return false;
}

/// The seed fixes the order the checks cycle through lu/bt/sp.
std::vector<AppKind> app_order(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;  // splitmix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  std::vector<AppKind> order = {AppKind::kLU, AppKind::kBT, AppKind::kSP};
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(z % (i + 1))]);
    z /= i + 1;
  }
  return order;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Per-CPU ticks not spent idle (busy or stolen) so far, from /proc/stat.
std::map<int, double> cpu_busy_ticks() {
  std::map<int, double> busy;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    double total = 0;
    double idle = 0;
    fields >> cpu;
    for (int k = 0; k < 8; ++k) {
      double v = 0;
      fields >> v;
      total += v;
      if (k == 3 || k == 4) idle += v;  // idle, iowait
    }
    if (fields) busy[cpu] = total - idle;
  }
  return busy;
}

/// Pin this process, and every thread and check process it starts, to one
/// CPU: of the CPUs it may use, the one least busy over a short look.
/// Returns that CPU, or -1 when the affinity cannot be set.
///
/// On a shared host, a 640-thread run spread over four vCPUs slowed 2.5x
/// whenever the hypervisor stole ~18% of the machine (a preempted vCPU
/// stalls the threads waiting on it), while a one-vCPU phase slowed ~10%.
/// One CPU also keeps the figures comparable across machine sizes.  What it
/// hides: the detector's parallel sweep runs its workers in turn, and the
/// online analyzer's consumer thread cannot overlap its feed (see NOTES.md).
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  const std::map<int, double> before = cpu_busy_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::map<int, double> after = cpu_busy_ticks();
  int cpu = -1;
  double least = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &set)) continue;
    const auto b = before.find(c);
    const auto a = after.find(c);
    const double busy =
        a != after.end() && b != before.end() ? a->second - b->second : 0.0;
    if (cpu < 0 || busy < least) {
      cpu = c;
      least = busy;
    }
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Hypervisor steal time so far of one CPU (or, for cpu < 0, of all CPUs
/// together), in seconds; 0 where the kernel does not report it.
double steal_seconds(int cpu) {
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string name;
    double v[8] = {};
    fields >> name;
    if (name != want) continue;
    for (double& f : v) fields >> f;
    return fields ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
  }
  return 0.0;
}

/// Share of the benchmark's CPU time the hypervisor stole since `start`.
class StealClock {
 public:
  explicit StealClock(int cpu)
      : cpu_(cpu),
        cpus_(cpu >= 0 ? 1 : std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))) {
    restart();
  }
  void restart() {
    start_ns_ = now_ns();
    start_steal_ = steal_seconds(cpu_);
  }
  double elapsed_s() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }
  double share() const {
    return (steal_seconds(cpu_) - start_steal_) /
           (std::max(elapsed_s(), 1e-9) * static_cast<double>(cpus_));
  }

 private:
  int cpu_;
  long cpus_;
  std::int64_t start_ns_ = 0;
  double start_steal_ = 0.0;
};

/// Marks the checks that ran while the hypervisor stole from the benchmark.
class StealWatch {
 public:
  explicit StealWatch(int cpu) : clock_(cpu) {}

  /// Call after each check; judges the window once it is long enough.
  void after_check(std::vector<CheckRecord>* checks, bool last) {
    if (clock_.elapsed_s() < kStealWindowS && !last) return;
    const double share = clock_.share();
    for (std::size_t k = first_; k < checks->size(); ++k) {
      (*checks)[k].values["steal_share"] = share;
      if (share > kStealLimit) (*checks)[k].values[kDisturbed] = 1;
    }
    first_ = checks->size();
    clock_.restart();
  }

 private:
  StealClock clock_;
  std::size_t first_ = 0;
};

// ------------------------------------------------ child checks (cold mode)

void print_record(const CheckRecord& record) {
  for (const auto& [name, value] : record.values) {
    std::printf("V %s %s\n", name.c_str(), format_number(value).c_str());
  }
  for (const SpanRecord& s : record.spans) {
    std::printf("S %d %d %lld %lld %s\n", s.check, s.parent,
                static_cast<long long>(s.start_ns),
                static_cast<long long>(s.end_ns), s.name.c_str());
  }
  // One line each: rank error messages may span several.
  auto one_line = [](std::string text) {
    std::replace(text.begin(), text.end(), '\n', ' ');
    return text;
  };
  if (!record.failure.empty()) {
    std::printf("F %s\n", one_line(record.failure).c_str());
  }
  if (!record.incorrect.empty()) {
    std::printf("I %s\n", one_line(record.incorrect).c_str());
  }
}

int child_main(const Args& args) {
  const std::int64_t main_ns = now_ns();
  Workload workload;
  AppKind app;
  if (!parse_workload(args.workload, &workload) || !parse_app(args.app, &app)) {
    std::fprintf(stderr, "child: bad workload or app\n");
    return 2;
  }
  const Plan plan = plan_for(workload);
  CheckRecord record;
  // "start" reports how long a check process takes from its start until
  // its program could run; the other modes, until main.
  std::int64_t ready_ns = main_ns;
  try {
    if (args.child == "start") {
      prepare_check(plan, app);
      ready_ns = now_ns();
    } else if (args.child == "base") {
      record = base_run(plan, app);
    } else if (args.child == "home") {
      record = home_check(plan, app, args.trace, args.check, args.work_dir);
    }
  } catch (const std::exception& e) {
    record.failure = std::string("exception: ") + e.what();
  }
  record.values[kSetupS] = static_cast<double>(ready_ns - args.spawn_ns) * 1e-9;
  record.values[kRssMb] = peak_rss_mb();
  print_record(record);
  std::fflush(stdout);
  return 0;
}

CheckRecord parse_record(const std::string& output) {
  CheckRecord record;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    std::istringstream fields(line.substr(2));
    switch (line[0]) {
      case 'V': {
        std::string name;
        double value = 0;
        fields >> name >> value;
        record.values[name] = value;
        break;
      }
      case 'S': {
        SpanRecord s;
        long long start = 0;
        long long end = 0;
        fields >> s.check >> s.parent >> start >> end >> s.name;
        s.start_ns = start;
        s.end_ns = end;
        record.spans.push_back(s);
        break;
      }
      case 'F': record.failure = line.substr(2); break;
      case 'I': record.incorrect = line.substr(2); break;
      default: break;
    }
  }
  return record;
}

/// Run one check in a fresh process of this binary; waits for it to end.
CheckRecord spawn_check(const Args& args, const std::string& kind, AppKind app,
                        int check) {
  CheckRecord failed;
  int fds[2];
  if (pipe(fds) != 0) {
    failed.failure = std::string("pipe: ") + std::strerror(errno);
    return failed;
  }
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::int64_t spawn_ns = now_ns();
  std::vector<std::string> argv_s = {
      self,           "--child",    kind,
      "--workload",   args.workload, "--app",
      app_flag(app),  "--check",    std::to_string(check),
      "--trace",      args.trace ? "1" : "0",
      "--work-dir",   args.work_dir, "--spawn-ns",
      std::to_string(spawn_ns)};
  std::vector<char*> argv_c;
  for (std::string& s : argv_s) argv_c.push_back(s.data());
  argv_c.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                             argv_c.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    failed.failure = std::string("posix_spawn: ") + std::strerror(rc);
    return failed;
  }

  std::string output;
  bool timed_out = false;
  const std::int64_t deadline = spawn_ns + kChildTimeoutSeconds * 1000000000LL;
  char buf[65536];
  for (;;) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  CheckRecord record = parse_record(output);
  if (timed_out) {
    record.failure = "timeout after " + std::to_string(kChildTimeoutSeconds) + " s";
  } else if (WIFSIGNALED(status)) {
    record.failure = "child killed by signal " + std::to_string(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    record.failure = "child exited with status " + std::to_string(WEXITSTATUS(status));
  } else if (!record.has(kSetupS)) {
    record.failure = "child printed no result";
  }
  return record;
}

// ------------------------------------------------------------ aggregation

/// NaN for an empty sample: a metric nothing measured fails the run.
double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::vector<double> collect(const std::vector<CheckRecord>& records,
                            const std::string& name) {
  std::vector<double> out;
  for (const CheckRecord& r : records) {
    auto it = r.values.find(name);
    if (it != r.values.end()) out.push_back(it->second);
  }
  return out;
}

/// Median per check of numerator/denominator; every record carries both
/// (see having).
double median_ratio(const std::vector<CheckRecord>& records,
                    const std::string& num, const std::string& den) {
  std::vector<double> ratios;
  for (const CheckRecord& r : records) {
    ratios.push_back(r.values.at(num) / r.values.at(den));
  }
  return median(ratios);
}

/// The records that carry both values, with a positive denominator.
std::vector<CheckRecord> having(const std::vector<CheckRecord>& records,
                                const std::string& num, const std::string& den) {
  std::vector<CheckRecord> out;
  for (const CheckRecord& r : records) {
    if (r.has(num) && r.has(den) && r.values.at(den) > 0) out.push_back(r);
  }
  return out;
}

struct RunData {
  Plan plan;
  std::vector<CheckRecord> checks;    ///< measured checks.
  std::vector<double> setup_samples;  ///< set-up rounds or start probes.
  int cpu = -1;  ///< the CPU the run is pinned to (-1: not pinned).
  std::size_t setup_attempts = 0;  ///< set-up checks and start probes.
  std::size_t setup_failures = 0;
  double process_rss_mb = 0.0;
};

/// The checks whose timings count: those no steal window disturbed, unless
/// fewer than a tenth of the checks are left.
std::vector<CheckRecord> undisturbed(const std::vector<CheckRecord>& checks) {
  std::vector<CheckRecord> kept;
  for (const CheckRecord& r : checks) {
    if (!r.has(kDisturbed)) kept.push_back(r);
  }
  return kept.empty() || 10 * kept.size() < checks.size() ? checks : kept;
}

std::map<std::string, double> end_to_end(const RunData& run,
                                         const std::vector<CheckRecord>& all_ok) {
  std::map<std::string, double> m;
  const double p = run.plan.tail_percentile;
  const std::vector<CheckRecord> ok = undisturbed(all_ok);
  m["check_s_p50"] = median(collect(ok, kCheckS));
  m["check_s_tail"] = percentile(collect(ok, kCheckS), p);
  m["analysis_s_p50"] = median(collect(ok, kAnalysisS));
  m["analysis_s_tail"] = percentile(collect(ok, kAnalysisS), p);
  std::vector<double> ns_per_event;
  for (const CheckRecord& r : ok) {
    ns_per_event.push_back(r.values.at(kAnalysisS) * 1e9 /
                           std::max(r.values.at(kEvents), 1.0));
  }
  m["analysis_ns_per_event"] = median(ns_per_event);
  // Only some checks are paired with a Base run; the steal filter applies
  // to those on their own, so a burst cannot leave none of them.
  m["run_overhead_x"] =
      median_ratio(undisturbed(having(all_ok, kRunS, kBaseS)), kRunS, kBaseS);
  m["stream_events_per_s"] = median(collect(ok, kStreamRate));
  m["peak_rss_mb"] =
      run.plan.cold ? median(collect(all_ok, kRssMb)) : run.process_rss_mb;
  double expected = 0;
  double found = 0;
  for (const CheckRecord& r : all_ok) {
    expected += r.values.at(kExpected);
    found += r.values.at(kFound);
  }
  m["verdict_recall"] = expected > 0 ? found / expected : 1.0;
  m["setup_s"] = median(run.setup_samples);
  return m;
}

std::map<std::string, double> per_layer(const RunData& run,
                                        const std::vector<CheckRecord>& ok) {
  std::map<std::string, double> m;
  for (const Metric& metric : kPerLayer) {
    const std::vector<double> v = collect(ok, metric.name);
    if (!v.empty()) m[metric.name] = median(v);
  }
  std::vector<CheckRecord> traced;
  std::vector<CheckRecord> untraced;
  for (const CheckRecord& r : ok) {
    (r.has(kTraced) && r.values.at(kTraced) > 0 ? traced : untraced).push_back(r);
  }
  // The cold workload compares the staged pipeline of traced checks with
  // the plain checks' Session::analyze (a process's first analysis is its
  // only cold one).  The warm workload times the staged and the untraced
  // analysis of the same trace.
  m["bench.trace_overhead_x"] =
      median(collect(traced, kStagedS)) /
      median(collect(run.plan.cold ? untraced : traced, kReferenceS));
  return m;
}

void print_table(const char* title, const Metric* metrics, std::size_t n,
                 const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = values.find(metrics[i].name);
    std::printf("  %-30s %18s %s\n", metrics[i].name,
                it == values.end() ? "missing" : format_number(it->second).c_str(),
                metrics[i].unit);
  }
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const Metric* metrics, std::size_t n,
                        const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << format_number(values.at(metrics[i].name)) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// ------------------------------------------------------------- workloads

CheckRecord merge_base(CheckRecord check, const CheckRecord& base) {
  if (!base.failure.empty() && check.failure.empty()) {
    check.failure = "base run: " + base.failure;
  }
  if (base.has(kBaseS)) check.values[kBaseS] = base.values.at(kBaseS);
  return check;
}

/// One paired check: the Base run and the HOME check of one app, in an
/// order that alternates so neither side always runs second.
CheckRecord paired_check(const Args& args, const Plan& plan, AppKind app, int i) {
  auto base = [&] {
    return plan.cold ? spawn_check(args, "base", app, i) : base_run(plan, app);
  };
  auto home = [&] {
    return plan.cold ? spawn_check(args, "home", app, i)
                     : home_check(plan, app, args.trace, i, args.work_dir);
  };
  // Cold checks pair a Base run with one check in `base_stride`, rotating
  // through the apps, so more of the run goes to HOME checks.
  const int stride = plan.base_stride;
  if ((i / stride) % stride != i % stride) return home();
  if (i % 2 == 0) {
    const CheckRecord b = base();
    return merge_base(home(), b);
  }
  CheckRecord h = home();
  return merge_base(std::move(h), base());
}

/// Time `count` cold check preparations, each in a fresh process, cycling
/// through the apps (see prepare_check).
void probe_starts(const Args& args, const std::vector<AppKind>& order,
                  int count, RunData* run) {
  for (int k = 0; k < count; ++k) {
    const int probe = static_cast<int>(run->setup_attempts);
    const CheckRecord r =
        spawn_check(args, "start", order[static_cast<std::size_t>(probe) %
                                         order.size()], probe);
    ++run->setup_attempts;
    if (!r.failure.empty()) {
      ++run->setup_failures;
      continue;
    }
    run->setup_samples.push_back(r.values.at(kSetupS));
  }
}

void set_up(const Args& args, const std::vector<AppKind>& order, RunData* run) {
  const Plan& plan = run->plan;
  if (plan.cold) {
    probe_starts(args, order, kStartProbes, run);
    return;
  }
  std::vector<double> disturbed;
  for (int round = 0; round < kSetupRounds; ++round) {
    StealClock steal(run->cpu);
    // Warm the long-lived process: one check of each app, unmeasured.
    for (AppKind app : order) {
      ++run->setup_attempts;
      if (!paired_check(args, plan, app, round).failure.empty()) {
        ++run->setup_failures;
      }
    }
    const double seconds = steal.elapsed_s();
    (steal.share() > kStealLimit ? disturbed : run->setup_samples)
        .push_back(seconds);
  }
  if (run->setup_samples.empty()) run->setup_samples = disturbed;
}

CheckRecord measured_check(const Args& args, const RunData& run,
                           const std::vector<AppKind>& order, int i) {
  try {
    return paired_check(args, run.plan,
                        order[static_cast<std::size_t>(i) % order.size()], i);
  } catch (const std::exception& e) {
    CheckRecord failed;
    failed.failure = std::string("exception: ") + e.what();
    return failed;
  }
}

/// Every check's values, one line per check, next to the span dump.
void write_checks(const Args& args, const std::vector<CheckRecord>& checks) {
  const std::string path = args.work_dir + "/checks-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".tsv";
  std::ofstream out(path);
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out << i;
    for (const auto& [name, value] : checks[i].values) {
      out << '\t' << name << '=' << format_number(value);
    }
    if (!checks[i].failure.empty()) out << "\tfailure=" << checks[i].failure;
    out << '\n';
  }
}

int driver_main(const Args& args) {
  Workload workload;
  if (!parse_workload(args.workload, &workload)) {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  RunData run;
  run.plan = plan_for(workload);
  run.cpu = pin_to_one_cpu();
  const std::vector<AppKind> order = app_order(args.seed);

  try {
    set_up(args, order, &run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // Whole cycles only, so every app has the same share of the checks
  // whatever the seed's order.
  const int cycle = static_cast<int>(order.size());
  StealWatch steal(run.cpu);
  int i = 0;
  bool more = true;
  while (more) {
    run.checks.push_back(measured_check(args, run, order, i++));
    if (run.plan.cold) probe_starts(args, order, kProbesPerCheck, &run);
    more = now_ns() < deadline || i % cycle != 0;
    steal.after_check(&run.checks, !more);
    if (run.checks.size() == kRssChecks) run.process_rss_mb = peak_rss_mb();
  }
  if (run.checks.size() < kRssChecks) run.process_rss_mb = peak_rss_mb();
  write_checks(args, run.checks);

  std::vector<CheckRecord> ok;
  std::size_t failed = run.setup_failures;
  bool correct = true;
  double false_reports = 0;
  for (const CheckRecord& r : run.checks) {
    if (!r.failure.empty()) {
      ++failed;
      std::printf("failed check: %s\n", r.failure.c_str());
      continue;
    }
    if (!r.incorrect.empty()) {
      correct = false;
      std::printf("incorrect check: %s\n", r.incorrect.c_str());
    }
    false_reports += r.values.count(kFalseReports) ? r.values.at(kFalseReports) : 0;
    ok.push_back(r);
  }
  if (ok.empty()) correct = false;
  const std::size_t attempted = run.checks.size() + run.setup_attempts;

  std::printf("workload %s seed %llu: %zu checks (%zu ok), tail = p%g, "
              "1 closed-loop client\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              run.checks.size(), ok.size(), run.plan.tail_percentile);
  std::printf("  false_reports %g, failed_ratio %s\n", false_reports,
              format_number(static_cast<double>(failed) /
                            static_cast<double>(attempted))
                  .c_str());
  std::printf("  pinned to CPU %d; %zu of %zu ok checks timed (the rest ran "
              "while the hypervisor stole > %g%% of it)\n",
              run.cpu, undisturbed(ok).size(), ok.size(), kStealLimit * 100);

  std::map<std::string, double> metrics;
  const Metric* table = kEndToEnd;
  std::size_t n = std::size(kEndToEnd);
  if (!args.trace) {
    metrics = end_to_end(run, ok);
    print_table("end-to-end", kEndToEnd, n, metrics);
  } else {
    table = kPerLayer;
    n = std::size(kPerLayer);
    metrics = per_layer(run, ok);
    print_table("per-layer (median per check)", kPerLayer, n, metrics);
    SpanLog spans;
    for (const CheckRecord& r : run.checks) spans.append(r.spans);
    std::printf("span self time, summed over %zu checks\n", run.checks.size());
    for (const auto& [name, seconds] : spans.self_seconds_by_name()) {
      std::printf("  %-30s %12.6f s\n", name.c_str(), seconds);
    }
    const std::string path = args.work_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream(path) << spans.to_json();
    std::printf("spans written to %s\n", path.c_str());
  }
  // A metric no check measured has no value to report; reading it as 0
  // would pass for an improvement.
  for (std::size_t k = 0; k < n; ++k) {
    const auto it = metrics.find(table[k].name);
    if (it == metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s was not measured (%zu of %zu checks "
                   "failed)\n", table[k].name, failed, attempted);
      return 3;
    }
  }
  std::printf("%s\n", result_json(correct, attempted, failed, table, n, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool parsed = false;
  try {
    parsed = perfbench::parse_args(argc, argv, &args);
  } catch (const std::exception&) {
    parsed = false;  // a malformed number
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  if (!args.child.empty()) return perfbench::child_main(args);
  return perfbench::driver_main(args);
}
