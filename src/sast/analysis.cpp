#include "src/sast/analysis.hpp"

#include <cctype>
#include <stdexcept>

#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/records.hpp"
#include "src/util/strings.hpp"

namespace home::sast {
namespace {

namespace records = util::records;

constexpr std::string_view kPlanV1 = "#home-plan v1";
constexpr std::string_view kPlanV2 = "#home-plan v2";

bool is_mpi_call(const std::string& callee) {
  return util::starts_with(callee, "MPI_") || util::starts_with(callee, "HMPI_");
}

std::string make_label(const std::string& function, int line,
                       const std::string& routine) {
  return function + ":" + std::to_string(line) + ":" + routine;
}

/// Collects the MPI call sites of one function, reading the dataflow facts
/// at each call's CFG node (Algorithm 1's srcCFG traversal, now answered by
/// the MHP + lockset engine instead of lexical depth counters).
void collect_calls(const Cfg& cfg, const FunctionFacts& ff,
                   const std::string& function_name, int fn_index,
                   AnalysisResult& result) {
  for (const CfgNode& node : cfg.nodes()) {
    // Construct end markers share the begin node's stmt; collect calls at
    // the begin/marker only to avoid double-counting.
    if (node.kind == CfgNodeKind::kOmpParallelEnd ||
        node.kind == CfgNodeKind::kOmpCriticalEnd ||
        node.kind == CfgNodeKind::kOmpWorksharingEnd) {
      continue;
    }
    if (!node.stmt) continue;
    for (const CallExpr& call : node.stmt->calls) {
      if (!is_mpi_call(call.callee)) continue;
      const NodeFacts& nf = ff.at(node.id);
      MpiCallSite site;
      site.routine = call.callee;
      site.args = call.args;
      site.function = function_name;
      site.line = call.line;
      site.col = call.col;
      site.in_parallel = nf.in_parallel;
      site.critical_stack = nf.critical_chain;
      site.locks = nf.locks;
      site.in_master = nf.in_master;
      site.in_single = nf.in_single;
      site.in_section = nf.in_section;
      site.in_master_or_single = nf.in_master || nf.in_single;
      site.fn_index = fn_index;
      site.node_id = node.id;
      site.label = make_label(function_name, call.line, call.callee);
      result.calls.push_back(std::move(site));
    }
  }
}

// ------------------------------------------------------- thread-dependence

std::vector<std::string> identifiers_in(const std::string& text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isalpha(static_cast<unsigned char>(text[i])) || text[i] == '_') {
      std::size_t j = i + 1;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      out.push_back(text.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

/// Position of the assignment '=' in `text`, or npos.  Skips '==' and the
/// comparison forms; compound assignments (+=, ...) count as assignments.
std::size_t find_assign(const std::string& text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '=') continue;
    if (i + 1 < text.size() && text[i + 1] == '=') {
      ++i;
      continue;
    }
    if (i > 0 && (text[i - 1] == '=' || text[i - 1] == '<' ||
                  text[i - 1] == '>' || text[i - 1] == '!')) {
      continue;
    }
    return i;
  }
  return std::string::npos;
}

/// Identifiers whose value may depend on the executing thread: assigned
/// (transitively) from omp_get_thread_num().  Function-local fixed point
/// over the statement texts — deliberately coarse, used only to demote
/// warning severity, never to suppress a warning.
std::set<std::string> function_taint(const Function& fn) {
  std::set<std::string> tainted;
  if (!fn.body) return tainted;
  bool changed = true;
  while (changed) {
    changed = false;
    visit_stmts(*fn.body, [&](const Stmt& stmt) {
      if (stmt.text.empty()) return;
      const std::size_t eq = find_assign(stmt.text);
      if (eq == std::string::npos) return;
      const std::string rhs = stmt.text.substr(eq + 1);
      bool dirty = util::contains(rhs, "omp_get_thread_num");
      if (!dirty) {
        for (const std::string& id : identifiers_in(rhs)) {
          if (tainted.count(id)) {
            dirty = true;
            break;
          }
        }
      }
      if (!dirty) return;
      const std::vector<std::string> lhs_ids =
          identifiers_in(stmt.text.substr(0, eq));
      if (lhs_ids.empty()) return;
      if (tainted.insert(lhs_ids.back()).second) changed = true;
    });
  }
  return tainted;
}

// ------------------------------------------------------------------ pruning

/// How aggressively the requested MPI thread level lets us prune.  Pruning
/// removes a call site from dynamic monitoring, so it must never hide a
/// violation the runtime would have flagged:
///  - plain MPI_Init / MPI_THREAD_SINGLE: any call inside a parallel region
///    is itself a level violation (V1) — nothing may be pruned;
///  - FUNNELED: only master-thread calls are compliant, so only sites the
///    engine proves master-guarded may be pruned;
///  - SERIALIZED / MULTIPLE: any statically serialized site may be pruned.
enum class PruneMode { kNone, kMasterOnly, kFull };

PruneMode prune_mode(const AnalysisResult& result) {
  if (!result.uses_init_thread || result.uses_plain_init) {
    return PruneMode::kNone;
  }
  if (result.requested_level == "MPI_THREAD_MULTIPLE" ||
      result.requested_level == "MPI_THREAD_SERIALIZED") {
    return PruneMode::kFull;
  }
  if (result.requested_level == "MPI_THREAD_FUNNELED") {
    return PruneMode::kMasterOnly;
  }
  return PruneMode::kNone;
}

/// Setup/teardown calls anchor the dynamic tool; never prune them.
bool never_prunable(const std::string& routine) {
  return routine == "MPI_Init" || routine == "MPI_Init_thread" ||
         routine == "MPI_Finalize" || routine == "HMPI_Init" ||
         routine == "HMPI_Init_thread" || routine == "HMPI_Finalize";
}

bool locks_disjoint(const std::set<std::string>& a,
                    const std::set<std::string>& b) {
  for (const std::string& x : a) {
    if (b.count(x)) return false;
  }
  return true;
}

/// May two call sites in *different* functions execute concurrently?  Two
/// lexical parallel regions in different functions cannot overlap (fork-join
/// under a serial host), so concurrency requires at least one side to be in
/// a context-parallel function; master bodies and common critical locks
/// serialize across functions exactly like within one.
bool cross_function_concurrent(const AnalysisResult& result,
                               const MpiCallSite& a, const MpiCallSite& b) {
  const FunctionFacts& fa =
      result.facts.functions[static_cast<std::size_t>(a.fn_index)];
  const FunctionFacts& fb =
      result.facts.functions[static_cast<std::size_t>(b.fn_index)];
  if (!fa.context_parallel_ && !fb.context_parallel_) return false;
  if (a.in_master && b.in_master) return false;
  if (!locks_disjoint(a.locks, b.locks)) return false;
  return true;
}

/// Does call site `idx` have any other MPI site it may race with?
bool has_unguarded_peer(const AnalysisResult& result, std::size_t idx,
                        bool use_phases) {
  for (std::size_t i = 0; i < result.calls.size(); ++i) {
    if (i != idx && sites_may_race(result, idx, i, use_phases)) return true;
  }
  return false;
}

bool prunable(const AnalysisResult& result, std::size_t idx, PruneMode mode) {
  const MpiCallSite& site = result.calls[idx];
  if (mode == PruneMode::kNone || !site.in_parallel) return false;
  if (never_prunable(site.routine)) return false;
  if (mode == PruneMode::kMasterOnly && !site.in_master) return false;
  const FunctionFacts& ff =
      result.facts.functions[static_cast<std::size_t>(site.fn_index)];
  if (ff.self_unguarded(site.node_id)) return false;
  if (has_unguarded_peer(result, idx, /*use_phases=*/true)) return false;
  return true;
}

/// Attributes the proof that made `idx` safe.  Barrier separation is checked
/// first by re-running the peer scan with phases disabled: if some peer
/// becomes racy without them, the barriers were essential.
std::string prune_reason_for(const AnalysisResult& result, std::size_t idx) {
  const MpiCallSite& site = result.calls[idx];
  const FunctionFacts& ff =
      result.facts.functions[static_cast<std::size_t>(site.fn_index)];
  const NodeFacts& nf = ff.at(site.node_id);
  if (!nf.reachable) return "unreachable";
  if (has_unguarded_peer(result, idx, /*use_phases=*/false)) {
    return "barrier-separated";
  }
  if (nf.in_master) return "master-guarded";
  if (nf.in_single) return "single-guarded";
  if (nf.in_section) return "section-guarded";
  if (nf.exclusive != -1) return "master-guarded";  // context always-master.
  if (!nf.locks.empty()) {
    return "critical-guarded(" +
           util::join(std::vector<std::string>(nf.locks.begin(),
                                               nf.locks.end()),
                      "+") +
           ")";
  }
  return "no-concurrent-peer";
}

}  // namespace

bool sites_may_race(const AnalysisResult& result, std::size_t i,
                    std::size_t j, bool use_phases) {
  if (i == j) return site_self_race(result, i);
  const MpiCallSite& a = result.calls[i];
  const MpiCallSite& b = result.calls[j];
  if (!a.in_parallel || !b.in_parallel) return false;
  if (a.fn_index == b.fn_index) {
    const FunctionFacts& ff =
        result.facts.functions[static_cast<std::size_t>(a.fn_index)];
    return ff.mhp_unguarded(a.node_id, b.node_id, use_phases);
  }
  return cross_function_concurrent(result, a, b);
}

bool site_self_race(const AnalysisResult& result, std::size_t i) {
  const MpiCallSite& site = result.calls[i];
  const FunctionFacts& ff =
      result.facts.functions[static_cast<std::size_t>(site.fn_index)];
  return ff.self_unguarded(site.node_id);
}

bool thread_dependent_arg(const AnalysisResult& result,
                          const MpiCallSite& site, const std::string& arg) {
  const auto it = result.thread_dependent.find(site.function);
  if (it == result.thread_dependent.end()) return false;
  for (const std::string& id : identifiers_in(arg)) {
    if (it->second.count(id)) return true;
  }
  return false;
}

std::set<std::string> compute_parallel_callees(const TranslationUnit& unit) {
  std::vector<Cfg> cfgs;
  cfgs.reserve(unit.functions.size());
  for (const Function& fn : unit.functions) cfgs.push_back(build_cfg(fn));
  return compute_program_facts(unit, cfgs).parallel_callees;
}

AnalysisResult analyze(const TranslationUnit& unit) {
  obs::Span span("sast.analyze");
  AnalysisResult result;
  result.cfgs.reserve(unit.functions.size());
  for (const Function& fn : unit.functions) {
    result.cfgs.push_back(build_cfg(fn));
  }
  result.facts = compute_program_facts(unit, result.cfgs);

  for (std::size_t i = 0; i < unit.functions.size(); ++i) {
    collect_calls(result.cfgs[i], result.facts.functions[i],
                  unit.functions[i].name, static_cast<int>(i), result);
    const std::set<std::string> taint = function_taint(unit.functions[i]);
    if (!taint.empty()) {
      result.thread_dependent[unit.functions[i].name] = taint;
    }
  }

  // Init-mode facts first: the prune gate depends on the requested level.
  for (const MpiCallSite& site : result.calls) {
    if (site.routine == "MPI_Init") result.uses_plain_init = true;
    if (site.routine == "MPI_Init_thread") {
      result.uses_init_thread = true;
      for (const std::string& arg : site.args) {
        if (util::contains(arg, "MPI_THREAD_")) {
          // Normalize token spacing from the parser.
          result.requested_level = util::replace_all(arg, " ", "");
        }
      }
    }
  }

  const PruneMode mode = prune_mode(result);
  for (std::size_t i = 0; i < result.calls.size(); ++i) {
    MpiCallSite& site = result.calls[i];
    ++result.plan.total_calls;
    if (!site.in_parallel) {
      ++result.plan.filtered_calls;
      continue;
    }
    if (prunable(result, i, mode)) {
      site.pruned = true;
      site.prune_reason = prune_reason_for(result, i);
      result.plan.pruned[site.label] = site.prune_reason;
      ++result.plan.pruned_calls;
    } else {
      result.plan.instrument.insert(site.label);
      ++result.plan.instrumented_calls;
    }
  }

  // Batched fold into the registry (DESIGN.md §9): one add per analyze()
  // call, counting CFG nodes visited and the plan's prune outcome.
  std::size_t nodes = 0;
  for (const Cfg& cfg : result.cfgs) nodes += cfg.nodes().size();
  obs::Registry& reg = obs::Registry::global();
  reg.counter("sast.nodes_visited").add(nodes);
  reg.counter("sast.calls_seen").add(result.plan.total_calls);
  reg.counter("sast.plan.pruned").add(result.plan.pruned_calls);
  reg.counter("sast.plan.instrumented").add(result.plan.instrumented_calls);
  return result;
}

AnalysisResult analyze_source(const std::string& source) {
  return analyze(parse(source));
}

void save_plan_file(const std::string& path, const InstrPlan& plan) {
  using std::to_string;
  records::Writer w(kPlanV2);
  w.str("total=" + to_string(plan.total_calls))
      .str("instrumented=" + to_string(plan.instrumented_calls))
      .str("filtered=" + to_string(plan.filtered_calls))
      .str("pruned=" + to_string(plan.pruned_calls));
  for (const std::string& label : plan.instrument) w.tag("wrap").rest(label);
  for (const auto& [label, reason] : plan.pruned) {
    w.tag("prune").str(label).rest(reason);
  }
  if (!records::write_file(path, w.take())) {
    throw std::runtime_error("cannot open plan file " + path);
  }
}

InstrPlan load_plan_file(const std::string& path) {
  const std::optional<std::string> text = records::read_file(path);
  if (!text) throw std::runtime_error("cannot open plan file " + path);
  records::Reader r(*text);
  const int version = r.header({kPlanV1, kPlanV2});
  const std::string_view counts =  // both versions have the same length.
      version < 0 ? std::string_view() : r.line().substr(kPlanV2.size());
  InstrPlan plan;
  while (r.next()) {
    std::string_view verb;
    std::string label, reason;
    // v1 has one bare label per line.
    if ((version == 0 || (r.word(&verb) && verb == "wrap")) && r.rest(&label)) {
      plan.instrument.insert(std::move(label));
    } else if (verb == "prune" && r.str(&label)) {
      r.rest(&reason);  // optional.
      plan.pruned[std::move(label)] = std::move(reason);
    } else {
      r.reject();
    }
  }
  const bool counts_ok = records::read_pairs(
      counts, ' ', [&plan](std::string_view key, std::string_view value) {
        using records::parse_number;
        return (key != "total" || parse_number(value, &plan.total_calls)) &&
               (key != "filtered" || parse_number(value, &plan.filtered_calls));
      });
  if (!r.ok() || !counts_ok) {
    throw std::runtime_error("bad plan file " + path + ": " + r.error());
  }
  plan.instrumented_calls = plan.instrument.size();
  plan.pruned_calls = plan.pruned.size();
  if (plan.total_calls == 0) {
    plan.total_calls = plan.instrumented_calls + plan.pruned_calls;
  }
  return plan;
}

}  // namespace home::sast
