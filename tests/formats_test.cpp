// The six text formats (trace, instrumentation plan, schedule, guidance,
// faultplan, sweep journal) through their public loaders and writers:
//   * every string field round-trips labels with spaces, a lone "-",
//     backslashes, newlines, tabs and the empty string;
//   * plain-label output is byte-for-byte the established format;
//   * a deterministic mutation pass (every truncation plus seeded byte
//     flips) never crashes a loader, and whatever a loader accepts is a
//     fixed point of write-then-read.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/explore/guidance.hpp"
#include "src/explore/journal.hpp"
#include "src/explore/schedule.hpp"
#include "src/faults/plan.hpp"
#include "src/sast/analysis.hpp"
#include "src/trace/trace_io.hpp"
#include "src/util/rng.hpp"

namespace home {
namespace {

const std::vector<std::string> kLabels = {
    "halo exchange", "-",     "back\\slash", "line\nbreak", "",
    " lead",         "trail ", "tab\there",  "\\s",         "--",
    "#hash",         "cr\r",  "a  b",       "\\",          "plain.site"};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/home_formats_" + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ------------------------------------------------------- label round trips

TEST(LabelRoundTrip, ScheduleSite) {
  for (const std::string& label : kLabels) {
    explore::Schedule s;
    s.strategy = "random";
    explore::Decision d;
    d.site = label;
    d.value = 7;
    s.decisions.push_back(d);
    explore::Schedule back;
    ASSERT_TRUE(explore::Schedule::parse(s.to_string(), &back)) << label;
    ASSERT_EQ(back.decisions.size(), 1u) << label;
    EXPECT_EQ(back.decisions[0].site, label);
    EXPECT_EQ(back.decisions[0].value, 7u) << label;
  }
}

TEST(LabelRoundTrip, FaultPlanSite) {
  for (const std::string& label : kLabels) {
    faults::FaultPlan plan;
    faults::FaultDecision d;
    d.site = label;
    d.value = 9;
    plan.decisions.push_back(d);
    faults::FaultPlan back;
    ASSERT_TRUE(faults::FaultPlan::parse(plan.to_string(), &back)) << label;
    ASSERT_EQ(back.decisions.size(), 1u) << label;
    EXPECT_EQ(back.decisions[0].site, label);
    EXPECT_EQ(back.decisions[0].value, 9u) << label;
  }
}

TEST(LabelRoundTrip, GuidanceSiteOrderedPairAndWhy) {
  for (const std::string& label : kLabels) {
    explore::StaticGuidance g;
    g.ambiguous.push_back({label, 3, 2, 1});
    g.ordered.push_back({label, label + "x", label});
    explore::StaticGuidance back;
    ASSERT_TRUE(explore::StaticGuidance::parse(g.to_string(), &back)) << label;
    ASSERT_EQ(back.ambiguous.size(), 1u) << label;
    EXPECT_EQ(back.ambiguous[0].site, label);
    EXPECT_EQ(back.ambiguous[0].alternatives, 3u) << label;
    ASSERT_EQ(back.ordered.size(), 1u) << label;
    EXPECT_EQ(back.ordered[0].before, label);
    EXPECT_EQ(back.ordered[0].after, label + "x");
    EXPECT_EQ(back.ordered[0].why, label);
  }
}

TEST(LabelRoundTrip, TraceStringTable) {
  trace::TraceLog log;
  for (const std::string& label : kLabels) log.strings().intern(label);
  std::stringstream buffer;
  trace::write_trace(buffer, log);
  const trace::LoadedTrace loaded = trace::read_trace(buffer);
  ASSERT_EQ(loaded.strings.size(), log.strings().size());
  for (std::uint32_t i = 0; i < loaded.strings.size(); ++i) {
    EXPECT_EQ(loaded.strings[i], log.strings().lookup(i)) << i;
  }
}

TEST(LabelRoundTrip, PlanWrapAndPruneLabelsAndReasons) {
  sast::InstrPlan plan;
  for (const std::string& label : kLabels) {
    plan.instrument.insert(label);
    plan.pruned["p" + label] = label;
    plan.pruned[label] = "why " + label;
  }
  const std::string path = temp_path("labels.plan");
  sast::save_plan_file(path, plan);
  const sast::InstrPlan back = sast::load_plan_file(path);
  EXPECT_EQ(back.instrument, plan.instrument);
  EXPECT_EQ(back.pruned, plan.pruned);
  std::remove(path.c_str());
}

TEST(LabelRoundTrip, JournalKeyErrSchedAndFault) {
  const std::string path = temp_path("labels.journal");
  std::remove(path.c_str());
  const explore::JournalMeta meta{4, 1, "wildcard"};
  std::vector<explore::JournalEntry> written;
  {
    explore::SweepJournal journal(path, meta);
    ASSERT_TRUE(journal.ok());
    for (std::size_t i = 0; i < kLabels.size(); ++i) {
      explore::JournalEntry e;
      e.index = static_cast<int>(i);
      e.keys = {kLabels[i], "k" + kLabels[i]};
      e.errors = {kLabels[i], "rank 0: " + kLabels[i]};
      e.schedule_path = kLabels[i];
      e.faultplan_path = kLabels[i] + "f";
      journal.record(e);
      written.push_back(e);
    }
  }
  std::map<int, explore::JournalEntry> back;
  std::size_t torn = 0;
  ASSERT_TRUE(explore::SweepJournal::load(path, meta, &back, &torn));
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(back.size(), written.size());
  for (const explore::JournalEntry& e : written) {
    const explore::JournalEntry& got = back.at(e.index);
    EXPECT_EQ(got.keys, e.keys) << e.index;
    EXPECT_EQ(got.errors, e.errors) << e.index;
    EXPECT_EQ(got.schedule_path, e.schedule_path) << e.index;
    EXPECT_EQ(got.faultplan_path, e.faultplan_path) << e.index;
  }
  std::remove(path.c_str());
}

// -------------------------------------------------- established byte format

explore::Schedule fixture_schedule() {
  explore::Schedule s;
  s.strategy = "random";
  s.seed = 7;
  explore::Decision yield;
  yield.kind = explore::HookKind::kBarrier;
  yield.rank = 0;
  yield.lane = 1;
  yield.site = "homp.barrier";
  yield.occurrence = 2;
  yield.value = 150;
  s.decisions.push_back(yield);
  explore::Decision pick;
  pick.kind = explore::HookKind::kWildcardPick;
  pick.rank = 1;
  pick.site = "mailbox.wildcard";
  pick.is_pick = true;
  pick.value = 1;
  s.decisions.push_back(pick);
  return s;
}

faults::FaultPlan fixture_faultplan() {
  faults::FaultPlan plan;
  plan.seed = 42;
  plan.spec.rank_stall_p = 0.5;
  plan.spec.msg_delay_p = 0.05;
  faults::FaultDecision d;
  d.kind = faults::FaultKind::kMsgDelay;
  d.rank = 1;
  d.site = "p2p.send";
  d.occurrence = 3;
  d.value = 1500;
  plan.decisions.push_back(d);
  return plan;
}

explore::StaticGuidance fixture_guidance() {
  explore::StaticGuidance g;
  g.ambiguous.push_back({"app.pick", 3, 2, 1});
  g.ordered.push_back({"app.send", "app.recv", "unique-match"});
  g.ordered.push_back({"a", "b", "program-order(rank 1)"});
  g.ordered.push_back({"c", "d", ""});
  g.phase_ambiguity.push_back({0, 1});
  return g;
}

trace::TraceLog& fixture_trace(trace::TraceLog& log) {
  const std::uint32_t site = log.strings().intern("app.recv");
  trace::Event write;
  write.tid = 1;
  write.kind = trace::EventKind::kMemWrite;
  write.obj = 100;
  write.locks_held = {7, 9};
  log.emit(write);
  trace::Event call;
  call.tid = 2;
  call.rank = 1;
  call.kind = trace::EventKind::kMpiCall;
  trace::MpiCallInfo info;
  info.type = trace::MpiCallType::kRecv;
  info.peer = 0;
  info.tag = 5;
  info.comm = 1;
  info.on_main_thread = true;
  info.provided = 3;
  info.callsite = site;
  call.mpi = info;
  log.emit(call);
  return log;
}

sast::InstrPlan fixture_plan() {
  sast::InstrPlan plan;
  plan.instrument = {"main:10:MPI_Recv"};
  plan.pruned = {{"main:12:MPI_Send", "critical-guarded(net)"},
                 {"halo:4:MPI_Wait", "barrier-separated"}};
  plan.total_calls = 4;
  plan.instrumented_calls = 1;
  plan.filtered_calls = 1;
  plan.pruned_calls = 2;
  return plan;
}

explore::JournalMeta fixture_meta() { return {4, 1, "wildcard"}; }

explore::JournalEntry fixture_entry() {
  explore::JournalEntry e;
  e.index = 2;
  e.seed = 11;
  e.signature = 0xfeedface;
  e.hook_hits = 42;
  e.status = "timeout";
  e.retries = 3;
  e.keys = {"1|0|a|a|c0"};
  e.errors = {"rank 0: watchdog"};
  e.schedule_path = "/tmp/seed11.schedule";
  e.faultplan_path = "/tmp/seed11.faultplan";
  e.certificates = 2;
  e.certificates_verified = 1;
  return e;
}

const char kScheduleText[] =
    "# home explore schedule v1\n"
    "strategy random\n"
    "seed 7\n"
    "yield barrier 0 1 homp.barrier 2 150\n"
    "pick wildcard_pick 1 0 mailbox.wildcard 0 1\n";

const char kFaultPlanText[] =
    "# home faultplan v1\n"
    "seed 42\n"
    "spec delay=0.05,drop=0,stall=0.5,crash=0,lockpause=0,qpressure=0,"
    "max_delay_us=2000,redeliver_us=3000,max_crashes=1\n"
    "F msg_delay 1 p2p.send 3 1500\n";

const char kGuidanceText[] =
    "# home explore guidance v1\n"
    "site app.pick 3 2 1\n"
    "ordered app.send app.recv unique-match\n"
    "ordered a b program-order(rank 1)\n"
    "ordered c d -\n"
    "phase 0 1\n";

const char kTraceText[] =
    "#home-trace v1\n"
    "S 0 -\n"
    "S 1 app.recv\n"
    "E 1 1 -1 1 100 0 2 7 9\n"
    "E 2 2 1 9 0 0 0 M 4 0 5 1 0 1 3 1\n";

const char kPlanText[] =
    "#home-plan v2 total=4 instrumented=1 filtered=1 pruned=2\n"
    "wrap main:10:MPI_Recv\n"
    "prune halo:4:MPI_Wait barrier-separated\n"
    "prune main:12:MPI_Send critical-guarded(net)\n";

const char kJournalText[] =
    "# home sweep journal v1\n"
    "meta schedules=4 base_seed=1 strategy=wildcard\n"
    "run 2 11 4277009102 42 timeout 3\n"
    "key 2 1|0|a|a|c0\n"
    "err 2 rank 0: watchdog\n"
    "sched 2 /tmp/seed11.schedule\n"
    "fault 2 /tmp/seed11.faultplan\n"
    "cert 2 2 1\n"
    "end 2\n";

std::string trace_text() {
  trace::TraceLog log;
  std::ostringstream out;
  trace::write_trace(out, fixture_trace(log));
  return out.str();
}

std::string journal_text() {
  const std::string path = temp_path("fixture.journal");
  std::remove(path.c_str());
  {
    explore::SweepJournal journal(path, fixture_meta());
    journal.record(fixture_entry());
  }
  const std::string text = read_text(path);
  std::remove(path.c_str());
  return text;
}

TEST(FormatCompat, WritersEmitTheEstablishedBytes) {
  EXPECT_EQ(fixture_schedule().to_string(), kScheduleText);
  EXPECT_EQ(fixture_faultplan().to_string(), kFaultPlanText);
  EXPECT_EQ(fixture_guidance().to_string(), kGuidanceText);
  EXPECT_EQ(trace_text(), kTraceText);
  const std::string plan_path = temp_path("fixture.plan");
  sast::save_plan_file(plan_path, fixture_plan());
  EXPECT_EQ(read_text(plan_path), kPlanText);
  std::remove(plan_path.c_str());
  EXPECT_EQ(journal_text(), kJournalText);
}

TEST(FormatCompat, EstablishedBytesLoad) {
  explore::Schedule schedule;
  ASSERT_TRUE(explore::Schedule::parse(kScheduleText, &schedule));
  EXPECT_EQ(schedule.to_string(), kScheduleText);
  faults::FaultPlan plan;
  ASSERT_TRUE(faults::FaultPlan::parse(kFaultPlanText, &plan));
  EXPECT_EQ(plan.to_string(), kFaultPlanText);
  explore::StaticGuidance guidance;
  ASSERT_TRUE(explore::StaticGuidance::parse(kGuidanceText, &guidance));
  EXPECT_EQ(guidance.ordered[1].why, "program-order(rank 1)");
  std::stringstream trace_in(kTraceText);
  const trace::LoadedTrace trace = trace::read_trace(trace_in);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.label(trace.events[1].mpi->callsite), "app.recv");

  const std::string path = temp_path("compat.plan");
  write_text(path, kPlanText);
  EXPECT_EQ(sast::load_plan_file(path).pruned, fixture_plan().pruned);
  write_text(path, "#home-plan v1\nmain:10:MPI_Recv\n# note\nhalo:4:MPI_Send\n");
  const sast::InstrPlan v1 = sast::load_plan_file(path);
  EXPECT_EQ(v1.instrument,
            (std::set<std::string>{"main:10:MPI_Recv", "halo:4:MPI_Send"}));
  EXPECT_EQ(v1.total_calls, 2u);
  std::remove(path.c_str());

  const std::string jpath = temp_path("compat.journal");
  write_text(jpath, kJournalText);
  std::map<int, explore::JournalEntry> entries;
  ASSERT_TRUE(explore::SweepJournal::load(jpath, fixture_meta(), &entries));
  ASSERT_EQ(entries.count(2), 1u);
  EXPECT_EQ(entries[2].errors, fixture_entry().errors);
  EXPECT_EQ(entries[2].signature, 0xfeedfaceu);
  std::remove(jpath.c_str());
}

// ----------------------------------------------------------- mutation pass

/// One loader under mutation: returns the re-serialized result when the
/// input is accepted, "" when it is rejected (false or an exception).
using Loader = std::function<bool(const std::string& text, std::string* again)>;

template <class T>
Loader text_loader() {
  return [](const std::string& text, std::string* again) {
    T parsed;
    if (!T::parse(text, &parsed)) return false;
    *again = parsed.to_string();
    return true;
  };
}

bool load_trace(const std::string& text, std::string* again) {
  // Strict and lenient must agree: strict accepts exactly the inputs in
  // which lenient finds no damage, and then they load the same events.
  std::istringstream lenient_in(text);
  trace::ReadStats stats;
  const trace::LoadedTrace lenient = trace::read_trace_lenient(lenient_in, &stats);
  std::istringstream strict_in(text);
  try {
    const trace::LoadedTrace strict = trace::read_trace(strict_in);
    EXPECT_EQ(stats.corrupt_records, 0u);
    EXPECT_EQ(strict.events.size(), lenient.events.size());
    *again = std::to_string(strict.events.size()) + " events, " +
             std::to_string(strict.strings.size()) + " strings";
    return true;
  } catch (const std::runtime_error&) {
    // An empty file has no header for strict, and no damage for lenient.
    if (!text.empty()) {
      EXPECT_GT(stats.corrupt_records, 0u) << text;
    }
    return false;
  }
}

bool load_plan(const std::string& text, std::string* again) {
  const std::string path = temp_path("mutant.plan");
  write_text(path, text);
  try {
    const sast::InstrPlan plan = sast::load_plan_file(path);
    sast::save_plan_file(path, plan);
    *again = read_text(path);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

bool load_journal(const std::string& text, std::string* again) {
  const std::string path = temp_path("mutant.journal");
  write_text(path, text);
  std::map<int, explore::JournalEntry> entries;
  if (!explore::SweepJournal::load(path, fixture_meta(), &entries)) {
    return false;
  }
  std::remove(path.c_str());
  {
    explore::SweepJournal journal(path, fixture_meta());
    for (const auto& [index, entry] : entries) journal.record(entry);
  }
  *again = read_text(path);
  return true;
}

/// Accepted inputs must be fixed points: what the loader wrote back loads
/// again and writes the same bytes.
void expect_fixed_point(const Loader& load, const std::string& text,
                        const char* format, const std::string& what) {
  std::string once;
  if (!load(text, &once)) return;
  if (format == std::string("trace")) return;  // compared in load_trace.
  std::string twice;
  ASSERT_TRUE(load(once, &twice)) << format << " " << what;
  EXPECT_EQ(twice, once) << format << " " << what;
}

TEST(LoaderMutation, TruncationsAndByteFlipsNeverCrashAnyLoader) {
  struct Case {
    const char* format;
    std::string text;
    Loader load;
  };
  const std::vector<Case> cases = {
      {"schedule", kScheduleText, text_loader<explore::Schedule>()},
      {"faultplan", kFaultPlanText, text_loader<faults::FaultPlan>()},
      {"guidance", kGuidanceText, text_loader<explore::StaticGuidance>()},
      {"trace", kTraceText, load_trace},
      {"plan", kPlanText, load_plan},
      {"journal", kJournalText, load_journal},
  };
  constexpr int kFlipsPerFormat = 300;
  const std::string kInteresting = " \t\n\\-#=,0123456789";
  std::uint64_t seed = 0x15c0dec;
  for (const Case& c : cases) {
    for (std::size_t cut = 0; cut <= c.text.size(); ++cut) {
      expect_fixed_point(c.load, c.text.substr(0, cut), c.format,
                         "cut at " + std::to_string(cut));
    }
    for (int flip = 0; flip < kFlipsPerFormat; ++flip) {
      std::string mutant = c.text;
      const std::size_t at = util::splitmix64(seed) % mutant.size();
      const std::uint64_t pick = util::splitmix64(seed);
      mutant[at] = pick % 2 == 0
                       ? kInteresting[(pick / 2) % kInteresting.size()]
                       : static_cast<char>(pick >> 8);
      expect_fixed_point(c.load, mutant, c.format,
                         "flip " + std::to_string(flip) + " at " +
                             std::to_string(at));
    }
  }
  std::remove(temp_path("mutant.plan").c_str());
  std::remove(temp_path("mutant.journal").c_str());
}

}  // namespace
}  // namespace home
