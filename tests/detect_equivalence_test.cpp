// Equivalence and scaling-infrastructure properties:
//  * the production frontier detector reports the same per-variable
//    `concurrent` verdicts as the independent oracle (tests/oracle/: dense
//    clocks replayed from the raw events plus the paper's O(k^2) pairwise
//    check) on seeded random traces, in all three DetectorModes, capped and
//    uncapped, serial and parallel,
//  * every pair the frontier reports is in the oracle's racy set
//    (soundness of the representatives handed to the matcher),
//  * multi-threaded TraceLog emission loses no events and yields a valid
//    seq total order (strictly increasing, duplicate-free),
//  * StringTable interning is consistent under concurrent use.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/rng.hpp"
#include "tests/oracle/oracle.hpp"

namespace home::detect {
namespace {

using trace::Event;
using trace::EventKind;

// ------------------------------------------------------ random trace builder

/// A random hybrid-looking trace: several threads interleave reads/writes on
/// a small variable pool under randomly acquired/released locks, with
/// occasional full barriers, fork/join edges, and cross-"rank" message
/// edges.  Locksets are kept consistent (snapshot of currently held locks).
std::vector<Event> random_trace(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const int threads = 2 + static_cast<int>(rng.next_below(4));   // 2..5
  const int vars = 3 + static_cast<int>(rng.next_below(6));      // 3..8
  const int locks = 1 + static_cast<int>(rng.next_below(3));     // 1..3
  const int steps = 200 + static_cast<int>(rng.next_below(600));

  std::vector<std::vector<trace::ObjId>> held(
      static_cast<std::size_t>(threads));
  std::vector<Event> events;
  trace::Seq seq = 1;
  trace::ObjId next_msg = 7000;
  std::vector<trace::ObjId> in_flight;  // sent but not yet received.

  auto emit = [&](trace::Tid tid, EventKind kind, trace::ObjId obj,
                  std::uint64_t aux = 0) {
    Event e;
    e.seq = seq++;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    e.aux = aux;
    e.locks_held = held[static_cast<std::size_t>(tid)];
    std::sort(e.locks_held.begin(), e.locks_held.end());
    events.push_back(std::move(e));
  };

  for (int step = 0; step < steps; ++step) {
    const auto tid = static_cast<trace::Tid>(rng.next_below(
        static_cast<std::uint64_t>(threads)));
    auto& mine = held[static_cast<std::size_t>(tid)];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      // Access a random variable.
      const trace::ObjId var = 100 + rng.next_below(
          static_cast<std::uint64_t>(vars));
      emit(tid, rng.next_bool(0.6) ? EventKind::kMemWrite : EventKind::kMemRead,
           var);
    } else if (roll < 70) {
      // Acquire a lock not already held.
      const trace::ObjId lock = 500 + rng.next_below(
          static_cast<std::uint64_t>(locks));
      if (std::find(mine.begin(), mine.end(), lock) == mine.end()) {
        emit(tid, EventKind::kLockAcquire, lock);
        mine.push_back(lock);
      }
    } else if (roll < 85) {
      // Release a random held lock.
      if (!mine.empty()) {
        const std::size_t pick = rng.next_below(mine.size());
        const trace::ObjId lock = mine[pick];
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
        emit(tid, EventKind::kLockRelease, lock);
      }
    } else if (roll < 92) {
      // Message edge: send now, matching recv from another thread later.
      if (rng.next_bool(0.5) || in_flight.empty()) {
        const trace::ObjId msg = next_msg++;
        emit(tid, EventKind::kMsgSend, msg);
        in_flight.push_back(msg);
      } else {
        const std::size_t pick = rng.next_below(in_flight.size());
        const trace::ObjId msg = in_flight[pick];
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
        emit(tid, EventKind::kMsgRecv, msg);
      }
    } else if (roll < 97) {
      // Full barrier: every thread arrives.
      const trace::ObjId barrier = 9000 + static_cast<trace::ObjId>(step);
      for (trace::Tid t = 0; t < threads; ++t) {
        emit(t, EventKind::kBarrier, barrier,
             static_cast<std::uint64_t>(threads));
      }
    }
    // Remaining rolls: no event (schedule gap).
  }
  return events;
}

std::map<trace::ObjId, bool> concurrent_map(const ConcurrencyReport& report) {
  std::map<trace::ObjId, bool> out;
  for (const auto& [var, verdict] : report.verdicts()) {
    out[var] = verdict.concurrent;
  }
  return out;
}

// ----------------------------------------- frontier == oracle pairwise verdicts

class DetectorEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DetectorEquivalence, FrontierMatchesPairwiseVerdicts) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kLocksetOnly,
        DetectorMode::kHbOnly}) {
    const auto expected = oracle::Oracle(events, mode).verdicts();
    // Sweep the knobs that must not change the verdict: pair cap on/off and
    // serial vs parallel per-variable analysis.
    for (const std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
      RaceDetectorConfig frontier;
      frontier.mode = mode;
      frontier.max_pairs_per_var = cap;
      frontier.analysis_threads = (seed % 2 == 0) ? 1 : 4;
      EXPECT_EQ(concurrent_map(RaceDetector(frontier).analyze(events)),
                expected)
          << "mode=" << detector_mode_name(mode) << " cap=" << cap
          << " seed=" << seed;
    }
  }
}

// 100+ seeded random traces (x 3 modes x 2 caps each).
INSTANTIATE_TEST_SUITE_P(Seeds, DetectorEquivalence, ::testing::Range(0, 104));

TEST(DetectorEquivalence, FrontierPairsAreGenuinelyRacy) {
  // Soundness of the representatives: every pair the frontier reports must
  // be in the oracle's racy set for the mode (the matcher builds violations
  // out of these).
  const std::vector<Event> events = random_trace(421);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kLocksetOnly,
        DetectorMode::kHbOnly}) {
    RaceDetectorConfig cfg;
    cfg.mode = mode;
    cfg.max_pairs_per_var = 0;
    const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
    const oracle::Oracle reference(events, mode);
    for (const auto& [var, verdict] : report.verdicts()) {
      for (const ConcurrentPair& pair : verdict.pairs) {
        EXPECT_LT(pair.first, pair.second);
        EXPECT_TRUE(oracle::accesses_racy(reference, pair.first, pair.second))
            << "mode=" << detector_mode_name(mode) << " var=" << var;
        EXPECT_EQ(report.hb().events()[pair.first].obj, var);
        EXPECT_EQ(report.hb().events()[pair.second].obj, var);
      }
    }
  }
}

TEST(DetectorEquivalence, ParallelAnalysisIsDeterministic) {
  // Same trace, different worker counts: byte-identical verdicts and pairs.
  std::vector<Event> events;
  util::Rng rng(99);
  for (int i = 0; i < 6000; ++i) {  // above kParallelAnalysisThreshold.
    Event e;
    e.seq = static_cast<trace::Seq>(i + 1);
    e.tid = static_cast<trace::Tid>(rng.next_below(6));
    e.kind = trace::EventKind::kMemWrite;
    e.obj = 100 + rng.next_below(40);
    if (rng.next_bool(0.5)) e.locks_held = {500};
    events.push_back(std::move(e));
  }
  auto run = [&](std::size_t workers) {
    RaceDetectorConfig cfg;
    cfg.analysis_threads = workers;
    return RaceDetector(cfg).analyze(events);
  };
  const ConcurrencyReport serial = run(1);
  const ConcurrencyReport parallel = run(8);
  ASSERT_EQ(serial.verdicts().size(), parallel.verdicts().size());
  for (const auto& [var, verdict] : serial.verdicts()) {
    const VariableVerdict* other = parallel.verdict(var);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(verdict.concurrent, other->concurrent);
    ASSERT_EQ(verdict.pairs.size(), other->pairs.size());
    for (std::size_t k = 0; k < verdict.pairs.size(); ++k) {
      EXPECT_EQ(verdict.pairs[k].first, other->pairs[k].first);
      EXPECT_EQ(verdict.pairs[k].second, other->pairs[k].second);
    }
  }
}

// ------------------------------------------------- sharded TraceLog stress

TEST(TraceLogStress, ConcurrentEmitLosesNothingAndSeqIsTotalOrder) {
  trace::TraceLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::Event e;
        e.tid = t;
        e.kind = trace::EventKind::kMemWrite;
        e.obj = static_cast<trace::ObjId>(t * kPerThread + i);
        log.emit(std::move(e));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kThreads * kPerThread));
  const std::vector<trace::Event> events = log.sorted_events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));

  // Valid total order: strictly increasing seq (hence duplicate-free).
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LT(events[i - 1].seq, events[i].seq) << "at index " << i;
  }
  // Consistent with each thread's program order, and nothing dropped or
  // duplicated: per thread, the payloads appear exactly once, in order.
  std::vector<std::vector<trace::ObjId>> per_thread(kThreads);
  for (const trace::Event& e : events) {
    per_thread[static_cast<std::size_t>(e.tid)].push_back(e.obj);
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[static_cast<std::size_t>(t)].size(),
              static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(per_thread[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                static_cast<trace::ObjId>(t * kPerThread + i));
    }
  }
}

TEST(TraceLogStress, ClearKeepsShardsUsableAndResetsSeq) {
  trace::TraceLog log;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&log] {
      for (int i = 0; i < 100; ++i) log.emit(trace::Event{});
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(log.size(), 400u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.emit(trace::Event{}), 1u);  // seq restarts.
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLogStress, ConcurrentInternIsConsistent) {
  trace::TraceLog log;
  constexpr int kThreads = 6;
  std::vector<std::vector<std::uint32_t>> ids(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, &ids, t] {
      for (int i = 0; i < 200; ++i) {
        ids[static_cast<std::size_t>(t)].push_back(
            log.strings().intern("label." + std::to_string(i % 50)));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // 50 distinct labels + the empty label = 51 entries; every thread resolved
  // each label to the same id.
  EXPECT_EQ(log.strings().size(), 51u);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 200; ++i) {
      const std::uint32_t id = ids[static_cast<std::size_t>(t)][
          static_cast<std::size_t>(i)];
      EXPECT_EQ(log.strings().lookup(id), "label." + std::to_string(i % 50));
    }
  }
}

}  // namespace
}  // namespace home::detect
