// Clock-engine equivalence: production's epoch stamps must agree with the
// independent oracle (tests/oracle/: dense clocks replayed straight from the
// raw events, never through IncrementalHb, plus the paper's O(k^2) check)
// everywhere —
//  * post-mortem: HbIndex::stamp_get equals the oracle's dense clock for
//    every event and thread, HbIndex::ordered equals the oracle's dense
//    order on every event pair (sampled on the wide trace), the epoch test
//    agrees with the dense test on every cross-thread pair of accesses to
//    one variable, a thread id that emits again after its join keeps
//    counting, per-variable verdicts equal the oracle's, and every reported
//    pair is in the oracle's racy set — across all DetectorModes, capped
//    and uncapped, on seeded random traces and on one trace 1040 thread ids
//    wide,
//  * online: the streamed frontier's verdicts and pairs pass the same checks
//    at every retirement cadence, its retained epochs answer leq_later like
//    the dense clocks, and the OnlineAnalyzer's violation keys reconcile
//    with the post-mortem pass on the paper's injected app,
//  * the supporting structures behave: FlatMap matches std::map under a
//    randomized op sequence, and ClockArena dedupes content-equal clocks
//    (trailing-zero padding included) and compacts unreferenced entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/app.hpp"
#include "src/detect/clock_arena.hpp"
#include "src/detect/flat_map.hpp"
#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/detect/stamp.hpp"
#include "src/home/session.hpp"
#include "src/homp/runtime.hpp"
#include "src/simmpi/universe.hpp"
#include "src/spec/violations.hpp"
#include "src/util/rng.hpp"
#include "tests/oracle/oracle.hpp"

namespace home::detect {
namespace {

using trace::Event;
using trace::EventKind;

// ------------------------------------------------------ random trace builder

/// Same shape as detect_equivalence_test's builder: threads interleave
/// accesses on a small variable pool under locks, with barriers and
/// cross-rank message edges — enough sync-edge variety to exercise every
/// IncrementalHb path the epoch lemma relies on.
std::vector<Event> random_trace(std::uint64_t seed) {
  util::Rng rng(seed * 0xD1B54A32D192ED03ULL + 29);
  const int threads = 2 + static_cast<int>(rng.next_below(4));   // 2..5
  const int vars = 3 + static_cast<int>(rng.next_below(6));      // 3..8
  const int locks = 1 + static_cast<int>(rng.next_below(3));     // 1..3
  const int steps = 200 + static_cast<int>(rng.next_below(600));

  std::vector<std::vector<trace::ObjId>> held(
      static_cast<std::size_t>(threads));
  std::vector<Event> events;
  trace::Seq seq = 1;
  trace::ObjId next_msg = 7000;
  std::vector<trace::ObjId> in_flight;

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
    const auto tid = static_cast<trace::Tid>(
        rng.next_below(static_cast<std::uint64_t>(threads)));
    auto& mine = held[static_cast<std::size_t>(tid)];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      const trace::ObjId var =
          100 + rng.next_below(static_cast<std::uint64_t>(vars));
      emit(tid,
           rng.next_bool(0.6) ? EventKind::kMemWrite : EventKind::kMemRead,
           var);
    } else if (roll < 70) {
      const trace::ObjId lock =
          500 + rng.next_below(static_cast<std::uint64_t>(locks));
      if (std::find(mine.begin(), mine.end(), lock) == mine.end()) {
        emit(tid, EventKind::kLockAcquire, lock);
        mine.push_back(lock);
      }
    } else if (roll < 85) {
      if (!mine.empty()) {
        const std::size_t pick = rng.next_below(mine.size());
        const trace::ObjId lock = mine[pick];
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
        emit(tid, EventKind::kLockRelease, lock);
      }
    } else if (roll < 92) {
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
      const trace::ObjId barrier = 9000 + static_cast<trace::ObjId>(step);
      for (trace::Tid t = 0; t < threads; ++t) {
        emit(t, EventKind::kBarrier, barrier,
             static_cast<std::uint64_t>(threads));
      }
    }
  }
  return events;
}

int max_tid(const std::vector<Event>& events) {
  int m = 0;
  for (const Event& e : events) m = std::max(m, static_cast<int>(e.tid));
  return m;
}

using SeqPair = std::pair<trace::Seq, trace::Seq>;

// ------------------------------------------------ checks against the oracle

/// Position of each event in `events`, by seq.
std::map<trace::Seq, std::size_t> index_by_seq(const std::vector<Event>& events) {
  std::map<trace::Seq, std::size_t> out;
  for (std::size_t i = 0; i < events.size(); ++i) out[events[i].seq] = i;
  return out;
}

/// HbIndex::stamp_get equals the oracle's dense clock for every event and
/// every thread id the trace mentions.
void expect_stamps_match(const HbIndex& hb, const oracle::Oracle& reference,
                         const std::string& where) {
  const int width = max_tid(reference.events()) + 1;
  for (std::size_t i = 0; i < reference.events().size(); ++i) {
    for (int t = 0; t < width; ++t) {
      const auto tid = static_cast<trace::Tid>(t);
      if (hb.stamp_get(i, tid) != reference.clock(i).get(tid)) {
        ADD_FAILURE() << where << ": stamp of event " << i << " differs at tid "
                      << t << " (production " << hb.stamp_get(i, tid)
                      << ", oracle " << reference.clock(i).get(tid) << ")";
        return;
      }
    }
  }
}

/// HbIndex::ordered (one stamp component read) equals the oracle's dense
/// pointwise order on every pair of events, self-pairs included.
void expect_ordered_matches(const HbIndex& hb, const oracle::Oracle& reference,
                            const std::string& where) {
  const std::size_t n = reference.events().size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (hb.ordered(i, j) != reference.ordered(i, j)) {
        ADD_FAILURE() << where << ": ordered(" << i << ", " << j
                      << ") is " << hb.ordered(i, j) << ", oracle says "
                      << reference.ordered(i, j);
        return;
      }
    }
  }
}

/// The O(1) epoch test the sweep answers with (stamp_j[tid_j] >
/// stamp_i[tid_j] for seq-ordered j < i) agrees with the oracle's dense
/// two-sided test on every cross-thread pair of accesses to one variable.
void expect_epoch_test_matches(const HbIndex& hb,
                               const oracle::Oracle& reference,
                               const std::string& where) {
  std::map<trace::ObjId, std::vector<std::size_t>> by_var;
  for (std::size_t i = 0; i < reference.events().size(); ++i) {
    if (reference.events()[i].is_access()) {
      by_var[reference.events()[i].obj].push_back(i);
    }
  }
  for (const auto& [var, idx] : by_var) {
    for (std::size_t b = 1; b < idx.size(); ++b) {
      for (std::size_t a = 0; a < b; ++a) {
        const std::size_t j = idx[a];
        const std::size_t i = idx[b];
        const trace::Tid tj = reference.events()[j].tid;
        if (tj == reference.events()[i].tid) continue;
        const bool epoch = hb.stamp_get(j, tj) > hb.stamp_get(i, tj);
        if (epoch != reference.concurrent(j, i)) {
          ADD_FAILURE() << where << ": epoch test wrong for var " << var
                        << " pair (" << j << ", " << i << ")";
          return;
        }
      }
    }
  }
}

/// Production verdicts equal the oracle's, and every reported pair is in
/// the oracle's racy set.
void expect_report_matches(const ConcurrencyReport& report,
                           const oracle::Oracle& reference,
                           const std::map<trace::ObjId, bool>& expected,
                           const std::string& where) {
  std::map<trace::ObjId, bool> got;
  for (const auto& [var, verdict] : report.verdicts()) {
    got[var] = verdict.concurrent;
    for (const ConcurrentPair& p : verdict.pairs) {
      EXPECT_TRUE(oracle::accesses_racy(reference, p.first, p.second))
          << where << ": reported pair (" << p.first << ", " << p.second
          << ") of var " << var << " is not racy";
    }
  }
  EXPECT_EQ(got, expected) << where;
}

// ----------------------------------------------- post-mortem vs the oracle

class ClockEngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ClockEngineEquivalence, PostMortemVerdictsAndPairsMatch) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kLocksetOnly,
        DetectorMode::kHbOnly}) {
    const oracle::Oracle reference(events, mode);
    const auto expected = reference.verdicts();
    for (const std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
      RaceDetectorConfig cfg;
      cfg.mode = mode;
      cfg.max_pairs_per_var = cap;
      cfg.analysis_threads = 1;
      const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
      const std::string where = std::string("mode=") +
                                detector_mode_name(mode) +
                                " cap=" + std::to_string(cap) +
                                " seed=" + std::to_string(seed);
      expect_report_matches(report, reference, expected, where);
      if (cap == 0) {  // the HB index does not depend on the pair cap.
        expect_stamps_match(report.hb(), reference, where);
        expect_ordered_matches(report.hb(), reference, where);
        expect_epoch_test_matches(report.hb(), reference, where);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockEngineEquivalence,
                         ::testing::Range(0, 60));

// ------------------------------------------------- streamed vs the oracle

struct Streamed {
  std::map<trace::ObjId, std::vector<SeqPair>> pairs;
  std::map<trace::ObjId, bool> verdicts;
};

/// Streams `events` through IncrementalHb + IncrementalFrontier, retiring
/// every `retire_every` events (0 = never).  With `reference` given, also
/// checks each access's retained epoch stamp against the oracle: for every
/// seq-earlier cross-thread access j of the same variable, !epoch_j
/// .leq_later(view_i) must equal the dense concurrent(j, i).
Streamed stream(const std::vector<Event>& events, const RaceDetectorConfig& cfg,
                std::size_t retire_every,
                const oracle::Oracle* reference = nullptr) {
  HappensBeforeConfig hb_cfg;
  hb_cfg.lock_edges = (cfg.mode == DetectorMode::kHbOnly);
  IncrementalHb hb(hb_cfg);
  for (int t = 0; t <= max_tid(events); ++t) {
    hb.declare_thread(static_cast<trace::Tid>(t));
  }
  IncrementalFrontier frontier(cfg);

  Streamed out;
  std::map<trace::ObjId, std::vector<std::size_t>> seen;  // for `reference`.
  std::vector<Stamp> epochs(events.size());
  std::vector<IncrementalFrontier::PairHit> hits;
  std::size_t since_retire = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const StampView stamp = hb.advance(e);
    if (e.is_access()) {
      if (reference != nullptr) {
        epochs[i] = Stamp::epoch(stamp);
        for (const std::size_t j : seen[e.obj]) {
          if (events[j].tid == e.tid) continue;
          EXPECT_EQ(!epochs[j].leq_later(stamp), reference->concurrent(j, i))
              << "var=" << e.obj << " pair (" << j << ", " << i << ")";
        }
        seen[e.obj].push_back(i);
      }
      auto rec = std::make_shared<OnlineAccess>();
      rec->seq = e.seq;
      rec->tid = e.tid;
      rec->write = e.is_write();
      rec->locks = e.locks_held;
      hits.clear();
      frontier.on_access(e.obj, std::move(rec), stamp, &hits);
      auto& pairs = out.pairs[e.obj];
      for (const auto& hit : hits) {
        pairs.emplace_back(hit.first->seq, hit.second->seq);
      }
    }
    if (retire_every != 0 && ++since_retire >= retire_every) {
      since_retire = 0;
      VectorClock wm;
      if (hb.watermark(&wm)) {
        frontier.retire(wm);
        hb.retire(wm);
      }
    }
  }
  for (const auto& [var, meta] : frontier.meta()) {
    out.verdicts[var] = meta.concurrent;
  }
  return out;
}

class ClockEngineStreaming : public ::testing::TestWithParam<int> {};

TEST_P(ClockEngineStreaming, StreamedPairsMatchAtEveryRetireCadence) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  const auto seq_index = index_by_seq(events);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kHbOnly}) {
    const oracle::Oracle reference(events, mode);
    const auto expected = reference.verdicts();
    RaceDetectorConfig cfg;
    cfg.mode = mode;
    cfg.analysis_threads = 1;
    stream(events, cfg, 0, &reference);  // retained epochs vs dense clocks.
    for (const std::size_t cadence :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      const Streamed got = stream(events, cfg, cadence);
      EXPECT_EQ(got.verdicts, expected)
          << "mode=" << detector_mode_name(mode) << " cadence=" << cadence
          << " seed=" << seed;
      for (const auto& [var, pairs] : got.pairs) {
        for (const SeqPair& p : pairs) {
          EXPECT_TRUE(oracle::accesses_racy(reference, seq_index.at(p.first),
                                            seq_index.at(p.second)))
              << "var=" << var << " mode=" << detector_mode_name(mode)
              << " cadence=" << cadence << " seed=" << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockEngineStreaming, ::testing::Range(0, 24));

TEST(ClockEngineStreaming, RacyRecordsKeepTheirEpochs) {
  // A racy trace: every record of a racy pair still holds its own epoch
  // (nothing is promoted to a full clock), and the stream performs exactly
  // the HB tests the post-mortem sweep does.
  const std::vector<Event> events = random_trace(7);
  RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;
  IncrementalHb hb(happens_before_config(cfg.mode));
  IncrementalFrontier frontier(cfg);
  std::map<trace::Seq, std::uint64_t> own;  // each access's epoch value.
  std::vector<IncrementalFrontier::PairHit> hits;
  std::size_t pairs = 0;
  for (const Event& e : events) {
    const StampView stamp = hb.advance(e);
    if (!e.is_access()) continue;
    auto rec = std::make_shared<OnlineAccess>();
    rec->seq = e.seq;
    rec->tid = e.tid;
    rec->write = e.is_write();
    rec->locks = e.locks_held;
    own[e.seq] = stamp.value;
    hits.clear();
    frontier.on_access(e.obj, std::move(rec), stamp, &hits);
    pairs += hits.size();
    for (const auto& hit : hits) {
      for (const OnlineAccess* r : {hit.first.get(), hit.second.get()}) {
        EXPECT_EQ(r->stamp.tid(), r->tid);
        EXPECT_EQ(r->stamp.value(), own.at(r->seq));
      }
    }
  }
  ASSERT_GT(pairs, 0u) << "trace should be racy";
  const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
  std::size_t post_mortem_hits = 0;
  for (const auto& [var, verdict] : report.verdicts()) {
    post_mortem_hits += verdict.epoch_hits;
  }
  EXPECT_GT(frontier.epoch_hits(), 0u);
  EXPECT_EQ(frontier.epoch_hits(), post_mortem_hits);
}

// ------------------------------------------ a joined thread id emits again

TEST(ReEmission, JoinedTidThatEmitsAgainMatchesTheOracle) {
  // t0 forks t1; t1 writes x; t0 joins t1; t1 writes x again; t0 writes x.
  // t1's second write is unordered with t0's: the join absorbed only what
  // t1 did before it.  t1 must keep counting (own component 2, not a
  // restart at 1) or that write would look ordered before t0's.
  auto event = [](trace::Seq seq, trace::Tid tid, EventKind kind,
                  trace::ObjId obj) {
    Event e;
    e.seq = seq;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    return e;
  };
  constexpr trace::ObjId kX = 100;
  const std::vector<Event> events = {
      event(1, 0, EventKind::kThreadFork, 1),
      event(2, 1, EventKind::kMemWrite, kX),
      event(3, 0, EventKind::kThreadJoin, 1),
      event(4, 1, EventKind::kMemWrite, kX),
      event(5, 0, EventKind::kMemWrite, kX),
  };
  const auto seq_index = index_by_seq(events);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kLocksetOnly,
        DetectorMode::kHbOnly}) {
    const std::string where = std::string("mode=") + detector_mode_name(mode);
    const oracle::Oracle reference(events, mode);
    const auto expected = reference.verdicts();
    ASSERT_TRUE(expected.at(kX)) << where;
    RaceDetectorConfig cfg;
    cfg.mode = mode;
    cfg.analysis_threads = 1;
    const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
    expect_report_matches(report, reference, expected, where);
    expect_stamps_match(report.hb(), reference, where);
    expect_ordered_matches(report.hb(), reference, where);
    const HbIndex& hb = report.hb();
    EXPECT_EQ(hb.stamp_get(3, 1), 2u) << where;
    EXPECT_TRUE(hb.concurrent(3, 4)) << where;
    // Dense own components keep the O(1) position and frontier lookups.
    EXPECT_EQ(hb.thread_position(3), 1u) << where;
    EXPECT_EQ(hb.knowledge_frontier(2, 1), 1u) << where;
    EXPECT_EQ(hb.knowledge_frontier(4, 1), 1u) << where;

    if (mode == DetectorMode::kLocksetOnly) continue;  // never retires.
    // Streamed, the joined clock is reclaimed after the join at cadence 1
    // (the watermark dominates it) and the re-emitting tid resumes from
    // its own high-water mark.
    for (const std::size_t cadence : {std::size_t{0}, std::size_t{1}}) {
      const Streamed got = stream(events, cfg, cadence);
      EXPECT_EQ(got.verdicts, expected) << where << " cadence=" << cadence;
      for (const auto& [var, pairs] : got.pairs) {
        for (const SeqPair& p : pairs) {
          EXPECT_TRUE(oracle::accesses_racy(reference, seq_index.at(p.first),
                                            seq_index.at(p.second)))
              << where << " cadence=" << cadence << " var=" << var;
        }
      }
    }
  }
}

TEST(ReEmission, ReclaimedClockResumesOwnComponent) {
  // The same history fed to IncrementalHb directly: retire() reclaims the
  // joined clock (the watermark dominates it), and t1's next stamp still
  // continues at 2.  What was reclaimed is in every live clock already, so
  // dropping it orders no retained record differently.
  auto event = [](trace::Seq seq, trace::Tid tid, EventKind kind,
                  trace::ObjId obj) {
    Event e;
    e.seq = seq;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    return e;
  };
  IncrementalHb hb;
  hb.declare_thread(0);
  hb.declare_thread(1);
  hb.advance(event(1, 0, EventKind::kThreadFork, 1));
  hb.advance(event(2, 1, EventKind::kMemWrite, 100));
  hb.advance(event(3, 0, EventKind::kThreadJoin, 1));
  EXPECT_EQ(hb.clock(1), nullptr);  // joined: no longer live.
  VectorClock wm;
  ASSERT_TRUE(hb.watermark(&wm));
  const std::size_t before = hb.resident_clock_bytes();
  hb.retire(wm);
  EXPECT_LT(hb.resident_clock_bytes(), before);  // the joined clock is gone.
  const StampView again = hb.advance(event(4, 1, EventKind::kMemWrite, 100));
  EXPECT_EQ(again.value, 2u);
  EXPECT_EQ(again.get(0), 0u);  // the reclaimed history.
}

// --------------------------------------------------- the oracle at width

/// A seeded trace over `threads` thread ids (>= 1024, the width at which
/// dense clocks and epochs diverge most in cost): a main thread forks every
/// other thread, then threads interleave accesses on a small variable pool
/// under locks, point-to-point message edges, and 4-thread group barriers.
/// Three variable families keep the verdicts mode-dependent: the shared
/// pool (100..111) races; 200..203 are only written inside one lock's
/// critical section (clean in every mode); each group's variable (300 + g)
/// is written by one member and then barrier-separated from the next write
/// (HB-ordered, but lockset-only still flags it).
std::vector<Event> wide_trace(std::uint64_t seed, int threads, int steps) {
  util::Rng rng(seed);
  std::vector<std::vector<trace::ObjId>> held(
      static_cast<std::size_t>(threads));
  std::vector<Event> events;
  trace::Seq seq = 1;
  auto emit = [&](trace::Tid tid, EventKind kind, trace::ObjId obj,
                  std::uint64_t aux = 0) {
    Event e;
    e.seq = seq++;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    e.aux = aux;
    e.locks_held = held[static_cast<std::size_t>(tid)];
    events.push_back(std::move(e));
  };
  for (trace::Tid t = 1; t < threads; ++t) {
    emit(0, EventKind::kThreadFork, static_cast<trace::ObjId>(t));
  }
  trace::ObjId next_msg = 70000;
  std::vector<trace::ObjId> in_flight;
  for (int step = 0; step < steps; ++step) {
    const auto tid = static_cast<trace::Tid>(
        rng.next_below(static_cast<std::uint64_t>(threads)));
    auto& mine = held[static_cast<std::size_t>(tid)];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 60) {
      emit(tid,
           rng.next_bool(0.6) ? EventKind::kMemWrite : EventKind::kMemRead,
           100 + rng.next_below(12));
    } else if (roll < 70) {
      if (mine.empty()) {
        const trace::ObjId lock = 500 + rng.next_below(2);
        emit(tid, EventKind::kLockAcquire, lock);
        mine.push_back(lock);
      } else {
        const trace::ObjId lock = mine.back();
        mine.pop_back();
        emit(tid, EventKind::kLockRelease, lock);
      }
    } else if (roll < 90) {
      if (rng.next_bool(0.5) || in_flight.empty()) {
        emit(tid, EventKind::kMsgSend, next_msg);
        in_flight.push_back(next_msg++);
      } else {
        const std::size_t pick = rng.next_below(in_flight.size());
        emit(tid, EventKind::kMsgRecv, in_flight[pick]);
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (roll < 95) {
      const trace::Tid first = tid - tid % 4;
      emit(tid, EventKind::kMemWrite, 300 + static_cast<trace::ObjId>(tid / 4));
      for (trace::Tid t = first; t < first + 4 && t < threads; ++t) {
        emit(t, EventKind::kBarrier, 90000 + static_cast<trace::ObjId>(step),
             static_cast<std::uint64_t>(std::min(4, threads - first)));
      }
    } else if (mine.empty()) {
      const trace::ObjId var = 200 + rng.next_below(4);
      emit(tid, EventKind::kLockAcquire, 600);
      mine.push_back(600);
      emit(tid, EventKind::kMemWrite, var);
      mine.pop_back();
      emit(tid, EventKind::kLockRelease, 600);
    }
  }
  return events;
}

/// HbIndex::ordered (one component read) against the oracle's 1040-wide
/// dense order: 100k seeded uniform pairs, plus the pairs an O(1) order
/// gets wrong first if the own-component lemma breaks — same-thread pairs,
/// self-pairs, and barrier completers (stamped before the fan-out joins
/// back into their own clock) against their fellow arrivals, those
/// arrivals' next events, and random events.
void expect_ordered_matches_sampled(const HbIndex& hb,
                                    const oracle::Oracle& reference,
                                    std::uint64_t seed,
                                    const std::string& where) {
  const std::vector<Event>& events = reference.events();
  const std::size_t n = events.size();
  std::size_t checked = 0;
  std::size_t ordered = 0;
  std::size_t mismatches = 0;
  auto check = [&](std::size_t i, std::size_t j) {
    ++checked;
    const bool got = hb.ordered(i, j);
    ordered += got ? 1 : 0;
    if (got != reference.ordered(i, j) && ++mismatches <= 5) {
      ADD_FAILURE() << where << ": ordered(" << i << ", " << j << ") is "
                    << got;
    }
  };
  util::Rng rng(seed);
  for (int k = 0; k < 100000; ++k) {
    check(rng.next_below(n), rng.next_below(n));
  }
  for (int k = 0; k < 20000; ++k) {  // same thread, both directions.
    const std::size_t i = rng.next_below(n);
    const std::vector<std::uint32_t>& mine = hb.events_of(events[i].tid);
    check(i, mine[rng.next_below(mine.size())]);
  }
  for (std::size_t i = 0; i < n; ++i) check(i, i);
  std::size_t completers = 0;
  std::map<trace::ObjId, std::vector<std::size_t>> arrived;
  for (std::size_t done = 0; done < n; ++done) {
    if (events[done].kind != EventKind::kBarrier) continue;
    std::vector<std::size_t>& group = arrived[events[done].obj];
    group.push_back(done);
    if (group.size() < events[done].aux) continue;
    ++completers;
    for (const std::size_t a : group) {
      check(a, done);
      check(done, a);
      const std::vector<std::uint32_t>& mine = hb.events_of(events[a].tid);
      const std::size_t next = hb.thread_position(a) + 1;
      if (next < mine.size()) {
        check(done, mine[next]);
        check(mine[next], done);
      }
    }
    for (int k = 0; k < 16; ++k) {
      const std::size_t other = rng.next_below(n);
      check(done, other);
      check(other, done);
    }
    arrived.erase(events[done].obj);
  }
  EXPECT_GT(completers, 0u) << where;
  EXPECT_EQ(mismatches, 0u) << where << " over " << checked << " pairs";
  // Both answers occur, so the comparison is not vacuous.
  EXPECT_GT(ordered, 0u) << where;
  EXPECT_LT(ordered, checked) << where;
}

TEST(OracleAtWidth, StampsAndVerdictsMatchOverA1040WideTrace) {
  const std::vector<Event> events = wide_trace(/*seed=*/1040, /*threads=*/1040,
                                               /*steps=*/4000);
  ASSERT_GE(max_tid(events) + 1, 1024);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kLocksetOnly,
        DetectorMode::kHbOnly}) {
    const oracle::Oracle reference(events, mode);
    const auto expected = reference.verdicts();
    RaceDetectorConfig cfg;
    cfg.mode = mode;
    cfg.max_pairs_per_var = 0;
    const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
    const std::string where = std::string("mode=") + detector_mode_name(mode);
    expect_stamps_match(report.hb(), reference, where);
    expect_ordered_matches_sampled(
        report.hb(), reference, 0x0D1E4ED + static_cast<std::uint64_t>(mode),
        where);
    expect_report_matches(report, reference, expected, where);
    // Both verdicts occur, so the comparison is not vacuous.
    const auto racy = std::count_if(expected.begin(), expected.end(),
                                    [](const auto& v) { return v.second; });
    EXPECT_GT(racy, 0) << where;
    EXPECT_LT(static_cast<std::size_t>(racy), expected.size()) << where;
  }
}

// ---------------------------------- end-to-end online pipeline vs the oracle

std::set<std::string> key_set(const Report& report) {
  std::set<std::string> keys;
  for (const spec::Violation& v : report.violations()) {
    keys.insert(spec::violation_key(v));
  }
  return keys;
}

struct OnlineRun {
  bool ok = false;
  Reconciliation reconciliation;
  std::set<std::string> keys;
  std::vector<Event> events;  ///< the retained trace, seq-sorted.
};

OnlineRun run_online(const apps::AppConfig& app, const SessionConfig& scfg) {
  Session session(scfg);
  simmpi::UniverseConfig ucfg;
  ucfg.nranks = app.nranks;
  ucfg.block_timeout_ms = app.block_timeout_ms;
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(app.nthreads);
  OnlineRun run;
  run.ok = universe.run([&app](simmpi::Process& p) {
                     apps::run_app_rank(app, p);
                   }).ok();
  session.detach(universe);
  run.keys = key_set(session.analyze());
  run.reconciliation = session.reconciliation();
  run.events = session.log().sorted_events();
  return run;
}

TEST(ClockEngineOnline, AnalyzerViolationKeySetsMatchAcrossEngines) {
  // The full streaming pipeline (Session in kOnline mode) on the paper's
  // injected-violation app at two retirement cadences: each run reconciles
  // cleanly against the post-mortem pass, both report the same non-empty
  // violation-key set, and on each recorded trace the detector's stamps and
  // verdicts equal the oracle's.
  const apps::AppConfig app = apps::paper_config(apps::AppKind::kLU, 2);
  std::set<std::string> first_keys;
  for (const std::size_t retire : {std::size_t{64}, std::size_t{1024}}) {
    SessionConfig scfg;
    scfg.mode = AnalysisMode::kOnline;
    scfg.online.retire_interval = retire;
    const OnlineRun run = run_online(app, scfg);
    ASSERT_TRUE(run.ok);
    EXPECT_TRUE(run.reconciliation.ran);
    EXPECT_TRUE(run.reconciliation.equivalent) << "retire=" << retire;
    EXPECT_FALSE(run.keys.empty());
    if (first_keys.empty()) {
      first_keys = run.keys;
    } else {
      EXPECT_EQ(run.keys, first_keys) << "retire=" << retire;
    }

    const oracle::Oracle reference(run.events, scfg.detector);
    const ConcurrencyReport report =
        RaceDetector(make_detector_config(scfg)).analyze(run.events);
    const std::string where = "retire=" + std::to_string(retire);
    expect_stamps_match(report.hb(), reference, where);
    expect_report_matches(report, reference, reference.verdicts(), where);
  }
}

// ------------------------------------------------------------- ClockArena

TEST(ClockArena, InternDedupesAndNormalizesTrailingZeros) {
  ClockArena arena;
  const std::uint64_t a[] = {3, 5, 0, 0};
  const std::uint64_t b[] = {3, 5};
  const std::uint64_t c[] = {3, 5, 7};
  const ClockRef ra = arena.intern(a, 4);
  const ClockRef rb = arena.intern(b, 2);
  const ClockRef rc = arena.intern(c, 3);
  EXPECT_EQ(ra.get(), rb.get());  // padding-insensitive: one allocation.
  EXPECT_NE(ra.get(), rc.get());
  EXPECT_EQ(ra->size(), 2u);  // stored normalized.
  EXPECT_EQ(ra->get(0), 3u);
  EXPECT_EQ(ra->get(1), 5u);
  EXPECT_EQ(ra->get(9), 0u);  // out-of-range reads as zero.
  EXPECT_EQ(arena.resident_clocks(), 2u);
}

TEST(ClockArena, CompactDropsOnlyUnreferencedClocks) {
  ClockArena arena;
  const std::uint64_t a[] = {1, 2};
  const std::uint64_t b[] = {9};
  ClockRef keep = arena.intern(a, 2);
  arena.intern(b, 1);  // ref dropped immediately; only the table holds it.
  ASSERT_EQ(arena.resident_clocks(), 2u);
  EXPECT_EQ(arena.compact(), 1u);  // only the unreferenced entry goes.
  EXPECT_EQ(arena.resident_clocks(), 1u);
  // The survivor is still served from the table.
  EXPECT_EQ(arena.intern(a, 2).get(), keep.get());
}

TEST(ClockArena, ConcurrentInternDedupesAcrossShards) {
  // The intern table is sharded by content hash; racing threads interning
  // the same clocks must still converge on one canonical instance each.
  ClockArena arena;
  constexpr int kThreads = 8;
  constexpr int kClocks = 64;
  std::vector<std::vector<ClockRef>> refs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, &refs, t] {
      for (int i = 0; i < kClocks; ++i) {
        const std::uint64_t c[3] = {static_cast<std::uint64_t>(i),
                                    static_cast<std::uint64_t>(i * 7 + 1),
                                    static_cast<std::uint64_t>(i % 5)};
        refs[static_cast<std::size_t>(t)].push_back(arena.intern(c, 3));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kClocks; ++i) {
      EXPECT_EQ(refs[0][static_cast<std::size_t>(i)].get(),
                refs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
                    .get());
    }
  }
  EXPECT_EQ(arena.resident_clocks(), static_cast<std::size_t>(kClocks));
}

TEST(ClockArena, EmptyClockInterns) {
  ClockArena arena;
  const std::uint64_t zeros[] = {0, 0, 0};
  const ClockRef r1 = arena.intern(zeros, 3);
  const ClockRef r2 = arena.intern(nullptr, 0);
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(r1->size(), 0u);
}

// ---------------------------------------------------------------- FlatMap

TEST(FlatMap, RandomizedOpsMatchStdMap) {
  util::Rng rng(1234);
  FlatMap<std::uint64_t> flat;
  std::map<trace::ObjId, std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const trace::ObjId key = rng.next_below(200);  // dense enough to collide.
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 50) {
      const std::uint64_t v = rng.next_below(1000);
      flat[key] = v;
      ref[key] = v;
    } else if (roll < 75) {
      EXPECT_EQ(flat.erase(key), ref.erase(key) > 0) << "op " << op;
    } else {
      const std::uint64_t* got = flat.find(key);
      auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
  }
  // Full-content check via iteration.
  std::map<trace::ObjId, std::uint64_t> dumped;
  flat.for_each([&dumped](trace::ObjId k, const std::uint64_t& v) {
    dumped[k] = v;
  });
  EXPECT_EQ(dumped, ref);
}

TEST(FlatMap, EraseIfMatchesStdMapSemantics) {
  util::Rng rng(77);
  FlatMap<std::uint64_t> flat;
  std::map<trace::ObjId, std::uint64_t> ref;
  for (int i = 0; i < 500; ++i) {
    const trace::ObjId key = rng.next_below(300);
    const std::uint64_t v = rng.next_below(10);
    flat[key] = v;
    ref[key] = v;
  }
  const std::size_t removed = flat.erase_if(
      [](trace::ObjId, const std::uint64_t& v) { return v % 3 == 0; });
  std::size_t ref_removed = 0;
  for (auto it = ref.begin(); it != ref.end();) {
    if (it->second % 3 == 0) {
      it = ref.erase(it);
      ++ref_removed;
    } else {
      ++it;
    }
  }
  EXPECT_EQ(removed, ref_removed);
  std::map<trace::ObjId, std::uint64_t> dumped;
  flat.for_each([&dumped](trace::ObjId k, const std::uint64_t& v) {
    dumped[k] = v;
  });
  EXPECT_EQ(dumped, ref);
}

// ------------------------------------------------------------------ Stamp

TEST(Stamp, EpochLeqAgainstLaterViewAndWatermark) {
  // Build a real two-thread history through IncrementalHb and check the
  // retained epoch's answers against the oracle's dense clocks for the
  // same events.
  auto event = [](trace::Seq seq, trace::Tid tid, EventKind kind,
                  trace::ObjId obj) {
    Event e;
    e.seq = seq;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    return e;
  };
  const std::vector<Event> events = {
      event(1, 0, EventKind::kMemWrite, 100),
      event(2, 1, EventKind::kMemWrite, 100),  // unsynchronized.
      event(3, 0, EventKind::kMsgSend, 7000),
      event(4, 1, EventKind::kMsgRecv, 7000),  // now ordered after event 1.
  };
  const oracle::Oracle reference(events, DetectorMode::kHybrid);
  IncrementalHb hb;
  const StampView v1 = hb.advance(events[0]);
  const Stamp epoch = Stamp::epoch(v1);
  const VectorClock c1(v1.clock, v1.size);
  EXPECT_EQ(c1, reference.clock(0));

  const StampView v2 = hb.advance(events[1]);
  EXPECT_TRUE(reference.concurrent(0, 1));
  EXPECT_FALSE(epoch.leq_later(v2));

  hb.advance(events[2]);
  const StampView v4 = hb.advance(events[3]);
  EXPECT_TRUE(reference.ordered(0, 3));
  EXPECT_TRUE(epoch.leq_later(v4));

  // Watermark form: epoch vs the meet of both live clocks.
  VectorClock wm;
  ASSERT_TRUE(hb.watermark(&wm));
  EXPECT_EQ(epoch.leq(wm), reference.clock(0).leq(wm));
  EXPECT_EQ(epoch.leq(c1), true);  // its own clock dominates it.
}

}  // namespace
}  // namespace home::detect
