// Process-wide registry assigning dense small ids to every analysed thread.
//
// simmpi rank-threads and homp worker threads both register here; the
// vector-clock machinery indexes clocks by these dense Tids.  Each thread also
// carries the rank it belongs to (the "MPI process" in the rank-as-thread
// substrate) and whether it is that rank's master thread — the thread-safety
// predicates for MPI_THREAD_FUNNELED and MPI_Finalize need the latter.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "src/trace/event.hpp"

namespace home::trace {

struct ThreadInfo {
  Tid tid = kNoTid;
  Tid parent = kNoTid;
  int rank = kNoRank;
  bool is_rank_main = false;  ///< master thread of its MPI "process".
};

class ThreadRegistry {
 public:
  ThreadRegistry();

  /// Register the calling thread under a new tid and bind it to that tid.
  Tid register_current_thread(Tid parent, int rank, bool is_rank_main);

  /// Allocate a tid for a thread that has not started yet (so the parent can
  /// emit the ThreadFork event before the child runs); the child later calls
  /// bind_current_thread(tid).
  Tid register_thread(Tid parent, int rank, bool is_rank_main);

  /// The tid of worker `slot` in a team forked by `parent` at nesting
  /// `level` on `rank`: a fresh tid (registered like register_thread) on
  /// first use, the same tid for every later team of that parent at that
  /// level.  Like a pooled OpenMP runtime, the clocks then get one component
  /// per pool thread, not per region.  The level keeps a master's nested
  /// team apart from the enclosing team it is still part of.  `parent` must
  /// not be kNoTid: unrelated unregistered callers would share one pool.
  Tid worker_thread(Tid parent, int level, int slot, int rank);

  /// Bind a pre-registered tid to the calling thread.
  void bind_current_thread(Tid tid);

  /// Tid of the calling thread, or kNoTid if it never registered.
  Tid current_tid() const;

  /// Rank the calling thread belongs to (kNoRank if unregistered).
  int current_rank() const;

  bool current_is_rank_main() const;

  ThreadInfo info(Tid tid) const;
  int thread_count() const;

  /// Drop all registrations and worker pools (between independent tool
  /// sessions/tests).
  void reset();

  /// The registry used by the substrates unless a session installs another.
  static ThreadRegistry& global();

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> serial_;  ///< renewed by reset().
  std::vector<ThreadInfo> threads_;
  /// (parent, level, slot, rank) -> worker tid.
  std::map<std::tuple<Tid, int, int, int>, Tid> pool_;
};

}  // namespace home::trace
