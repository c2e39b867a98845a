#include "src/trace/thread_registry.hpp"

#include <atomic>
#include <string>

#include "src/util/log.hpp"

namespace home::trace {
namespace {

// Cached registration for the calling thread, tagged with the serial of the
// registry that made it.  Serials are never reused, so a tid survives neither
// a ThreadRegistry::reset() nor a new registry built at a dead one's address
// (tests run many sessions on the same OS threads).
struct LocalSlot {
  std::uint64_t serial = 0;
  Tid tid = kNoTid;
};

thread_local LocalSlot tls_slot;

std::uint64_t next_serial() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ThreadRegistry::ThreadRegistry() : serial_(next_serial()) {}

Tid ThreadRegistry::register_current_thread(Tid parent, int rank, bool is_rank_main) {
  const Tid tid = register_thread(parent, rank, is_rank_main);
  bind_current_thread(tid);
  return tid;
}

Tid ThreadRegistry::register_thread(Tid parent, int rank, bool is_rank_main) {
  std::lock_guard<std::mutex> lock(mu_);
  const Tid tid = static_cast<Tid>(threads_.size());
  threads_.push_back(ThreadInfo{tid, parent, rank, is_rank_main});
  return tid;
}

Tid ThreadRegistry::worker_thread(Tid parent, int level, int slot, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = pool_.try_emplace({parent, level, slot, rank}, kNoTid);
  if (fresh) {
    it->second = static_cast<Tid>(threads_.size());
    threads_.push_back(ThreadInfo{it->second, parent, rank, false});
  }
  return it->second;
}

void ThreadRegistry::bind_current_thread(Tid tid) {
  tls_slot = LocalSlot{serial_.load(std::memory_order_acquire), tid};
  // Name the thread for log lines and the telemetry span timeline:
  // "rank0.main" / "rank1.w3" for rank-attached threads, "t<tid>" otherwise.
  const ThreadInfo ti = info(tid);
  std::string name;
  if (ti.rank != kNoRank) {
    name = "rank";
    name += std::to_string(ti.rank);
    if (ti.is_rank_main) {
      name += ".main";
    } else {
      name += ".w";
      name += std::to_string(tid);
    }
  } else {
    name = "t";
    name += std::to_string(tid);
  }
  util::set_current_thread_name(std::move(name));
}

Tid ThreadRegistry::current_tid() const {
  if (tls_slot.serial == serial_.load(std::memory_order_acquire)) {
    return tls_slot.tid;
  }
  return kNoTid;
}

int ThreadRegistry::current_rank() const {
  const Tid tid = current_tid();
  if (tid == kNoTid) return kNoRank;
  std::lock_guard<std::mutex> lock(mu_);
  return threads_[static_cast<std::size_t>(tid)].rank;
}

bool ThreadRegistry::current_is_rank_main() const {
  const Tid tid = current_tid();
  if (tid == kNoTid) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return threads_[static_cast<std::size_t>(tid)].is_rank_main;
}

ThreadInfo ThreadRegistry::info(Tid tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tid < 0 || static_cast<std::size_t>(tid) >= threads_.size()) return ThreadInfo{};
  return threads_[static_cast<std::size_t>(tid)];
}

int ThreadRegistry::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
  pool_.clear();
  serial_.store(next_serial(), std::memory_order_release);
}

ThreadRegistry& ThreadRegistry::global() {
  static ThreadRegistry registry;
  return registry;
}

}  // namespace home::trace
