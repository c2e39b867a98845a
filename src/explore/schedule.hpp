// The replayable decision log of schedule exploration.
//
// A Schedule is the compact record of every scheduling decision a strategy
// made during one controlled run: delays injected at yield points and
// explicit choices at pick points (wildcard-source message selection,
// posted-receive matching).  Decisions are keyed by
// (hook kind, rank, lane, site, per-key occurrence), which is stable across
// runs for a fixed control flow — each (rank, lane) executes its program in
// order — so feeding the log back through the Replay strategy re-derives the
// same choices and therefore the same violating interleaving.
//
// Serialization is a line-record text format (src/util/records.hpp; one
// decision per line, plus strategy/seed metadata) so violating schedules can
// be attached to bug reports and replayed with `toolrun --replay <file>`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/records.hpp"

namespace home::explore {

/// Where in the runtime a scheduling decision can be taken.  Yield kinds
/// consult Strategy::on_yield (delay injection); pick kinds consult
/// Strategy::on_pick (choosing among eligible alternatives).
enum class HookKind : std::uint8_t {
  // --- yield points (homp sync operations) ---------------------------------
  kBarrier,           ///< team barrier arrival (homp::barrier / worksharing).
  kCritical,          ///< entry to a named critical section.
  kLockAcquire,       ///< explicit homp::Lock acquisition.
  kChunkClaim,        ///< dynamic worksharing chunk / section / single claim.
  // --- yield points (simmpi blocking decisions) ----------------------------
  kMpiCall,           ///< any other MPI entry point (send/recv/collective...).
  kWaitTest,          ///< MPI_Wait / MPI_Test on a request.
  kProbe,             ///< MPI_Probe / MPI_Iprobe.
  kCollectiveArrive,  ///< arrival order at a collective rendezvous.
  // --- pick points (simmpi matching decisions) -----------------------------
  kRecvMatch,         ///< arriving message chooses among matching posted recvs.
  kWildcardPick,      ///< wildcard-source receive chooses among queued senders.
};

inline constexpr int kHookKindCount = 10;

const char* hook_kind_name(HookKind kind);
/// Parse a name produced by hook_kind_name; returns false on unknown names.
bool parse_hook_kind(const std::string& name, HookKind* out);

/// One recorded decision.  `is_pick` distinguishes the two decision spaces:
/// picks store the chosen index among the eligible alternatives; yields
/// store the injected delay in microseconds.
struct Decision {
  HookKind kind = HookKind::kMpiCall;
  int rank = -1;               ///< world rank of the deciding thread (-1 n/a).
  int lane = 0;                ///< homp thread slot within the rank (0 = main).
  std::string site;            ///< callsite label / hook-point name.
  std::uint64_t occurrence = 0;///< per-(kind,rank,lane,site) ordinal.
  bool is_pick = false;
  std::uint64_t value = 0;     ///< pick: chosen index; yield: delay micros.
};

/// Stable lookup key for a decision ("kind|rank|lane|site").  The occurrence
/// ordinal is kept separate so per-key counters can be maintained cheaply.
std::string decision_key(HookKind kind, int rank, int lane,
                         const std::string& site);

/// A full recorded run: strategy metadata plus the decision log.
struct Schedule : util::records::TextFile<Schedule> {
  std::string strategy;        ///< strategy name that produced this run.
  std::uint64_t seed = 0;      ///< strategy seed.
  std::vector<Decision> decisions;

  bool empty() const { return decisions.empty(); }

  std::string to_string() const;
  /// Parse the text produced by to_string; returns false on malformed input.
  static bool parse(const std::string& text, Schedule* out);
};

}  // namespace home::explore
