// Sweep progress journal: an append-only, line-record (src/util/records.hpp)
// checkpoint of every completed schedule, flushed record by record, so a
// sweep killed mid-flight (crash, OOM, SIGKILL) can resume and reproduce the
// uninterrupted sweep's aggregates without re-running the schedules it
// already finished.
//
// Format (text, one record block per schedule):
//   # home sweep journal v1
//   meta schedules=<n> base_seed=<s> strategy=<name>
//   run <index> <seed> <signature> <hook_hits> <status> <retries>
//   key <index> <violation key ...rest of line>
//   err <index> <error text ...rest of line>
//   sched <index> <saved schedule path>
//   fault <index> <saved faultplan path>
//   cert <index> <built> <verified>
//   end <index>
//
// Only blocks closed by their `end` line count on load — a record torn by
// the kill is discarded and that schedule simply re-runs.  `index` is -1 for
// the baseline run.  The `meta` line guards against resuming with a
// different sweep configuration (a resumed journal must describe the same
// sweep).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace home::explore {

/// One completed (or quarantined) schedule, as checkpointed.
struct JournalEntry {
  int index = 0;  ///< -1 = baseline.
  std::uint64_t seed = 0;
  std::uint64_t signature = 0;
  std::uint64_t hook_hits = 0;
  std::string status = "ok";  ///< "ok" | "timeout" | "crash".
  int retries = 0;
  std::set<std::string> keys;
  std::vector<std::string> errors;
  std::string schedule_path;   ///< saved *.schedule artifact, if any.
  std::string faultplan_path;  ///< saved *.faultplan artifact, if any.
  std::size_t certificates = 0;
  std::size_t certificates_verified = 0;
};

/// Identity of the sweep a journal belongs to (the `meta` line).
struct JournalMeta {
  int schedules = 0;
  std::uint64_t base_seed = 0;
  std::string strategy;
};

class SweepJournal {
 public:
  /// Open `path` for appending and write the header + meta line when the
  /// file is new/empty.  ok() is false when the file cannot be opened.
  SweepJournal(const std::string& path, const JournalMeta& meta);

  bool ok() const { return out_.is_open() && out_.good(); }

  /// Append one completed schedule's record block, `end`-terminated, and
  /// flush — after record() returns, a kill cannot lose this schedule.
  void record(const JournalEntry& entry);

  /// Parse a journal.  Returns the entries of every `end`-closed block,
  /// keyed by schedule index; torn trailing blocks are dropped (counted in
  /// *torn_blocks when non-null).  Returns false when the file is missing
  /// or its header/meta line is absent or mismatched with `expect`.
  static bool load(const std::string& path, const JournalMeta& expect,
                   std::map<int, JournalEntry>* out,
                   std::size_t* torn_blocks = nullptr);

 private:
  std::ofstream out_;
};

}  // namespace home::explore
