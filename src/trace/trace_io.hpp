// Trace (de)serialization: lets the dynamic phase persist its execution log
// and the analysis run offline later (the paper's offline-analysis mode).
//
// Text format, in the shared line-record grammar (src/util/records.hpp):
//   #home-trace v1
//   S <id> <label>                          (string-table entries)
//   E <seq> <tid> <rank> <kind> <obj> <aux> <nlocks> <lock>... [M <type>
//     <peer> <tag> <comm> <request> <main> <provided> <callsite>]
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/trace/trace_log.hpp"

namespace home::trace {

struct LoadedTrace {
  std::vector<Event> events;          ///< sorted by seq.
  std::vector<std::string> strings;   ///< index = interned id.

  const std::string& label(std::uint32_t id) const {
    static const std::string kEmpty;
    return id < strings.size() ? strings[id] : kEmpty;
  }
};

/// Write the log (events + string table) to a stream.
void write_trace(std::ostream& out, const TraceLog& log);

/// Loader damage accounting (lenient mode).
struct ReadStats {
  std::size_t corrupt_records = 0;  ///< malformed/short lines skipped.
};

/// Parse a trace written by write_trace. Throws std::runtime_error on
/// malformed input (including short/truncated event records).
LoadedTrace read_trace(std::istream& in);

/// Lenient parse (the codec's lenient mode): malformed or truncated records
/// are skipped and counted (into `stats` and the `trace.corrupt_records`
/// counter) — the degraded-analysis path for damaged trace files.  Never
/// throws on content; a missing header counts as one corrupt record.
LoadedTrace read_trace_lenient(std::istream& in, ReadStats* stats = nullptr);

/// Convenience file wrappers.
void save_trace_file(const std::string& path, const TraceLog& log);
LoadedTrace load_trace_file(const std::string& path);

}  // namespace home::trace
