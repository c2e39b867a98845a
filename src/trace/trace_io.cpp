#include "src/trace/trace_io.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "src/obs/telemetry.hpp"
#include "src/util/records.hpp"

namespace home::trace {
namespace {

namespace records = util::records;

constexpr const char* kHeader = "#home-trace v1";

/// Caps on parsed (untrusted) values: a corrupt string id must not turn into
/// a multi-gigabyte resize before the record is rejected.
constexpr std::uint32_t kMaxStringId = 1u << 24;
constexpr int kMaxEventKind = 64;

/// Parse one "S"/"E" record into `result`.  Returns false on any
/// malformation — short record, bad tag, absurd counts — leaving `result`
/// untouched by the failed record.
bool parse_record(std::string_view tag, records::Reader& r,
                  LoadedTrace* result) {
  if (tag == "S") {
    std::uint32_t id = 0;
    std::string text;
    if (!r.num(&id) || id > kMaxStringId || !r.str(&text)) return false;
    if (result->strings.size() <= id) result->strings.resize(id + 1);
    result->strings[id] = std::move(text);
    return true;
  }
  Event e;
  int kind = 0;
  std::size_t nlocks = 0;
  if (tag != "E" ||
      !r.num(&e.seq, &e.tid, &e.rank, &kind, &e.obj, &e.aux, &nlocks) ||
      kind < 0 || kind > kMaxEventKind) {
    return false;
  }
  e.kind = static_cast<EventKind>(kind);
  // One lock per token read, so a corrupt count allocates nothing extra.
  for (std::size_t i = 0; i < nlocks; ++i) {
    if (!r.num(&e.locks_held.emplace_back())) return false;
  }
  std::string_view marker;
  if (r.word(&marker)) {
    MpiCallInfo& info = e.mpi.emplace();
    int type = 0, main_thread = 0, provided = 0;
    if (marker != "M" ||
        !r.num(&type, &info.peer, &info.tag, &info.comm, &info.request,
               &main_thread, &provided, &info.callsite)) {
      return false;
    }
    info.type = static_cast<MpiCallType>(type);
    info.on_main_thread = main_thread != 0;
    info.provided = static_cast<std::uint8_t>(provided);
  }
  result->events.push_back(std::move(e));
  return true;
}

/// The strict and lenient loaders share this one pass, so they accept
/// exactly the same language.
LoadedTrace parse_trace(std::string_view text, records::Mode mode,
                        ReadStats* stats) {
  LoadedTrace result;
  records::Reader reader(text, mode);
  if (!reader.read(kHeader, [&](std::string_view tag) {
        return parse_record(tag, reader, &result);
      })) {
    throw std::runtime_error("trace_io: " + reader.error());
  }
  obs::Registry::global().counter("trace.corrupt_records").add(reader.skipped());
  if (stats != nullptr) stats->corrupt_records = reader.skipped();
  return result;
}

}  // namespace

// Written in chunks of about kChunkBytes, so saving a trace never holds a
// second, textual copy of it.
void write_trace(std::ostream& out, const TraceLog& log) {
  constexpr std::size_t kChunkBytes = 64 * 1024;
  records::Writer w(kHeader);
  const auto flush = [&out, &w] {
    const std::string chunk = w.take();
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  };
  for (std::uint32_t i = 0; i < log.strings().size(); ++i) {
    w.tag("S").num(i).str(log.strings().lookup(i));
    if (w.size() >= kChunkBytes) flush();
  }
  for (const Event& e : log.sorted_events()) {
    w.tag("E").num(e.seq, e.tid, e.rank, static_cast<int>(e.kind), e.obj,
                   e.aux, e.locks_held.size());
    for (ObjId lock : e.locks_held) w.num(lock);
    if (e.mpi) {
      const MpiCallInfo& m = *e.mpi;
      w.str("M").num(static_cast<int>(m.type), m.peer, m.tag, m.comm,
                     m.request, m.on_main_thread ? 1 : 0,
                     static_cast<int>(m.provided), m.callsite);
    }
    if (w.size() >= kChunkBytes) flush();
  }
  flush();
}

LoadedTrace read_trace(std::istream& in) {
  return parse_trace(records::read_stream(in), records::Mode::kStrict, nullptr);
}

LoadedTrace read_trace_lenient(std::istream& in, ReadStats* stats) {
  return parse_trace(records::read_stream(in), records::Mode::kLenient, stats);
}

void save_trace_file(const std::string& path, const TraceLog& log) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) write_trace(out, log);
  if (!out) throw std::runtime_error("trace_io: cannot write " + path);
}

LoadedTrace load_trace_file(const std::string& path) {
  const std::optional<std::string> text = records::read_file(path);
  if (!text) throw std::runtime_error("trace_io: cannot open " + path);
  return parse_trace(*text, records::Mode::kStrict, nullptr);
}

}  // namespace home::trace
