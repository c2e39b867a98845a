#include "src/explore/journal.hpp"

#include "src/util/records.hpp"

namespace home::explore {

namespace {

namespace records = util::records;

constexpr const char* kHeader = "# home sweep journal v1";

/// The `meta` line, after the `header` line unless that is empty.
std::string meta_text(const JournalMeta& meta, std::string_view header) {
  return records::Writer(header).tag("meta")
      .str("schedules=" + std::to_string(meta.schedules))
      .str("base_seed=" + std::to_string(meta.base_seed))
      .str("strategy=" + meta.strategy).take();
}

}  // namespace

SweepJournal::SweepJournal(const std::string& path, const JournalMeta& meta) {
  // A resume appends; a fresh (missing or empty) journal gets the header.
  const bool fresh =
      std::ifstream(path).peek() == std::ifstream::traits_type::eof();
  out_.open(path, std::ios::app);
  if (!out_ || !fresh) return;
  out_ << meta_text(meta, kHeader);
  out_.flush();
}

void SweepJournal::record(const JournalEntry& entry) {
  if (!ok()) return;
  const int i = entry.index;
  records::Writer w;
  w.tag("run").num(i, entry.seed, entry.signature, entry.hook_hits)
      .str(entry.status).num(entry.retries);
  for (const std::string& key : entry.keys) w.tag("key").num(i).rest(key);
  for (const std::string& err : entry.errors) w.tag("err").num(i).rest(err);
  if (!entry.schedule_path.empty()) {
    w.tag("sched").num(i).rest(entry.schedule_path);
  }
  if (!entry.faultplan_path.empty()) {
    w.tag("fault").num(i).rest(entry.faultplan_path);
  }
  if (entry.certificates != 0 || entry.certificates_verified != 0) {
    w.tag("cert").num(i, entry.certificates, entry.certificates_verified);
  }
  w.tag("end").num(i);
  // The flush is the checkpoint: everything before it survives a kill.
  out_ << w.take();
  out_.flush();
}

bool SweepJournal::load(const std::string& path, const JournalMeta& expect,
                        std::map<int, JournalEntry>* out,
                        std::size_t* torn_blocks) {
  out->clear();
  if (torn_blocks != nullptr) *torn_blocks = 0;
  const std::optional<std::string> text = records::read_file(path);
  if (!text) return false;
  records::Reader r(*text);
  const std::string want = meta_text(expect, "");
  bool meta_matches = false;
  JournalEntry open;     // block being accumulated.
  bool block_open = false;
  std::size_t torn = 0;
  r.read(kHeader, [&](std::string_view tag) {
    // The first record must be this sweep's `meta` line; nothing after it
    // is ever refused.
    if (!meta_matches) {
      return meta_matches = want.compare(0, want.size() - 1, r.line()) == 0;
    }
    if (tag == "run") {
      torn += block_open;
      open = JournalEntry{};
      // A torn `run` line skips everything until the next block.
      block_open = r.num(&open.index, &open.seed, &open.signature,
                         &open.hook_hits) &&
                   r.str(&open.status) && r.num(&open.retries);
      return true;
    }
    if (!block_open) return true;  // orphan line after a torn block.
    int index = 0;
    const bool mine = r.num(&index) && index == open.index;
    std::string rest;
    if (tag == "end") {
      if (mine) (*out)[open.index] = open;
      torn += !mine;
      block_open = false;
    } else if (tag == "cert") {
      if (!mine || !r.num(&open.certificates, &open.certificates_verified)) {
        open.certificates = open.certificates_verified = 0;
      }
    } else if (mine && r.rest(&rest)) {
      if (tag == "key") open.keys.insert(std::move(rest));
      else if (tag == "err") open.errors.push_back(std::move(rest));
      else if (tag == "sched") open.schedule_path = std::move(rest);
      else if (tag == "fault") open.faultplan_path = std::move(rest);
    }
    return true;  // unknown tags are skipped (forward compatibility).
  });
  if (!meta_matches) return false;
  if (torn_blocks != nullptr) *torn_blocks = torn + block_open;
  return true;
}

}  // namespace home::explore
