#include "src/explore/schedule.hpp"

#include "src/util/records.hpp"

namespace home::explore {

namespace {

namespace records = util::records;

constexpr const char* kHookNames[kHookKindCount] = {
    "barrier",        "critical",  "lock",       "chunk_claim",
    "mpi_call",       "wait_test", "probe",      "collective_arrive",
    "recv_match",     "wildcard_pick",
};

constexpr const char* kHeader = "# home explore schedule v1";

}  // namespace

const char* hook_kind_name(HookKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kHookKindCount ? kHookNames[i] : "?";
}

bool parse_hook_kind(const std::string& name, HookKind* out) {
  for (int i = 0; i < kHookKindCount; ++i) {
    if (name == kHookNames[i]) {
      *out = static_cast<HookKind>(i);
      return true;
    }
  }
  return false;
}

std::string decision_key(HookKind kind, int rank, int lane,
                         const std::string& site) {
  std::string key;
  key.reserve(site.size() + 16);
  key += hook_kind_name(kind);
  key += '|';
  key += std::to_string(rank);
  key += '|';
  key += std::to_string(lane);
  key += '|';
  key += site;
  return key;
}

std::string Schedule::to_string() const {
  records::Writer w(kHeader);
  w.tag("strategy").str(strategy.empty() ? "?" : strategy);
  w.tag("seed").num(seed);
  for (const Decision& d : decisions) {
    w.tag(d.is_pick ? "pick" : "yield").str(hook_kind_name(d.kind))
        .num(d.rank, d.lane).str(d.site).num(d.occurrence, d.value);
  }
  return w.take();
}

bool Schedule::parse(const std::string& text, Schedule* out) {
  Schedule parsed;
  records::Reader r(text);
  // A record that fails leaves `parsed` half-filled, but it is then dropped.
  const bool ok = r.read(kHeader, [&](std::string_view tag) {
    if (tag == "strategy") return r.str(&parsed.strategy);
    if (tag == "seed") return r.num(&parsed.seed);
    std::string kind;
    Decision& d = parsed.decisions.emplace_back();
    d.is_pick = tag == "pick";
    return (d.is_pick || tag == "yield") && r.str(&kind) &&
           parse_hook_kind(kind, &d.kind) && r.num(&d.rank, &d.lane) &&
           r.str(&d.site) && r.num(&d.occurrence, &d.value);
  });
  if (ok) *out = std::move(parsed);
  return ok;
}

}  // namespace home::explore
