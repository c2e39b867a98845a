#include "src/faults/plan.hpp"

#include <charconv>
#include <string_view>

#include "src/util/records.hpp"

namespace home::faults {

namespace {

namespace records = util::records;

constexpr const char* kKindNames[kFaultKindCount] = {
    "msg_delay", "msg_drop", "rank_stall", "rank_crash", "lock_pause",
    "queue_pressure",
};

constexpr const char* kHeader = "# home faultplan v1";

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kFaultKindCount ? kKindNames[i] : "?";
}

bool parse_fault_kind(const std::string& name, FaultKind* out) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    if (name == kKindNames[i]) {
      *out = static_cast<FaultKind>(i);
      return true;
    }
  }
  return false;
}

std::string FaultSpec::to_string() const {
  // std::to_chars prints the shortest text that reads back to the same
  // value, so a recorded spec reloads exactly.
  std::string out;
  const auto field = [&out](std::string_view key, auto value) {
    char buf[32];
    if (!out.empty()) out += ',';
    (out += key) += '=';
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  field("delay", msg_delay_p);
  field("drop", msg_drop_p);
  field("stall", rank_stall_p);
  field("crash", rank_crash_p);
  field("lockpause", lock_pause_p);
  field("qpressure", queue_pressure_p);
  field("max_delay_us", max_delay_us);
  field("redeliver_us", redeliver_delay_us);
  field("max_crashes", max_crashes);
  return out;
}

bool FaultSpec::parse(const std::string& text, FaultSpec* out) {
  FaultSpec parsed;
  const auto field = [&parsed](std::string_view key, std::string_view value) {
    using records::parse_number;
    if (key == "delay") return parse_number(value, &parsed.msg_delay_p);
    if (key == "drop") return parse_number(value, &parsed.msg_drop_p);
    if (key == "stall") return parse_number(value, &parsed.rank_stall_p);
    if (key == "crash") return parse_number(value, &parsed.rank_crash_p);
    if (key == "lockpause") return parse_number(value, &parsed.lock_pause_p);
    if (key == "qpressure") return parse_number(value, &parsed.queue_pressure_p);
    if (key == "max_delay_us") return parse_number(value, &parsed.max_delay_us);
    if (key == "redeliver_us") {
      return parse_number(value, &parsed.redeliver_delay_us);
    }
    if (key == "max_crashes") return parse_number(value, &parsed.max_crashes);
    return false;
  };
  if (!records::read_pairs(text, ',', field)) return false;
  *out = parsed;
  return true;
}

std::string FaultPlan::to_string() const {
  records::Writer w(kHeader);
  w.tag("seed").num(seed);
  w.tag("spec").str(spec.to_string());
  for (const FaultDecision& d : decisions) {
    w.tag("F").str(fault_kind_name(d.kind)).num(d.rank).str(d.site)
        .num(d.occurrence, d.value);
  }
  return w.take();
}

bool FaultPlan::parse(const std::string& text, FaultPlan* out) {
  FaultPlan parsed;
  records::Reader r(text);
  // A record that fails leaves `parsed` half-filled, but it is then dropped.
  const bool ok = r.read(kHeader, [&](std::string_view tag) {
    std::string word;
    if (tag == "seed") return r.num(&parsed.seed);
    if (tag == "spec") {
      return r.str(&word) && FaultSpec::parse(word, &parsed.spec);
    }
    FaultDecision& d = parsed.decisions.emplace_back();
    return tag == "F" && r.str(&word) && parse_fault_kind(word, &d.kind) &&
           r.num(&d.rank) && r.str(&d.site) && r.num(&d.occurrence, &d.value);
  });
  if (ok) *out = std::move(parsed);
  return ok;
}

}  // namespace home::faults
