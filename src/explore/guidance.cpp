#include "src/explore/guidance.hpp"

#include "src/util/records.hpp"
#include "src/util/rng.hpp"

namespace home::explore {

namespace {

namespace records = util::records;

constexpr const char* kHeader = "# home explore guidance v1";

std::uint64_t fold_string(std::uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const AmbiguousSite* StaticGuidance::find(const std::string& site) const {
  for (const AmbiguousSite& s : ambiguous) {
    if (s.site == site) return &s;
  }
  return nullptr;
}

bool StaticGuidance::is_ordered_pair(const std::string& a,
                                     const std::string& b) const {
  for (const OrderedPair& p : ordered) {
    if ((p.before == a && p.after == b) || (p.before == b && p.after == a)) {
      return true;
    }
  }
  return false;
}

std::string StaticGuidance::to_string() const {
  records::Writer w(kHeader);
  for (const AmbiguousSite& s : ambiguous) {
    w.tag("site").str(s.site).num(s.alternatives, s.occurrences, s.phase);
  }
  for (const OrderedPair& p : ordered) {
    w.tag("ordered").str(p.before).str(p.after).rest(p.why);
  }
  for (const auto& [phase, ambiguity] : phase_ambiguity) {
    w.tag("phase").num(phase, ambiguity);
  }
  return w.take();
}

bool StaticGuidance::parse(const std::string& text, StaticGuidance* out) {
  StaticGuidance parsed;
  records::Reader r(text);
  // A record that fails leaves `parsed` half-filled, but it is then dropped.
  const bool ok = r.read(kHeader, [&](std::string_view tag) {
    if (tag == "site") {
      AmbiguousSite& s = parsed.ambiguous.emplace_back();
      return r.str(&s.site) && r.num(&s.alternatives, &s.occurrences, &s.phase);
    }
    if (tag == "ordered") {
      OrderedPair& p = parsed.ordered.emplace_back();
      if (!r.str(&p.before) || !r.str(&p.after)) return false;
      r.rest(&p.why);  // optional.
      return true;
    }
    auto& [phase, ambiguity] = parsed.phase_ambiguity.emplace_back();
    return tag == "phase" && r.num(&phase, &ambiguity);
  });
  if (ok) *out = std::move(parsed);
  return ok;
}

std::size_t guided_pick_value(std::uint64_t seed, const std::string& site,
                              std::uint64_t occurrence,
                              std::size_t n_eligible) {
  if (n_eligible < 2) return 0;
  // Seeded choice among the non-default alternatives only: index 0 is the
  // arrival order every uncontrolled run already covers.  Keyed by (seed,
  // site, occurrence) and nothing else — rank and lane are deliberately
  // excluded so the Sweeper can evaluate this function offline.
  std::uint64_t h = fold_string(0xcbf29ce484222325ULL, site);
  h ^= occurrence + 1;
  std::uint64_t s = seed ^ h ^ 0x9e3779b97f4a7c15ULL;
  return 1 + static_cast<std::size_t>(util::splitmix64(s) % (n_eligible - 1));
}

std::uint64_t guided_fingerprint(const StaticGuidance& guidance,
                                 std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  for (const AmbiguousSite& s : guidance.ambiguous) {
    h = fold_string(h, s.site);
    for (std::uint64_t occ = 0; occ < s.occurrences; ++occ) {
      fold(guided_pick_value(seed, s.site, occ, s.alternatives));
    }
  }
  return h;
}

}  // namespace home::explore
