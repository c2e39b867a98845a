// Static exploration guidance: the artifact the static communication
// analysis (src/sast/commstat) hands to the dynamic explorer.
//
// The static pass knows, before any run, (a) which pick sites are genuinely
// ambiguous — a wildcard receive with k statically-matchable senders has k
// real alternatives, everything else has exactly one — and (b) which site
// pairs are provably ordered on every execution (same-rank program order,
// uniquely-matched send/recv pairs).  A StaticGuidance bundles both:
//
//   * ambiguous sites drive the kGuided strategy: picks are perturbed only
//     where the static analysis says perturbation can change the execution;
//   * ordered pairs + the per-site ambiguity counts let the Sweeper compute
//     a schedule's "pick fingerprint" offline and prune schedules whose
//     ordering signature could only differ by permuting statically-ordered
//     pairs (partial-order reduction, with reasons surfaced like the
//     instrumentation plan's prune reasons).
//
// Serialized as line records (src/util/records.hpp), like Schedule files, so
// guidance can travel next to `.schedule` witnesses:
//
//   # home explore guidance v1
//   site <label> <alternatives> <occurrences> <phase>
//   ordered <before> <after> <why...>
//   phase <id> <ambiguity>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/records.hpp"

namespace home::explore {

/// A pick site the static analysis proved ambiguous: a wildcard receive
/// whose (source, tag) pattern statically matches messages from
/// `alternatives` distinct senders.
struct AmbiguousSite {
  std::string site;            ///< callsite label (CallOpts / HOME_SITE).
  std::size_t alternatives = 2;///< statically-matchable distinct sources.
  std::size_t occurrences = 1; ///< expected pick decisions at this site.
  int phase = 0;               ///< barrier-phase bucket (reporting only).
};

/// A pair of sites the static analysis proved ordered on every execution
/// (same-rank program order or a uniquely-matched message edge).  Schedules
/// whose ordering signatures differ only by such pairs are redundant.
struct OrderedPair {
  std::string before;
  std::string after;
  std::string why;  ///< "program-order(rank 1)", "unique-match", ...
};

struct StaticGuidance : util::records::TextFile<StaticGuidance> {
  std::vector<AmbiguousSite> ambiguous;
  std::vector<OrderedPair> ordered;
  /// Per barrier-phase total match ambiguity (sum of alternatives-1 over
  /// the phase's wildcard sites) — the "where is nondeterminism" histogram.
  std::vector<std::pair<int, std::size_t>> phase_ambiguity;

  bool empty() const { return ambiguous.empty() && ordered.empty(); }
  const AmbiguousSite* find(const std::string& site) const;
  /// Are the two sites statically ordered (either direction)?
  bool is_ordered_pair(const std::string& a, const std::string& b) const;

  std::string to_string() const;
  static bool parse(const std::string& text, StaticGuidance* out);
};

/// The deterministic guided pick: a pure function of (seed, site,
/// occurrence, n_eligible) — deliberately independent of rank/lane so the
/// Sweeper can predict every guided pick offline (schedule-prune
/// fingerprints).  Always returns a non-default index (>= 1) when
/// n_eligible >= 2: the default arrival order is what the baseline run
/// already covered, so guided runs spend their budget on the alternatives.
std::size_t guided_pick_value(std::uint64_t seed, const std::string& site,
                              std::uint64_t occurrence,
                              std::size_t n_eligible);

/// The pick fingerprint of one guided schedule: a hash over the guidance's
/// ambiguous sites of every pick guided_pick_value would take.  Two seeds
/// with equal fingerprints make identical pick decisions, so their runs can
/// only differ in orderings of statically-ordered pairs.
std::uint64_t guided_fingerprint(const StaticGuidance& guidance,
                                 std::uint64_t seed);

}  // namespace home::explore
