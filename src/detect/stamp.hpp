// Epoch stamps: the FastTrack-style representation that makes the clock
// engine O(1) on the totally-ordered common case.
//
// Every event stamp has two faces:
//
//   * StampView — the *incoming* face: the issuing thread's epoch
//     (tid, value-after-bump) plus a raw span of its live clock.  Produced
//     allocation-free by IncrementalHb::advance and valid only until the
//     next advance() call; comparisons against retained state use it while
//     the clock is current.
//
//   * Stamp — the *retained* face: the 16-byte epoch alone.  Streaming
//     frontier records and matcher calls keep nothing else.
//
// Why the epoch is enough (the FastTrack lemma, which holds here because
// IncrementalHb bumps the issuing thread's component at *every* event and
// publishes only full post-bump stamps along sync edges): for a stamp E of
// event e with epoch (t, v) and any clock C stamped at-or-after e,
//     full(E) <= C  iff  v <= C[t].
// So retained-vs-incoming orderings, retained-vs-watermark retirement (a
// pointwise meet of live thread clocks), and the V2 finalize checks are all
// answerable from the epoch in O(1) — the engine never degrades verdicts,
// only representation cost.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

/// The live view of the event being processed: epoch + a span of the
/// issuing thread's clock.  The span points into IncrementalHb state and is
/// invalidated by the next advance().
struct StampView {
  trace::Tid tid = trace::kNoTid;
  std::uint64_t value = 0;              ///< own component, after the bump.
  const std::uint64_t* clock = nullptr;
  std::size_t size = 0;
  /// The issuing thread's frame generation: two views of one thread with
  /// the same `gen` have the same clock apart from the own component, so a
  /// consumer that keeps frames (HbIndex) copies one only when it moves.
  std::uint64_t gen = 0;

  std::uint64_t get(trace::Tid t) const {
    const auto i = static_cast<std::size_t>(t);
    return i < size ? clock[i] : 0;
  }
};

/// A retained epoch: the issuing thread and its own component.
class Stamp {
 public:
  Stamp() = default;

  static Stamp epoch(const StampView& v) { return Stamp(v.tid, v.value); }

  trace::Tid tid() const { return tid_; }
  std::uint64_t value() const { return value_; }

  /// this-event happens-before-or-equals the event `later` was stamped at.
  /// Exact when `later` is stamped at-or-after this stamp's creation (the
  /// lemma above).
  bool leq_later(const StampView& later) const {
    return value_ <= later.get(tid_);
  }

  /// this-event's full stamp <= `clock` pointwise, where `clock` is a meet
  /// of live thread clocks (the retirement watermark): v <= meet[t] iff
  /// every live thread's clock dominates the full stamp.
  bool leq(const VectorClock& clock) const { return value_ <= clock.get(tid_); }

 private:
  Stamp(trace::Tid t, std::uint64_t v) : tid_(t), value_(v) {}

  trace::Tid tid_ = trace::kNoTid;
  std::uint64_t value_ = 0;
};

}  // namespace home::detect
