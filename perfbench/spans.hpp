// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into HOME's public functions.  The program under test is not instrumented;
// every span here starts and ends in a perfbench source file.
//
// Spans are held in memory and written out once, when the run ends.  A span
// carries its name, start and end (steady-clock nanoseconds, comparable
// across processes on one host), the index of its parent span and the id of
// the check it belongs to.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock now, in nanoseconds.
std::int64_t now_ns();

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the owning log; -1 = root.
  int check = -1;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  /// Open a span as a child of the innermost open span.
  int open(const std::string& name);
  void close(int index);
  /// Record a finished span as a child of the innermost open span.
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns);

  /// RAII span; seconds() is valid after the scope closes or via close().
  class Scope {
   public:
    Scope(SpanLog* log, const std::string& name)
        : log_(log), index_(log->open(name)) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// End the span now; returns its duration in seconds.
    double close();

   private:
    SpanLog* log_;
    int index_;
    bool closed_ = false;
  };

  void set_check(int check) { check_ = check; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Append another log's spans (re-indexing their parents).
  void append(const std::vector<SpanRecord>& spans);

  /// Each span's duration minus the part of it its children cover.
  std::vector<double> self_seconds() const;
  /// Self time summed per span name.
  std::map<std::string, double> self_seconds_by_name() const;

  std::string to_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int check_ = -1;
};

}  // namespace perfbench
