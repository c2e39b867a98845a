#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::open(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.check = check_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order; tolerate an out-of-order close by dropping
  // everything opened after it as well.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void SpanLog::add(const std::string& name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.check = check_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

double SpanLog::Scope::close() {
  if (!closed_) {
    log_->close(index_);
    closed_ = true;
  }
  return log_->spans()[static_cast<std::size_t>(index_)].seconds();
}

void SpanLog::append(const std::vector<SpanRecord>& spans) {
  const int base = static_cast<int>(spans_.size());
  for (SpanRecord span : spans) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::vector<double> SpanLog::self_seconds() const {
  // Children intervals per parent, merged so overlapping children (none are
  // expected: spans are opened on one thread) are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> SpanLog::self_seconds_by_name() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

std::string SpanLog::to_json() const {
  const std::vector<double> self = self_seconds();
  std::ostringstream os;
  os.precision(17);
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"check\":"
       << s.check << ",\"parent\":" << s.parent << ",\"start_ns\":"
       << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"self_s\":" << self[i]
       << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace perfbench
