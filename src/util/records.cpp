#include "src/util/records.hpp"

#include <fstream>
#include <sstream>
#include <utility>

namespace home::util::records {
namespace {

constexpr std::string_view kSeparators = " \t";
constexpr std::string_view kPlain = "\\ \t\n\r";  ///< escaped characters,
constexpr std::string_view kCoded = "\\stnr";     ///< and their escapes.

}  // namespace

std::string unescape(std::string_view s) {
  std::string out;
  if (s == "-") return out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
    } else {
      const std::size_t k = kCoded.find(s[++i]);
      out += k == std::string_view::npos ? s[i] : kPlain[k];
    }
  }
  return out;
}

bool Reader::take_line() {
  if (pos_ >= text_.size()) return false;
  const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
  line_ = text_.substr(pos_, end - pos_);
  if (!line_.empty() && line_.back() == '\r') line_.remove_suffix(1);
  pos_ = end + 1;
  ++line_no_;
  return true;
}

int Reader::header(std::initializer_list<std::string_view> versions) {
  if (take_line()) {
    for (std::size_t i = 0; i < versions.size(); ++i) {
      const std::string_view v = versions.begin()[i];
      if (line_.substr(0, v.size()) == v &&
          (line_.size() == v.size() || line_[v.size()] == ' ')) {
        return static_cast<int>(i);
      }
    }
    if (mode_ == Mode::kLenient) {
      ++skipped_;
      pos_ = line_no_ = 0;  // offer line 1 again, as a record.
    }
  }
  if (mode_ == Mode::kStrict) {
    error_ = "line " + std::to_string(line_no_) +
             ": expected version header '" + std::string(*versions.begin()) + "'";
  }
  return -1;
}

bool Reader::next() {
  while (ok() && take_line()) {
    const std::size_t first = line_.find_first_not_of(kSeparators);
    if (first == std::string_view::npos || line_[first] == '#') continue;
    unread_ = line_;
    return true;
  }
  return false;
}

void Reader::reject() {
  if (mode_ == Mode::kStrict) {
    error_ = "line " + std::to_string(line_no_) + ": malformed record '" +
             std::string(line_.substr(0, 80)) + "'";
  } else if (line_no_ != 1) {
    ++skipped_;  // a record on line 1 replaced the header, counted once.
  }
}

bool Reader::word(std::string_view* out) {
  const std::size_t start = unread_.find_first_not_of(kSeparators);
  if (start == std::string_view::npos) return false;
  unread_.remove_prefix(start);
  const std::size_t end =
      std::min(unread_.find_first_of(kSeparators), unread_.size());
  *out = unread_.substr(0, end);
  unread_.remove_prefix(end);
  return true;
}

bool Reader::rest(std::string* out) {
  const std::size_t start = unread_.find_first_not_of(kSeparators);
  if (start == std::string_view::npos) return false;
  const std::size_t end = unread_.find_last_not_of(kSeparators) + 1;
  *out = unescape(unread_.substr(start, end - start));
  unread_ = {};
  return true;
}

Writer& Writer::tag(std::string_view tag) {
  if (!out_.empty()) out_ += '\n';
  out_ += tag;
  return *this;
}

Writer& Writer::escaped(std::string_view s, bool keep_blanks) {
  out_ += ' ';
  if (s.empty() || s == "-") {
    out_ += s.empty() ? "-" : "\\-";
    return *this;
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::size_t k = kPlain.find(s[i]);
    // Rest-of-line text keeps inner blanks; blanks at its edges are trimmed.
    if (k == std::string_view::npos ||
        (keep_blanks && (k == 1 || k == 2) && i != 0 && i + 1 != s.size())) {
      out_ += s[i];
    } else {
      out_ += '\\';
      out_ += kCoded[k];
    }
  }
  return *this;
}

std::string Writer::take() {
  if (!out_.empty()) out_ += '\n';
  return std::exchange(out_, {});
}

std::string read_stream(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return read_stream(in);
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

}  // namespace home::util::records
