// The line-record codec every HOME text format shares (DESIGN.md §15):
// a version header line, then `<tag> <field>... [<rest of line>]` records;
// blank and '#' lines are skipped.  Fields are separated by spaces or tabs.
// String fields escape '\' ' ' tab newline CR as "\\" "\s" "\t" "\n" "\r",
// the empty string as "-" and a lone "-" as "\-"; a rest-of-line field keeps
// its inner blanks raw.  Numbers must fill their whole token.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace home::util::records {

std::string unescape(std::string_view field);

/// Whole-token number parse: false on empty, partial, non-numeric or
/// out-of-range input (so "-1" is refused for an unsigned field), which
/// may leave *out changed.
template <class T>
bool parse_number(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return !token.empty() && ec == std::errc() && ptr == end;
}

/// Visits the `key=value` items of `list` separated by `sep` (empty items
/// are skipped).  False on an item without '=' or when `visit` refuses one.
template <class Visit>
bool read_pairs(std::string_view list, char sep, Visit&& visit) {
  while (!list.empty()) {
    const std::string_view item = list.substr(0, list.find(sep));
    const std::size_t eq = item.find('=');
    list.remove_prefix(std::min(item.size() + 1, list.size()));
    if (!item.empty() && (eq == std::string_view::npos ||
                          !visit(item.substr(0, eq), item.substr(eq + 1)))) {
      return false;
    }
  }
  return true;
}

enum class Mode { kStrict, kLenient };

/// Reads record lines and, within the current one, its fields; each field
/// read fails when the field is missing.  A strict reader stops at the
/// first malformed record with an error; a lenient one skips and counts it.
class Reader {
 public:
  explicit Reader(std::string_view text, Mode mode = Mode::kStrict)
      : text_(text), mode_(mode) {}

  /// Reads the first line as the version header: it must equal one of
  /// `versions` or extend it with ' ' and header fields (read them from
  /// line()).  Returns the index of the match, or -1.  On a miss, strict
  /// mode stops with an error; lenient mode counts one damaged record and
  /// offers the line again as a record (not counted twice), so a file with
  /// its head torn off keeps it.
  int header(std::initializer_list<std::string_view> versions);
  /// Moves to the next record line, skipping blank and '#' lines.  False at
  /// the end or after a strict-mode error.
  bool next();
  /// The current record is malformed: strict mode stops with an error
  /// naming the line; lenient mode skips and counts it.
  void reject();
  /// header({version}), then every record: `on_record(tag)` reads the
  /// fields and returns false when they are malformed.  Returns ok().
  template <class OnRecord>
  bool read(std::string_view version, OnRecord&& on_record) {
    std::string_view tag;
    header({version});
    while (next()) {
      if (!word(&tag) || !on_record(tag)) reject();
    }
    return ok();
  }

  bool word(std::string_view* out);  ///< the next raw token (tags, markers).
  template <class... T>
  bool num(T*... out) {  ///< the next numbers, in order.
    std::string_view token;
    return ((word(&token) && parse_number(token, out)) && ...);
  }
  bool str(std::string* out) {  ///< the next escaped string field.
    std::string_view token;
    return word(&token) && (*out = unescape(token), true);
  }
  bool rest(std::string* out);  ///< the rest of the line, unescaped.

  std::string_view line() const { return line_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::size_t skipped() const { return skipped_; }  ///< lenient damage.

 private:
  bool take_line();

  std::string_view text_;
  Mode mode_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
  std::string_view line_;
  std::string_view unread_;  ///< fields of line_ not read yet.
  std::size_t skipped_ = 0;
  std::string error_;
};

/// Builds record text.  The header line stays open for header fields; each
/// tag() ends the previous line.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::string_view header) : out_(header) {}

  Writer& tag(std::string_view tag);
  template <class... T>
  Writer& num(T... v) {
    char buf[24];
    ((out_ += ' ').append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr),
     ...);
    return *this;
  }
  Writer& str(std::string_view s) { return escaped(s, false); }
  Writer& rest(std::string_view s) { return escaped(s, true); }
  /// The finished text (the open line ended); the writer is left empty.
  /// Texts taken one after another concatenate to the text one take() at
  /// the end would give, so a long text can be written out in chunks.
  std::string take();
  std::size_t size() const { return out_.size(); }

 private:
  Writer& escaped(std::string_view s, bool keep_blanks);

  std::string out_;  ///< its last line is still open.
};

std::string read_stream(std::istream& in);
std::optional<std::string> read_file(const std::string& path);
bool write_file(const std::string& path, std::string_view text);

/// save() (overwrites) and load() (false on I/O or parse failure) for a
/// format type T with to_string() and static parse(text, T*).
template <class T>
struct TextFile {
  bool save(const std::string& path) const {
    return write_file(path, static_cast<const T&>(*this).to_string());
  }
  static bool load(const std::string& path, T* out) {
    const std::optional<std::string> text = read_file(path);
    return text && T::parse(*text, out);
  }
};

}  // namespace home::util::records
