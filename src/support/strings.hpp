// Small string / container helpers used across the compiler.
#pragma once

#include <array>
#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace roccc {

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` starts with / ends with the given affix.
bool startsWith(const std::string& s, const std::string& prefix);
bool endsWith(const std::string& s, const std::string& suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replaceAll(std::string s, const std::string& from, const std::string& to);

namespace detail {

/// One rendered fmt() argument. Strings are referenced in place and
/// integers rendered into `digits_`; every other type goes through
/// operator<< into `owned_`, so each renders exactly as a stream would.
/// The view may point into the object itself, so it is never copied.
class FmtArg {
 public:
  FmtArg() = default;
  FmtArg(const FmtArg&) = delete;
  FmtArg& operator=(const FmtArg&) = delete;

  template <typename T>
  void set(const T& v) {
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      view_ = v;
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool> && !std::is_same_v<T, char> &&
                         !std::is_same_v<T, signed char> && !std::is_same_v<T, unsigned char>) {
      const auto end = std::to_chars(digits_, digits_ + sizeof digits_, v).ptr;
      view_ = std::string_view(digits_, static_cast<size_t>(end - digits_));
    } else {
      std::ostringstream os;
      os << v;
      owned_ = os.str();
      view_ = owned_;
    }
  }
  std::string_view view() const { return view_; }

 private:
  std::string_view view_;
  char digits_[24] = {}; // fits any 64-bit integer with its sign
  std::string owned_;
};

} // namespace detail

/// printf-free formatting: fmt("x=%0 y=%1", a, b) substitutes %0 .. %9 with
/// the arguments as operator<< would render them. Placeholders are a single
/// digit, so at most ten arguments; an unmatched placeholder is left intact.
template <typename... Args>
std::string fmt(std::string_view pattern, const Args&... args) {
  static_assert(sizeof...(Args) <= 10, "fmt placeholders are single-digit: %0 .. %9");
  std::array<detail::FmtArg, sizeof...(Args)> rendered;
  size_t next = 0;
  (rendered[next++].set(args), ...);
  size_t size = pattern.size();
  for (const auto& r : rendered) size += r.view().size();
  std::string out;
  out.reserve(size);
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '%' && i + 1 < pattern.size() && pattern[i + 1] >= '0' && pattern[i + 1] <= '9') {
      const size_t idx = static_cast<size_t>(pattern[i + 1] - '0');
      if (idx < rendered.size()) {
        out += rendered[idx].view();
        ++i;
        continue;
      }
    }
    out += pattern[i];
  }
  return out;
}

/// Writes indented lines; used by all the text emitters (AST printer, VHDL).
class IndentWriter {
 public:
  explicit IndentWriter(int spacesPerLevel = 2) : spaces_(spacesPerLevel) {}

  void indent() { ++level_; }
  void dedent() {
    if (level_ > 0) --level_;
  }

  /// Appends one full line at the current indent level.
  void line(const std::string& text);
  /// Appends a blank line.
  void blank() { out_ += '\n'; }

  const std::string& str() const { return out_; }

 private:
  int spaces_;
  int level_ = 0;
  std::string out_;
};

} // namespace roccc
