#pragma once
// The one number codec of the repository's text formats: sample journal
// lines, model files and JSON responses.
//
// Writing: a double prints as the exact text of printf("%.17g"), which
// round-trips every finite double bit-exactly; an integer prints in
// decimal. Both go through std::to_chars, with no stream, locale or
// allocation per number.
//
// Reading: NumberReader walks one line of blank-separated tokens with
// std::from_chars. It is strict where the iostream extraction it
// replaces was lenient: a token must end at a blank or at the end of the
// line, doubles must be finite and in range (a nonzero literal that
// underflows to zero is rejected, not read as 0), integers must fit
// their type, and a leading '+' is not a number.

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

namespace dlap {

/// Appends the text of printf("%.17g", v) to *out.
void append_number(double v, std::string* out);

/// Appends the decimal text of v to *out.
template <class Int>
void append_integer(Int v, std::string* out) {
  static_assert(std::is_integral_v<Int>);
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Reads tokens separated by spaces and tabs from one line of text.
class NumberReader {
 public:
  explicit NumberReader(std::string_view line) noexcept : text_(line) {}

  /// Reads the next token as a number of type T. False when no token is
  /// left or the token is not a complete, finite, in-range T; the token
  /// is not consumed then.
  template <class T>
  [[nodiscard]] bool read(T* value) {
    skip_blanks();
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    T parsed{};
    const std::from_chars_result r = std::from_chars(first, last, parsed);
    if (r.ec != std::errc() || !ends_token(r.ptr)) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(parsed)) return false;
    }
    *value = parsed;
    pos_ = static_cast<std::size_t>(r.ptr - text_.data());
    return true;
  }

  /// Reads the next token as-is (up to the next blank). False when only
  /// blanks are left.
  [[nodiscard]] bool read_word(std::string_view* word);

  /// True when only blanks are left.
  [[nodiscard]] bool at_end();

 private:
  void skip_blanks() noexcept;
  [[nodiscard]] bool ends_token(const char* p) const noexcept {
    return p == text_.data() + text_.size() || *p == ' ' || *p == '\t';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace dlap
