#include "common/number_text.hpp"

#include <cstdint>

namespace dlap {

void append_number(double v, std::string* out) {
  // std::to_chars with general format and precision 17 is specified as
  // the conversion printf("%.17g") performs. An exact integer below 1e17
  // prints all its digits with no exponent under %.17g, so the integer
  // writer gives the same text faster; -0.0 goes through the double
  // writer to keep its sign.
  char buf[32];
  const bool exact_integer = std::fabs(v) < 1e17 && std::trunc(v) == v &&
                             !(v == 0.0 && std::signbit(v));
  const std::to_chars_result written =
      exact_integer
          ? std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(v))
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 17);
  out->append(buf, written.ptr);
}

void NumberReader::skip_blanks() noexcept {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
    ++pos_;
  }
}

bool NumberReader::read_word(std::string_view* word) {
  skip_blanks();
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\t') {
    ++pos_;
  }
  *word = text_.substr(start, pos_ - start);
  return pos_ > start;
}

bool NumberReader::at_end() {
  skip_blanks();
  return pos_ == text_.size();
}

}  // namespace dlap
