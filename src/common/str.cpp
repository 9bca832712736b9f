#include "common/str.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>

#include "common/types.hpp"

namespace dlap {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_trimmed(std::string_view s, char sep) {
  std::vector<std::string> out = split(s, sep);
  for (std::string& f : out) f = std::string(trim(f));
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

long long parse_int(std::string_view s) {
  s = trim(s);
  long long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    throw parse_error("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

double parse_double(std::string_view s) {
  s = trim(s);
  // std::from_chars for double is available in libstdc++ 11+; use it and
  // fall back to strtod semantics through a NUL-terminated copy otherwise.
  std::string buf(s);
  if (buf.empty()) throw parse_error("not a number: ''");
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    throw parse_error("not a number: '" + buf + "'");
  }
  return value;
}

bool read_file(const std::filesystem::path& path, std::string* text) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.good() ? std::streamoff(in.tellg()) : -1;
  if (size < 0) return false;
  text->resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(text->data(), static_cast<std::streamsize>(text->size()));
  text->resize(static_cast<std::size_t>(in.gcount()));
  return true;
}

std::string escape_filename_component(std::string_view s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '_') {
      out.push_back(c);
    } else if (c == '@') {
      out += "-t";
    } else {
      out += "-x";
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 0xf]);
    }
  }
  return out;
}

std::string unescape_filename_component(std::string_view s) {
  const auto hex_digit = [&](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw parse_error("bad escaped file name component: '" + std::string(s) +
                      "'");
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '-') {
      const auto u = static_cast<unsigned char>(c);
      if (!std::isalnum(u) && c != '_') {
        throw parse_error("bad escaped file name component: '" +
                          std::string(s) + "'");
      }
      out.push_back(c);
      continue;
    }
    if (i + 1 < s.size() && s[i + 1] == 't') {
      out.push_back('@');
      i += 1;
    } else if (i + 3 < s.size() && s[i + 1] == 'x') {
      out.push_back(static_cast<char>(16 * hex_digit(s[i + 2]) +
                                      hex_digit(s[i + 3])));
      i += 3;
    } else {
      throw parse_error("bad escaped file name component: '" +
                        std::string(s) + "'");
    }
  }
  return out;
}

}  // namespace dlap
