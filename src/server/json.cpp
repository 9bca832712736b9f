#include "server/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/number_text.hpp"

namespace dlap::server {

namespace {

constexpr int kMaxDepth = 64;
// Integral doubles beyond 2^53 are not exact; refuse to call them ints.
constexpr double kMaxExactInteger = 9007199254740992.0;

[[noreturn]] void parse_fail(std::size_t offset, const std::string& what) {
  throw parse_error("json:" + std::to_string(offset) + ": " + what);
}

struct Reader {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!done() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                       peek() == '\r')) {
      ++pos;
    }
  }

  void expect(char c, const char* where) {
    if (done() || peek() != c) {
      parse_fail(pos, std::string("expected '") + c + "' in " + where);
    }
    ++pos;
  }

  bool consume_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) parse_fail(pos, "nesting deeper than 64 levels");
    skip_ws();
    if (done()) parse_fail(pos, "unexpected end of input");
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') return Json::string(parse_string());
    if (c == 't') {
      if (consume_literal("true")) return Json::boolean(true);
      parse_fail(pos, "invalid literal");
    }
    if (c == 'f') {
      if (consume_literal("false")) return Json::boolean(false);
      parse_fail(pos, "invalid literal");
    }
    if (c == 'n') {
      if (consume_literal("null")) return Json();
      parse_fail(pos, "invalid literal");
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    parse_fail(pos, std::string("unexpected character '") + c + "'");
  }

  Json parse_object(int depth) {
    expect('{', "object");
    Json out = Json::object();
    skip_ws();
    if (!done() && peek() == '}') {
      ++pos;
      return out;
    }
    while (true) {
      skip_ws();
      if (done() || peek() != '"') parse_fail(pos, "expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':', "object");
      out.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (done()) parse_fail(pos, "unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}', "object");
      return out;
    }
  }

  Json parse_array(int depth) {
    expect('[', "array");
    Json out = Json::array();
    skip_ws();
    if (!done() && peek() == ']') {
      ++pos;
      return out;
    }
    while (true) {
      out.push_back(parse_value(depth + 1));
      skip_ws();
      if (done()) parse_fail(pos, "unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']', "array");
      return out;
    }
  }

  void append_utf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    if (pos + 4 > text.size()) parse_fail(pos, "truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        parse_fail(pos, "invalid \\u escape digit");
      }
    }
    pos += 4;
    return value;
  }

  std::string parse_string() {
    expect('"', "string");
    std::string out;
    while (true) {
      if (done()) parse_fail(pos, "unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        parse_fail(pos - 1, "unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (done()) parse_fail(pos, "truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00-\uDFFF.
            if (!consume_literal("\\u")) {
              parse_fail(pos, "lone high surrogate");
            }
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              parse_fail(pos, "invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            parse_fail(pos, "lone low surrogate");
          }
          append_utf8(&out, code);
          break;
        }
        default:
          parse_fail(pos - 1, std::string("invalid escape '\\") + e + "'");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos;
    if (!done() && peek() == '-') ++pos;
    while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    if (!done() && peek() == '.') {
      ++pos;
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos;
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || !std::isfinite(value)) {
      parse_fail(start, "malformed number '" + token + "'");
    }
    return Json::number(value);
  }
};

void dump_value(const Json& v, std::string* out) {
  switch (v.type()) {
    case Json::Type::Null: *out += "null"; break;
    case Json::Type::Bool: *out += v.as_bool() ? "true" : "false"; break;
    case Json::Type::Number: append_number(v.as_number(), out); break;
    case Json::Type::String: dump_string(v.as_string(), out); break;
    case Json::Type::Array: {
      out->push_back('[');
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out->push_back(',');
        dump_value(v.at(i), out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::Object: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        dump_string(key, out);
        out->push_back(':');
        dump_value(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

void dump_string(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::Number;
  j.number_ = v;
  return j;
}

Json Json::number(index_t v) { return number(static_cast<double>(v)); }

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::String;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

Json Json::parse(std::string_view text) {
  Reader reader{text};
  Json value = reader.parse_value(0);
  reader.skip_ws();
  if (!reader.done()) {
    parse_fail(reader.pos, "trailing characters after value");
  }
  return value;
}

bool Json::is_integer() const noexcept {
  return type_ == Type::Number && std::floor(number_) == number_ &&
         std::fabs(number_) <= kMaxExactInteger;
}

bool Json::as_bool() const {
  DLAP_REQUIRE(type_ == Type::Bool, "Json::as_bool on non-bool");
  return bool_;
}

double Json::as_number() const {
  DLAP_REQUIRE(type_ == Type::Number, "Json::as_number on non-number");
  return number_;
}

index_t Json::as_integer() const {
  DLAP_REQUIRE(is_integer(), "Json::as_integer on non-integral value");
  return static_cast<index_t>(number_);
}

const std::string& Json::as_string() const {
  DLAP_REQUIRE(type_ == Type::String, "Json::as_string on non-string");
  return string_;
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  DLAP_REQUIRE(type_ == Type::Array && i < array_.size(),
               "Json::at out of range");
  return array_[i];
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  DLAP_REQUIRE(type_ == Type::Object, "Json::members on non-object");
  return object_;
}

Json& Json::set(std::string key, Json value) {
  DLAP_REQUIRE(type_ == Type::Object, "Json::set on non-object");
  for (auto& [name, existing] : object_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  DLAP_REQUIRE(type_ == Type::Array, "Json::push_back on non-array");
  array_.push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, &out);
  return out;
}

}  // namespace dlap::server
