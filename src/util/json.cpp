#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dcs::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
    }
    pos_ += lit.size();
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case 'n': expect_literal("null"); return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    if (consume('}')) return Value(std::move(out));
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      out.insert_or_assign(std::move(key), parse_value());
      if (consume(',')) continue;
      expect('}');
      return Value(std::move(out));
    }
  }

  Value parse_array() {
    expect('[');
    Array out;
    if (consume(']')) return Value(std::move(out));
    for (;;) {
      out.push_back(parse_value());
      if (consume(',')) continue;
      expect(']');
      return Value(std::move(out));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
    fail("unterminated string");
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    // UTF-8 encode the BMP code point (surrogate pairs are passed through
    // as two separately-encoded code units; the records we read never use
    // them).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  DCS_REQUIRE(is_bool(), "json value is not a bool");
  return bool_;
}

double Value::as_number() const {
  DCS_REQUIRE(is_number(), "json value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  DCS_REQUIRE(is_string(), "json value is not a string");
  return string_;
}

const Array& Value::as_array() const {
  DCS_REQUIRE(is_array(), "json value is not an array");
  return *array_;
}

const Object& Value::as_object() const {
  DCS_REQUIRE(is_object(), "json value is not an object");
  return *object_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  DCS_REQUIRE(v != nullptr, "missing json key: " + std::string(key));
  return *v;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("json: cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::string number_to_string(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0.0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double read_number(const Value& v) {
  if (v.is_number()) return v.as_number();
  DCS_REQUIRE(v.is_string(), "json value is neither a number nor a "
                             "non-finite marker string");
  const std::string& s = v.as_string();
  if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  if (s == "inf") return std::numeric_limits<double>::infinity();
  if (s == "-inf") return -std::numeric_limits<double>::infinity();
  DCS_REQUIRE(false, "unknown non-finite number marker '" + s + "'");
  return 0.0;
}

std::string number_or_null(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_string(std::string& out, std::string_view s) {
  const auto needs_escaping = [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  };
  out += '"';
  std::size_t plain = 0;
  while (plain < s.size() && !needs_escaping(s[plain])) ++plain;
  out.append(s.data(), plain);
  for (std::size_t i = plain; i < s.size(); ++i) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string quote(std::string_view s) {
  std::string out;
  append_string(out, s);
  return out;
}

}  // namespace dcs::json
