#include "anb/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace anb {

Json Json::array_of(const std::vector<double>& xs) {
  Array a;
  a.reserve(xs.size());
  for (double x : xs) a.emplace_back(x);
  return Json(std::move(a));
}

Json Json::array_of(const std::vector<int>& xs) {
  Array a;
  a.reserve(xs.size());
  for (int x : xs) a.emplace_back(x);
  return Json(std::move(a));
}

bool Json::as_bool() const {
  ANB_CHECK(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  ANB_CHECK(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

int Json::as_int() const {
  const double d = as_number();
  const double r = std::round(d);
  ANB_CHECK(std::abs(d - r) < 1e-9, "Json: number is not integral");
  // Casting a double outside int's range is undefined behaviour.
  ANB_CHECK(r >= std::numeric_limits<int>::min() &&
                r <= std::numeric_limits<int>::max(),
            "Json: integer out of int range");
  return static_cast<int>(r);
}

const std::string& Json::as_string() const {
  ANB_CHECK(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  ANB_CHECK(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  ANB_CHECK(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  ANB_CHECK(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  ANB_CHECK(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  ANB_CHECK(it != obj.end(), "Json: missing key '" + key + "'");
  return it->second;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return as_object()[key];
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const Json& Json::at(std::size_t i) const {
  const auto& arr = as_array();
  ANB_CHECK(i < arr.size(), "Json: array index out of range");
  return arr[i];
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  ANB_CHECK(false, "Json: size() on non-container");
  return 0;
}

std::vector<double> Json::as_double_vector() const {
  const auto& arr = as_array();
  std::vector<double> out;
  out.reserve(arr.size());
  for (const auto& v : arr) out.push_back(v.as_number());
  return out;
}

std::vector<int> Json::as_int_vector() const {
  const auto& arr = as_array();
  std::vector<int> out;
  out.reserve(arr.size());
  for (const auto& v : arr) out.push_back(v.as_int());
  return out;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(v));
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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

void format_number(std::string& out, double d) {
  ANB_CHECK(std::isfinite(d), "Json: cannot serialize non-finite number");
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    // Integral value: emit without decimal point.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  // Round-trippable shortest-ish representation.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == d) break;
  }
  out += buf;
}

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (pretty) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    format_number(out, as_number());
  } else if (is_string()) {
    escape_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      newline(depth + 1);
      arr[i].dump_impl(out, indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      escape_string(out, k);
      out += pretty ? ": " : ":";
      v.dump_impl(out, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    ANB_CHECK(pos_ == text_.size(),
              "Json::parse: trailing characters at offset " +
                  std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw Error("Json::parse: " + msg + " at offset " + std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char get() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (get() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      get();
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = get();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      get();
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = get();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = get();
      if (c == '"') break;
      if (c == '\\') {
        char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                fail("invalid \\u escape");
            }
            ANB_CHECK(code < 0xD800 || code > 0xDFFF,
                      "Json::parse: surrogate pairs not supported");
            // UTF-8 encode the BMP code point.
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
            break;
          }
          default: fail("invalid escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("invalid number");
    double value = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail("invalid number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

// read_text_file / write_text_file are implemented in io.cpp (the one
// sanctioned home of raw file IO; see anb/util/io.hpp).

}  // namespace anb
