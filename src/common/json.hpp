#pragma once
/// \file json.hpp
/// Minimal recursive-descent JSON reader for the observability pipeline:
/// `tools/octo_analyze` (apex/analyze.hpp) ingests Chrome traces and
/// metrics JSONL.  Scope is
/// deliberately small — the values this repo itself emits (objects, arrays,
/// strings with the escapes apex writes, doubles, bools, null) — not a
/// general validator.  Parse errors throw octo::error with a byte offset.

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace octo::json {

class value;
using array = std::vector<value>;
using object = std::map<std::string, value>;

/// One JSON value.  Numbers are stored as double (the traces and metrics
/// this repo emits stay well inside exact double-integer range).
class value {
 public:
  enum class kind { null, boolean, number, string, array, object };

  value() = default;
  explicit value(bool b) : kind_(kind::boolean), bool_(b) {}
  explicit value(double d) : kind_(kind::number), num_(d) {}
  explicit value(std::string s)
      : kind_(kind::string), str_(std::move(s)) {}
  explicit value(array a)
      : kind_(kind::array), arr_(std::make_shared<array>(std::move(a))) {}
  explicit value(object o)
      : kind_(kind::object), obj_(std::make_shared<object>(std::move(o))) {}

  kind type() const { return kind_; }
  bool is_null() const { return kind_ == kind::null; }
  bool is_number() const { return kind_ == kind::number; }
  bool is_string() const { return kind_ == kind::string; }
  bool is_array() const { return kind_ == kind::array; }
  bool is_object() const { return kind_ == kind::object; }

  bool as_bool() const {
    OCTO_CHECK_MSG(kind_ == kind::boolean, "json: not a bool");
    return bool_;
  }
  double as_number() const {
    OCTO_CHECK_MSG(kind_ == kind::number, "json: not a number");
    return num_;
  }
  const std::string& as_string() const {
    OCTO_CHECK_MSG(kind_ == kind::string, "json: not a string");
    return str_;
  }
  const array& as_array() const {
    OCTO_CHECK_MSG(kind_ == kind::array, "json: not an array");
    return *arr_;
  }
  const object& as_object() const {
    OCTO_CHECK_MSG(kind_ == kind::object, "json: not an object");
    return *obj_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const value* find(const std::string& key) const {
    if (kind_ != kind::object) return nullptr;
    const auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
  }
  /// Member as number with a default (flow ids, pids, timestamps).
  double number_or(const std::string& key, double dflt) const {
    const value* v = find(key);
    return (v != nullptr && v->is_number()) ? v->as_number() : dflt;
  }
  /// Member as string with a default (event names, phases).
  std::string string_or(const std::string& key,
                        const std::string& dflt) const {
    const value* v = find(key);
    return (v != nullptr && v->is_string()) ? v->as_string() : dflt;
  }

 private:
  kind kind_ = kind::null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<array> arr_;    ///< shared: values copy cheaply
  std::shared_ptr<object> obj_;
};

namespace detail {

class parser {
 public:
  explicit parser(const std::string& text) : s_(text) {}

  value parse() {
    value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw error(std::string("json parse error at byte ") +
                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return value();
      default: return parse_number();
    }
  }

  value parse_object() {
    expect('{');
    object o;
    if (peek() == '}') {
      ++pos_;
      return value(std::move(o));
    }
    for (;;) {
      std::string key = (peek(), parse_string());
      expect(':');
      o.emplace(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return value(std::move(o));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  value parse_array() {
    expect('[');
    array a;
    if (peek() == ']') {
      ++pos_;
      return value(std::move(a));
    }
    for (;;) {
      a.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return value(std::move(a));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    if (s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("bad escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // ASCII only in practice (apex escapes control chars this way).
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    // The scan takes any run of number characters; the token is a number
    // only if stod consumes all of it ("1.2.3", "1-2", "1e5e3" are not).
    const std::string token = s_.substr(start, pos_ - start);
    std::size_t used = 0;
    double v = 0;
    try {
      v = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("bad number");
    }
    if (used != token.size()) fail("bad number");
    return value(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parse one JSON document; throws octo::error on malformed input.
inline value parse(const std::string& text) {
  return detail::parser(text).parse();
}

}  // namespace octo::json
