// Minimal recursive-descent JSON parser.
//
// Just enough of RFC 8259 for the documents this project itself emits and
// consumes (Chrome traces, metrics snapshots, bench reports, run reports):
// objects, arrays, strings with the common escapes, numbers, true/false/null.
// Throws std::runtime_error on malformed input, which makes "the file is
// valid JSON" a one-line assertion.
//
// Header-only and dependency-free, so the tests, the trace analysis engine
// and the harmony-report CLI all read exported documents back in with it.
// Objects are std::map, so iteration order is key-sorted — parsing and
// re-emitting a document is deterministic.
#pragma once

#include <cctype>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace harmony::json {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  using Storage =
      std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>;

  JsonValue() : v_(nullptr) {}
  explicit JsonValue(Storage v) : v_(std::move(v)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }

  const JsonObject& object() const { return get<JsonObject>("object"); }
  const JsonArray& array() const { return get<JsonArray>("array"); }
  const std::string& string() const { return get<std::string>("string"); }
  double number() const { return get<double>("number"); }
  bool boolean() const { return get<bool>("bool"); }

  bool contains(const std::string& key) const {
    return is_object() && object().count(key) > 0;
  }
  const JsonValue& at(const std::string& key) const {
    const auto& obj = object();
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("json: missing key '" + key + "'");
    return it->second;
  }

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (!std::holds_alternative<T>(v_))
      throw std::runtime_error(std::string("json: value is not a ") + what);
    return std::get<T>(v_);
  }

  Storage v_;
};

// GCC 12's -Wmaybe-uninitialized misfires on the std::variant moves inlined
// through the recursive descent below (the variant is always engaged before
// use); scoped suppression so the warning stays live everywhere else.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

class JsonParser {
 public:
  static JsonValue parse(const std::string& text) {
    JsonParser p(text);
    JsonValue v = p.parse_value();
    p.skip_ws();
    if (p.pos_ != text.size()) p.fail("trailing garbage");
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue(JsonValue::Storage(parse_string()));
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(JsonValue::Storage(true));
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(JsonValue::Storage(false));
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(JsonValue::Storage(std::move(obj)));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(JsonValue::Storage(std::move(obj)));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(JsonValue::Storage(std::move(arr)));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(JsonValue::Storage(std::move(arr)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          // The emitters only write ASCII; keep the raw escape readable.
          out += "\\u" + text_.substr(pos_, 4);
          pos_ += 4;
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad exponent");
    }
    return JsonValue(JsonValue::Storage(std::stod(text_.substr(start, pos_ - start))));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

inline JsonValue parse_json(const std::string& text) { return JsonParser::parse(text); }

}  // namespace harmony::json
