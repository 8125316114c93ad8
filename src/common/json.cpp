#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace safelight {

std::string JsonWriter::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
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
  return out;
}

void JsonWriter::indent() {
  if (compact_) return;
  out_ += '\n';
  out_.append(stack_.size() * 2, ' ');
}

/// Shared preamble of every value/begin_*: validates the key/position
/// contract and emits the separating comma + layout.
void JsonWriter::begin_value() {
  if (!stack_.empty() && stack_.back() == 'o' && !key_pending_) {
    fail_invariant("JsonWriter: value inside an object needs key() first");
  }
  if (stack_.empty() && !out_.empty()) {
    fail_invariant("JsonWriter: only one top-level value allowed");
  }
  if (!key_pending_ && !stack_.empty()) {
    if (!container_empty_) out_ += ',';
    indent();
  }
  key_pending_ = false;
  container_empty_ = false;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back() != 'o') {
    fail_invariant("JsonWriter: key() outside an object");
  }
  if (key_pending_) fail_invariant("JsonWriter: key() after key()");
  if (!container_empty_) out_ += ',';
  indent();
  out_ += '"' + escape(name) + (compact_ ? "\":" : "\": ");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  out_ += '{';
  stack_ += 'o';
  container_empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != 'o') {
    fail_invariant("JsonWriter: end_object() without open object");
  }
  const bool was_empty = container_empty_;
  stack_.pop_back();
  if (!was_empty) indent();
  out_ += '}';
  container_empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  out_ += '[';
  stack_ += 'a';
  container_empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != 'a') {
    fail_invariant("JsonWriter: end_array() without open array");
  }
  const bool was_empty = container_empty_;
  stack_.pop_back();
  if (!was_empty) indent();
  out_ += ']';
  container_empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  begin_value();
  out_ += '"' + escape(text) + '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string(text));
}

JsonWriter& JsonWriter::value(bool b) {
  begin_value();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t n) {
  begin_value();
  out_ += std::to_string(n);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t n) {
  begin_value();
  out_ += std::to_string(n);
  return *this;
}

JsonWriter& JsonWriter::value(double v, int precision) {
  begin_value();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::exact(double v) {
  if (!std::isfinite(v)) fail_invariant("JsonWriter: non-finite number");
  begin_value();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  begin_value();
  out_ += "null";
  return *this;
}

std::string JsonWriter::str() && {
  if (!stack_.empty()) {
    fail_invariant("JsonWriter: str() with open containers");
  }
  out_ += '\n';
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// JsonValue: strict recursive-descent parser for protocol messages.
// ---------------------------------------------------------------------------

/// Single-use parser over one document. Kept out of the header; JsonValue
/// befriends it so the value tree can be built in place.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    fail_argument("JSON parse error at byte " + std::to_string(pos_) + ": " +
                  what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_keyword(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': {
        value.type_ = JsonValue::Type::kObject;
        expect('{');
        if (peek() == '}') { ++pos_; return value; }
        while (true) {
          if (peek() != '"') fail("object key must be a string");
          std::string key = parse_string();
          expect(':');
          if (!value.object_.emplace(std::move(key), parse_value()).second) {
            fail("duplicate object key");
          }
          const char next = peek();
          ++pos_;
          if (next == '}') return value;
          if (next != ',') fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        value.type_ = JsonValue::Type::kArray;
        expect('[');
        if (peek() == ']') { ++pos_; return value; }
        while (true) {
          value.array_.push_back(parse_value());
          const char next = peek();
          ++pos_;
          if (next == ']') return value;
          if (next != ',') fail("expected ',' or ']' in array");
        }
      }
      case '"':
        value.type_ = JsonValue::Type::kString;
        value.string_ = parse_string();
        return value;
      case 't':
        if (!consume_keyword("true")) fail("invalid literal");
        value.type_ = JsonValue::Type::kBool;
        value.bool_ = true;
        return value;
      case 'f':
        if (!consume_keyword("false")) fail("invalid literal");
        value.type_ = JsonValue::Type::kBool;
        value.bool_ = false;
        return value;
      case 'n':
        if (!consume_keyword("null")) fail("invalid literal");
        return value;  // kNull
      default: {
        if (c != '-' && (c < '0' || c > '9')) fail("unexpected character");
        const char* begin = text_.c_str() + pos_;
        char* end = nullptr;
        value.type_ = JsonValue::Type::kNumber;
        value.number_ = std::strtod(begin, &end);
        if (end == begin) fail("malformed number");
        pos_ += static_cast<std::size_t>(end - begin);
        return value;
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') { out += c; continue; }
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
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape digit");
          }
          // The protocol only ever escapes control characters; encode the
          // code point as UTF-8 (BMP only, no surrogate-pair handling).
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
        default: fail("invalid escape character");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).run();
}

namespace {
[[noreturn]] void type_mismatch(const char* wanted) {
  fail_argument(std::string("JsonValue: value is not ") + wanted);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_mismatch("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_mismatch("a number");
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  const double n = as_number();
  // Range first: casting a NaN or a double outside [0, 2^64) is undefined.
  if (!(n >= 0.0 && n < 18446744073709551616.0) ||
      n != static_cast<double>(static_cast<std::uint64_t>(n))) {
    type_mismatch("a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_mismatch("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_mismatch("an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_mismatch("an object");
  return object_;
}

bool JsonValue::has(const std::string& key) const {
  if (type_ != Type::kObject) type_mismatch("an object");
  return object_.count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type_ != Type::kObject) type_mismatch("an object");
  const auto it = object_.find(key);
  if (it == object_.end()) {
    fail_argument("JsonValue: missing object key '" + key + "'");
  }
  return it->second;
}

}  // namespace safelight
