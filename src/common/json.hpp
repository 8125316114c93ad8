// Minimal deterministic JSON writer and (since the distributed layer) a
// small strict parser.
//
// The experiment layer serializes every ExperimentResult to JSON next to
// its CSVs (golden-pinned, so the output must be byte-deterministic): keys
// are emitted in call order, doubles print through fmt_double-style fixed
// precision, and strings are escaped per RFC 8259. The coordinator/worker
// pipe protocol (src/dist) additionally needs newline-delimited one-line
// documents, so the writer has a compact mode, and JsonValue::parse reads
// protocol messages back.
//
// Usage:
//   JsonWriter json;
//   json.begin_object();
//   json.key("experiment").value("susceptibility");
//   json.key("rows").begin_array();
//   ...
//   json.end_array();
//   json.end_object();
//   std::string text = std::move(json).str();
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace safelight {

/// Streaming JSON builder with two-space indentation (or single-line
/// compact layout for newline-delimited protocols). Structural misuse
/// (value without a key inside an object, unbalanced end_*) throws
/// std::logic_error — caught by tests, not silently emitted.
class JsonWriter {
 public:
  /// Default: pretty two-space indentation. `compact` emits the whole
  /// document on one line (no spaces), for newline-delimited JSON streams.
  JsonWriter() = default;
  explicit JsonWriter(bool compact) : compact_(compact) {}
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next value/begin_* attaches to it.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(bool b);
  JsonWriter& value(std::int64_t n);
  JsonWriter& value(std::uint64_t n);
  JsonWriter& value(int n) { return value(static_cast<std::int64_t>(n)); }
  /// Fixed-precision double (default 6 digits), deterministic across hosts.
  JsonWriter& value(double v, int precision = 6);
  /// Double as %.17g, which JsonValue::parse reads back bit for bit.
  /// `v` must be finite.
  JsonWriter& exact(double v);
  JsonWriter& null_value();

  /// Finished document. Throws std::logic_error when containers are still
  /// open.
  std::string str() &&;

  /// Escapes a string per JSON rules (quotes not included).
  static std::string escape(const std::string& raw);

 private:
  void begin_value();
  void indent();

  std::string out_;
  /// Container stack: 'o' = object, 'a' = array.
  std::string stack_;
  bool key_pending_ = false;
  bool container_empty_ = true;
  bool compact_ = false;
};

/// Parsed JSON document (strict RFC 8259 subset: no comments, no trailing
/// commas; numbers parse as double). Object member order is not preserved —
/// SafeLight protocol messages are looked up by key, never re-serialized.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete document; throws std::invalid_argument with the
  /// byte offset on malformed input or trailing garbage.
  static JsonValue parse(const std::string& text);

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; throw std::invalid_argument on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number() checked to be a non-negative integer.
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  /// All object members, sorted by key (dynamic-key maps like metric names
  /// decode through this; fixed-field messages use at()).
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup. at() throws std::invalid_argument when the key
  /// is absent (protocol messages treat missing fields as malformed).
  bool has(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

}  // namespace safelight
