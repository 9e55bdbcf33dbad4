// Minimal JSON plumbing for the observability exporters: a stream-style
// writer that handles commas/escaping and a small strict DOM parser
// (json_parse) used by dtio_inspect to read run reports and trace files
// back, and by tests (json_valid) — all without an external JSON library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtio::obs {

/// Appends escaped JSON to a caller-owned string. Scopes (object/array)
/// are explicit; the writer inserts commas between siblings. Misuse (e.g.
/// a value where a key is required) is a programming error, asserted in
/// debug builds and emitted as-is otherwise.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object; must be followed by exactly one value/scope.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool b);

  /// key + value in one call, for the common case.
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

 private:
  void separate();

  std::string* out_;
  std::vector<bool> needs_comma_;  ///< one entry per open scope
  bool after_key_ = false;
};

/// Appends `s` with JSON string escaping (no surrounding quotes).
void json_escape(std::string_view s, std::string& out);

/// Strict RFC-8259 syntax check of a complete JSON document: true exactly
/// when json_parse(text) succeeds. Used by the exporter tests.
[[nodiscard]] bool json_valid(std::string_view text);

/// A parsed JSON document node. Objects keep member insertion order;
/// numbers are doubles (sim-time nanoseconds up to ~2^53 round-trip
/// exactly, far beyond any bench horizon).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;  ///< kArray elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Member's number, or `fallback` when absent / not a number.
  [[nodiscard]] double num(std::string_view key, double fallback = 0)
      const noexcept;
  /// Member's string, or "" when absent / not a string.
  [[nodiscard]] std::string_view str(std::string_view key) const noexcept;
};

/// Parses a complete JSON document (same strictness as json_valid);
/// nullopt on any syntax error or trailing garbage.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace dtio::obs
