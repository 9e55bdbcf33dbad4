#include "obs/json.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dtio::obs {

// ---- Writer -----------------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // the key already emitted ':'
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) *out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  *out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  *out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  *out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  *out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!after_key_);
  separate();
  *out_ += '"';
  json_escape(k, *out_);
  *out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  *out_ += '"';
  json_escape(s, *out_);
  *out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separate();
  if (!std::isfinite(d)) {  // JSON has no inf/nan
    *out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", d);
  *out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  *out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  *out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  *out_ += b ? "true" : "false";
  return *this;
}

void json_escape(std::string_view s, std::string& out) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// ---- DOM parser -------------------------------------------------------------

namespace {

/// Strict RFC-8259 recursive-descent parser that builds JsonValues;
/// json_valid is json_parse that keeps only the verdict.
struct DomParser {
  std::string_view text;
  std::size_t at = 0;
  int depth = 0;

  static constexpr int kMaxDepth = 256;

  [[nodiscard]] bool done() const noexcept { return at >= text.size(); }
  [[nodiscard]] char peek() const noexcept { return text[at]; }

  void skip_ws() {
    while (!done() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                       peek() == '\r')) {
      ++at;
    }
  }

  bool consume(char c) {
    if (done() || peek() != c) return false;
    ++at;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(at, word.size()) != word) return false;
    at += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    while (!done()) {
      const char c = text[at++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (done()) return false;
      const char e = text[at++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (done()) return false;
            const char h = text[at++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // reassembled — the exporters never emit them).
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
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool digits() {
    const std::size_t start = at;
    while (!done() && std::isdigit(static_cast<unsigned char>(peek()))) ++at;
    return at > start;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — a leading zero ends
  /// the integer part, so "01" leaves "1" behind and fails the caller.
  bool number(double& out) {
    const std::size_t start = at;
    consume('-');
    if (!consume('0') && !digits()) return false;
    if (consume('.') && !digits()) return false;
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++at;
      if (!done() && (peek() == '+' || peek() == '-')) ++at;
      if (!digits()) return false;
    }
    out = std::strtod(std::string(text.substr(start, at - start)).c_str(),
                      nullptr);
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (done()) return false;
    bool ok = false;
    switch (peek()) {
      case '{': ok = object(out); break;
      case '[': ok = array(out); break;
      case '"':
        out.kind = JsonValue::Kind::kString;
        ok = string(out.string);
        break;
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        ok = literal("true");
        break;
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        ok = literal("false");
        break;
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        ok = literal("null");
        break;
      default:
        out.kind = JsonValue::Kind::kNumber;
        ok = number(out.number);
        break;
    }
    --depth;
    return ok;
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue member;
      if (!value(member)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!value(item)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num(std::string_view key, double fallback) const noexcept {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string_view JsonValue::str(std::string_view key) const noexcept {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kString)
             ? std::string_view(v->string)
             : std::string_view();
}

std::optional<JsonValue> json_parse(std::string_view text) {
  DomParser p{text};
  JsonValue root;
  if (!p.value(root)) return std::nullopt;
  p.skip_ws();
  if (!p.done()) return std::nullopt;
  return root;
}

bool json_valid(std::string_view text) { return json_parse(text).has_value(); }

}  // namespace dtio::obs
