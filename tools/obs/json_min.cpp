#include "obs/json_min.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace apa::obstools {
namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = "offset " + std::to_string(pos_) + ": " + message;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool value(JsonValue* out) {
    switch (peek()) {
      case '{':
        return object(out);
      case '[':
        return array(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->str);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return literal("false", 5);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return literal("null", 4);
      default:
        return number(out);
    }
  }

  bool number(JsonValue* out) {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return fail("expected a value");
    // strtod reads past the view only if the buffer lacks a terminator;
    // callers hand whole files (NUL-free, terminator present via data()).
    const auto consumed = static_cast<std::size_t>(end - begin);
    if (pos_ + consumed > text_.size()) return fail("number overruns input");
    pos_ += consumed;
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  bool string(std::string* out) {
    if (peek() != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape digit");
          }
          // The emitters only escape control characters (< 0x20); decode the
          // BMP code point as UTF-8 and call it done.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0u | (code >> 6)));
            out->push_back(static_cast<char>(0x80u | (code & 0x3Fu)));
          } else {
            out->push_back(static_cast<char>(0xE0u | (code >> 12)));
            out->push_back(static_cast<char>(0x80u | ((code >> 6) & 0x3Fu)));
            out->push_back(static_cast<char>(0x80u | (code & 0x3Fu)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(&element)) return false;
      out->array.push_back(std::move(element));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(&member)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

void append_json(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber: {
      char buf[40];
      if (std::isfinite(v.number) &&
          v.number == std::floor(v.number) && std::fabs(v.number) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v.number));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      }
      out += buf;
      return;
    }
    case JsonValue::Kind::kString:
      out += obs::json_quote(v.str);
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& e : v.array) {
        if (!first) out += ',';
        first = false;
        append_json(e, out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : v.object) {
        if (!first) out += ',';
        first = false;
        out += obs::json_quote(key);
        out += ": ";
        append_json(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  return const_cast<JsonValue*>(
      static_cast<const JsonValue*>(this)->find(key));
}

double JsonValue::num_or(double fallback) const {
  return kind == Kind::kNumber ? number : fallback;
}

long long JsonValue::int_or(long long fallback) const {
  return kind == Kind::kNumber ? static_cast<long long>(number) : fallback;
}

std::string JsonValue::str_or(const std::string& fallback) const {
  return kind == Kind::kString ? str : fallback;
}

bool JsonValue::bool_or(bool fallback) const {
  return kind == Kind::kBool ? boolean : fallback;
}

double JsonValue::get_num(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->num_or(fallback) : fallback;
}

long long JsonValue::get_int(std::string_view key, long long fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->int_or(fallback) : fallback;
}

std::string JsonValue::get_str(std::string_view key,
                               const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->str_or(fallback) : fallback;
}

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  Parser parser(text, error);
  return parser.parse(out);
}

std::string to_json(const JsonValue& value) {
  std::string out;
  append_json(value, out);
  return out;
}

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace apa::obstools
