#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace ipscope::obs::json {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool Value::AsBool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::AsNumber() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& Value::AsString() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<Value>& Value::AsArray() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::AsObject() const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  return object_;
}

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value Value::Null() { return Value{}; }

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::Object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

constexpr int kMaxDepth = 100;

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value ParseDocument() {
    SkipWs();
    Value v = ParseValue(0);
    SkipWs();
    if (pos_ != s_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  bool Eof() const { return pos_ >= s_.size(); }
  char Peek() const { return s_[pos_]; }

  void SkipWs() {
    while (!Eof() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                      Peek() == '\r')) {
      ++pos_;
    }
  }

  void Expect(char c, const char* context) {
    if (Eof() || Peek() != c) {
      Fail(std::string("expected '") + c + "' in " + context);
    }
    ++pos_;
  }

  bool TryConsume(char c) {
    if (Eof() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  Value ParseValue(int depth) {
    if (depth > kMaxDepth) Fail("nesting too deep");
    SkipWs();
    if (Eof()) Fail("unexpected end of input");
    char c = Peek();
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return Value::String(ParseString());
    if (c == 't') return ParseLiteral("true", Value::Bool(true));
    if (c == 'f') return ParseLiteral("false", Value::Bool(false));
    if (c == 'n') return ParseLiteral("null", Value::Null());
    return ParseNumber();
  }

  Value ParseLiteral(std::string_view word, Value result) {
    if (s_.substr(pos_, word.size()) != word) Fail("invalid literal");
    pos_ += word.size();
    return result;
  }

  // Scans RFC 8259's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?
  // ([eE][+-]?[0-9]+)?, before converting: from_chars alone would also
  // take "inf", "-nan", "1." and "01". Overflow to infinity is rejected
  // too, so a parsed number is always finite. Errors point at the
  // number's first byte.
  Value ParseNumber() {
    const std::size_t start = pos_;
    auto digits = [&] {
      const std::size_t from = pos_;
      while (!Eof() && Peek() >= '0' && Peek() <= '9') ++pos_;
      return pos_ > from;
    };
    auto fail = [&] {
      pos_ = start;
      Fail("invalid number");
    };
    TryConsume('-');
    if (!TryConsume('0') && !digits()) fail();
    if (TryConsume('.') && !digits()) fail();
    if (TryConsume('e') || TryConsume('E')) {
      if (!TryConsume('+')) TryConsume('-');
      if (!digits()) fail();
    }
    double number = 0;
    auto [ptr, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, number);
    if (ec != std::errc{} || ptr != s_.data() + pos_ ||
        !std::isfinite(number)) {
      fail();
    }
    return Value::Number(number);
  }

  std::string ParseString() {
    Expect('"', "string");
    std::string out;
    while (true) {
      if (Eof()) Fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (Eof()) Fail("unterminated escape");
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += ParseUnicodeEscape(); break;
        default: Fail("unsupported escape");
      }
    }
  }

  // Decodes one \uXXXX escape — or a UTF-16 surrogate pair spelled as two
  // consecutive escapes — to UTF-8. A high surrogate must be immediately
  // followed by `\u` + a low surrogate; lone halves and reversed pairs
  // fail with the byte offset, because accepting half a pair silently
  // would corrupt the string.
  std::string ParseUnicodeEscape() {
    unsigned code = ParseHex4();
    if (code >= 0xDC00 && code <= 0xDFFF) {
      Fail("lone low surrogate in \\u escape");
    }
    std::uint32_t cp = code;
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 2 > s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u') {
        Fail("high surrogate \\u escape not followed by a low surrogate");
      }
      pos_ += 2;
      unsigned low = ParseHex4();
      if (low < 0xDC00 || low > 0xDFFF) {
        Fail("high surrogate \\u escape paired with a non-low surrogate");
      }
      cp = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  // Four hex digits of one \uXXXX escape (the `\u` itself already consumed).
  unsigned ParseHex4() {
    if (pos_ + 4 > s_.size()) Fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        Fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  Value ParseArray(int depth) {
    Expect('[', "array");
    std::vector<Value> items;
    SkipWs();
    if (TryConsume(']')) return Value::Array(std::move(items));
    while (true) {
      items.push_back(ParseValue(depth + 1));
      SkipWs();
      if (TryConsume(']')) return Value::Array(std::move(items));
      Expect(',', "array");
    }
  }

  Value ParseObject(int depth) {
    Expect('{', "object");
    std::vector<std::pair<std::string, Value>> members;
    SkipWs();
    if (TryConsume('}')) return Value::Object(std::move(members));
    while (true) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':', "object");
      members.emplace_back(std::move(key), ParseValue(depth + 1));
      SkipWs();
      if (TryConsume('}')) return Value::Object(std::move(members));
      Expect(',', "object");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Parse(std::string_view text) { return Parser{text}.ParseDocument(); }

}  // namespace ipscope::obs::json
