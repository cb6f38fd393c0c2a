#include "json.h"

#include <cctype>
#include <cstdlib>

namespace pdat::trace::json {

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw PdatError("json: " + why + " at offset " + std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                                 text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n] != '\0') ++n;
    if (text.compare(pos, n, w) != 0) return false;
    pos += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) fail("unterminated escape");
        const char e = text[pos++];
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
            if (pos + 4 > text.size()) fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs kept as-is:
            // telemetry never emits them).
            if (v < 0x80) {
              out += static_cast<char>(v);
            } else if (v < 0x800) {
              out += static_cast<char>(0xC0 | (v >> 6));
              out += static_cast<char>(0x80 | (v & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (v >> 12));
              out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (v & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (consume('.')) {
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        fail("bad fraction");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        fail("bad exponent");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    Value v;
    v.type = Value::Type::Number;
    v.number = std::strtod(text.c_str() + start, nullptr);
    return v;
  }

  Value parse_value(int depth) {
    if (depth > 64) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      Value v;
      v.type = Value::Type::Object;
      v.object = std::make_shared<Object>();
      skip_ws();
      if (consume('}')) return v;
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        Value member = parse_value(depth + 1);
        if (!v.object->emplace(std::move(key), std::move(member)).second) {
          fail("duplicate object key");
        }
        skip_ws();
        if (consume(',')) continue;
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos;
      Value v;
      v.type = Value::Type::Array;
      v.array = std::make_shared<Array>();
      skip_ws();
      if (consume(']')) return v;
      for (;;) {
        v.array->push_back(parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      Value v;
      v.type = Value::Type::String;
      v.string = parse_string();
      return v;
    }
    if (c == 't') {
      if (!consume_word("true")) fail("bad literal");
      Value v;
      v.type = Value::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!consume_word("false")) fail("bad literal");
      Value v;
      v.type = Value::Type::Bool;
      v.boolean = false;
      return v;
    }
    if (c == 'n') {
      if (!consume_word("null")) fail("bad literal");
      return Value{};
    }
    return parse_number();
  }
};

}  // namespace

const Value& Value::at(const std::string& key) const {
  if (type != Type::Object) throw PdatError("json: at() on non-object");
  const auto it = object->find(key);
  if (it == object->end()) throw PdatError("json: missing key '" + key + "'");
  return it->second;
}

bool Value::has(const std::string& key) const {
  return type == Type::Object && object->count(key) > 0;
}

const Array& Value::items() const {
  if (type != Type::Array) throw PdatError("json: items() on non-array");
  return *array;
}

const Object& Value::members() const {
  if (type != Type::Object) throw PdatError("json: members() on non-object");
  return *object;
}

Value parse(const std::string& text) {
  Parser p{text};
  Value v = p.parse_value(0);
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing garbage");
  return v;
}

}  // namespace pdat::trace::json
