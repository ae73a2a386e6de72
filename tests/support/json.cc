#include "support/json.h"

#include <cstdlib>

namespace qmatch::obs::json {

const Value* Value::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

namespace {

constexpr size_t kMaxDepth = 128;

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Value> ParseDocument() {
    QMATCH_ASSIGN_OR_RETURN(Value value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing content after JSON value");
    }
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::ParseError("JSON: " + std::string(what) + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  Result<Value> ParseValue(size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    switch (Peek()) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        QMATCH_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) return Value(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeWord("false")) return Value(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeWord("null")) return Value();
        return Error("invalid literal");
      default: return ParseNumber();
    }
  }

  bool ConsumeWord(std::string_view word) {
    if (input_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Result<Value> ParseObject(size_t depth) {
    Consume('{');
    Value::Object object;
    SkipWhitespace();
    if (Consume('}')) return Value(std::move(object));
    for (;;) {
      SkipWhitespace();
      if (Peek() != '"') return Error("expected object key string");
      QMATCH_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      QMATCH_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      object.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Value(std::move(object));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray(size_t depth) {
    Consume('[');
    Value::Array array;
    SkipWhitespace();
    if (Consume(']')) return Value(std::move(array));
    for (;;) {
      QMATCH_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Value(std::move(array));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    for (;;) {
      if (pos_ >= input_.size()) return Error("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) return Error("unterminated escape");
      const char esc = input_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          QMATCH_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
          AppendUtf8(code, &out);
          break;
        }
        default: return Error("invalid escape");
      }
    }
  }

  Result<unsigned> ParseHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= input_.size()) return Error("unterminated \\u escape");
      const char c = input_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape digit");
      }
    }
    return code;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    // Surrogate pairs are not recombined — metric names are ASCII; a lone
    // BMP code point is encoded as-is.
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      const bool number_char = (c >= '0' && c <= '9') || c == '.' ||
                               c == 'e' || c == 'E' || c == '+' || c == '-';
      if (!number_char) break;
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string text(input_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return Error("malformed number");
    return Value(value);
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

}  // namespace qmatch::obs::json
