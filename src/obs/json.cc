#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace sgm {

namespace {

constexpr int kMaxDepth = 64;

}  // namespace

/// Hand-rolled recursive-descent parser over the raw text; depth-capped so
/// a corrupted file cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status status = ParseValue(&value, 0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (ConsumeLiteral("true")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      out->kind_ = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    Consume('{');
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->object_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    Consume('[');
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      Status status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    Consume('"');
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Error("bad \\u escape");
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            // Non-ASCII escapes don't occur in the machine-written traces;
            // preserve them losslessly enough for round-trip comparison.
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a JSON value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number \"" + token + "\"");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = value;
    return Status::OK();
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text).Parse();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number_value()
                                                : fallback;
}

void AppendJsonNumber(std::ostream& out, double value) {
  // The range test comes first: converting a double outside long long's
  // range (or NaN) is undefined behaviour.
  if (value > -1e15 && value < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    out << static_cast<long long>(value);
  } else {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out << buffer;
  }
}

}  // namespace sgm
