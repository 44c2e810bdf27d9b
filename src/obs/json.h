#ifndef SGM_OBS_JSON_H_
#define SGM_OBS_JSON_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace sgm {

/// Minimal recursive-descent JSON reader for the observability tooling
/// (trace validation, metric snapshots, benchmark drift checks). Supports
/// the full JSON value grammar; objects preserve insertion order and allow
/// linear key lookup — inputs here are small machine-written files, not
/// adversarial payloads (sizes are bounded by the callers).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Convenience: Find(key)->number_value() with a default for absent or
  /// non-numeric members.
  double NumberOr(const std::string& key, double fallback) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// The one number writer of every JSON, JSONL and Prometheus output:
/// integral values below 1e15 in magnitude print without a fraction,
/// everything else (NaN and infinities included) as %.17g, the shortest
/// round-trippable form, so replaying a seed reproduces every artifact
/// byte for byte. The range is checked before any integer conversion.
void AppendJsonNumber(std::ostream& out, double value);

}  // namespace sgm

#endif  // SGM_OBS_JSON_H_
