#ifndef QMATCH_TESTS_SUPPORT_JSON_H_
#define QMATCH_TESTS_SUPPORT_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace qmatch::obs::json {

/// A parsed JSON value. Self-contained, zero-dependency — exists so the
/// observability exporters' output (the `--metrics-out` payload included)
/// can be round-trip tested without pulling in a JSON library.
///
/// Objects keep insertion order out of scope: they are std::map (sorted by
/// key), which is all the metric tooling needs.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value, std::less<>>;

  Value() : kind_(Kind::kNull) {}
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  explicit Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }

  /// Object member lookup; nullptr if this is not an object or the key is
  /// absent.
  const Value* Find(std::string_view key) const;

  /// `Find` chained through nested objects: Get("histograms", "xml.parse").
  template <typename... Keys>
  const Value* Get(std::string_view key, Keys... rest) const {
    const Value* v = Find(key);
    if constexpr (sizeof...(rest) == 0) {
      return v;
    } else {
      return v != nullptr ? v->Get(rest...) : nullptr;
    }
  }

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON text (RFC 8259: objects, arrays, strings with escapes
/// and \uXXXX, numbers, true/false/null). Trailing content after the value
/// is an error. Nesting depth is bounded (protects the recursive parser
/// from hostile input).
Result<Value> Parse(std::string_view input);

}  // namespace qmatch::obs::json

#endif  // QMATCH_TESTS_SUPPORT_JSON_H_
