// Minimal JSON value and writer for run reports and Perfetto traces (no
// external dependency is available in the build image). The documents are
// read back only by Python: scripts/compare_reports.py, scripts/trace_report.py
// and the golden gate. Numbers are stored as double; integral values within
// the exact-double range serialize without a fractional part, so int64
// counters load unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sel::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  // Ordered map: deterministic serialization without tracking insertion.
  using Object = std::map<std::string, Value>;

  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT
  Value(std::int64_t i)  // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(std::uint64_t u)  // NOLINT (covers std::size_t on LP64)
      : Value(static_cast<std::int64_t>(u)) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object field access; throws when absent or not an object.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const noexcept;

  /// Serializes; indent < 0 → compact, otherwise pretty-printed.
  [[nodiscard]] std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const = default;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// RFC 8259 string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace sel::obs::json
