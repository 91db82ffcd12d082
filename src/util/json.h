// Minimal JSON reader for the repo's own machine-readable records
// (BENCH_*.json perf records, google-benchmark output, trace files in
// tests). Parses a full document into an immutable Value tree; no external
// dependencies, no streaming — the records this reads are small.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace dcs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors; DCS_REQUIRE on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member or nullptr when absent (or when this is not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Object member; DCS_REQUIRE when absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Array element count (0 for non-arrays).
  [[nodiscard]] std::size_t size() const noexcept {
    return type_ == Type::kArray ? array_->size() : 0;
  }
  [[nodiscard]] const Value& operator[](std::size_t i) const {
    return as_array()[i];
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // shared_ptr keeps Value cheap to copy and the tree immutable-by-use.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one JSON document (trailing whitespace allowed, anything else
/// after the document throws). Throws std::invalid_argument with an offset
/// on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Reads and parses `path`; throws std::invalid_argument when the file
/// cannot be read or does not parse.
[[nodiscard]] Value parse_file(const std::string& path);

/// Serializes a double so `parse` + `read_number` return it bit-for-bit:
/// finite values render as `%.17g` numbers (strtod round-trips those
/// exactly), non-finite values as the strings "inf" / "-inf" / "nan"
/// (JSON has no literals for them). The exp checkpoint files rely on this
/// to reproduce rows byte-identically after a resume.
[[nodiscard]] std::string number_to_string(double v);

/// Reads a value written by `number_to_string`: a plain number, or one of
/// the non-finite marker strings. DCS_REQUIRE on anything else.
[[nodiscard]] double read_number(const Value& v);

/// True when `x` is a whole value inside `Int`'s range, so that
/// static_cast<Int>(x) is exact: the one check a parsed number passes
/// before it becomes an index, count or id (read_integer here, and the
/// tools' count options), so `-1`, `1e999`, `nan` or `2.5` fails there
/// instead of in an out-of-range float-to-integer conversion.
template <typename Int>
[[nodiscard]] bool is_integer_in_range(double x) noexcept {
  static_assert(std::is_integral_v<Int>);
  // Both bounds are zero or a power of two, so each converts exactly.
  constexpr double kMin = static_cast<double>(std::numeric_limits<Int>::min());
  constexpr double kEnd =
      2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  return x >= kMin && x < kEnd && x == std::trunc(x);
}

/// Reads a number that must be a whole value inside `Int`'s range
/// (is_integer_in_range): the file readers' one way to turn a parsed
/// number into an index, count or id. DCS_REQUIRE on a non-number, a
/// fraction, a non-finite value or one outside the range.
template <typename Int>
[[nodiscard]] Int read_integer(const Value& v) {
  const double x = v.as_number();
  DCS_REQUIRE(is_integer_in_range<Int>(x),
              "json number " + number_to_string(x) +
                  " is not an integer in range");
  return static_cast<Int>(x);
}

/// A double as a report number: `%.17g` when finite, `null` otherwise (for
/// summaries and snapshots, where a non-finite value means "no data").
[[nodiscard]] std::string number_or_null(double v);

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, `\n` and
/// `\t` written as such, and every other byte below 0x20 as `\u00XX`.
/// Plain text is copied in one piece, so the common identifier costs no
/// per-byte work.
void append_string(std::string& out, std::string_view s);

/// `s` as a quoted JSON string (append_string).
[[nodiscard]] std::string quote(std::string_view s);

}  // namespace dcs::json
