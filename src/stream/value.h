// Runtime values carried by stream tuples.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>

namespace cosmos::stream {

enum class ValueType { kInt, kDouble, kString };

/// A dynamically-typed scalar. Numeric comparisons are cross-type
/// (int vs double compares numerically); strings only compare to strings.
///
/// compare()/operator== are the innermost loop of every filter, join probe
/// and subscription match, so they are inline fast paths: same-type
/// comparisons dispatch on the variant index directly (int-int compares
/// exactly, without the round-trip through double), and no std::string is
/// ever constructed.
class Value {
 public:
  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t v) : v_(v) {}          // NOLINT(google-explicit-constructor)
  Value(int v) : v_(std::int64_t{v}) {}     // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}                // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : v_(std::string{v}) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] ValueType type() const noexcept {
    switch (v_.index()) {
      case 0: return ValueType::kInt;
      case 1: return ValueType::kDouble;
      default: return ValueType::kString;
    }
  }
  [[nodiscard]] bool is_numeric() const noexcept {
    return type() != ValueType::kString;
  }

  /// Numeric view; throws std::logic_error for strings. The numeric cases
  /// are inline: band-key reads and compiled compares sit on them.
  [[nodiscard]] double as_double() const {
    if (const auto* i = std::get_if<std::int64_t>(&v_)) {
      return static_cast<double>(*i);
    }
    if (const auto* d = std::get_if<double>(&v_)) return *d;
    throw_not_numeric();
  }
  [[nodiscard]] std::int64_t as_int() const {
    if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
    if (const auto* d = std::get_if<double>(&v_)) {
      return static_cast<std::int64_t>(*d);
    }
    throw_not_numeric();
  }
  [[nodiscard]] const std::string& as_string() const;

  /// Three-way comparison; throws std::logic_error on string-vs-numeric.
  /// int-int compares exactly; int-double and double-double numerically.
  [[nodiscard]] int compare(const Value& other) const {
    const std::size_t ia = v_.index();
    const std::size_t ib = other.v_.index();
    if (ia == 0 && ib == 0) {
      const auto a = *std::get_if<std::int64_t>(&v_);
      const auto b = *std::get_if<std::int64_t>(&other.v_);
      return a < b ? -1 : (a == b ? 0 : 1);
    }
    if (ia != 2 && ib != 2) {
      const double a = ia == 0
                           ? static_cast<double>(*std::get_if<std::int64_t>(&v_))
                           : *std::get_if<double>(&v_);
      const double b =
          ib == 0 ? static_cast<double>(*std::get_if<std::int64_t>(&other.v_))
                  : *std::get_if<double>(&other.v_);
      return a < b ? -1 : (a == b ? 0 : 1);
    }
    if (ia == 2 && ib == 2) {
      const auto& a = *std::get_if<std::string>(&v_);
      const auto& b = *std::get_if<std::string>(&other.v_);
      return a < b ? -1 : (a == b ? 0 : 1);
    }
    throw std::logic_error{"Value: string vs numeric comparison"};
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) {
    // Same-type fast path: one index check, no three-way detour.
    const std::size_t ia = a.v_.index();
    if (ia == b.v_.index()) {
      switch (ia) {
        case 0:
          return *std::get_if<std::int64_t>(&a.v_) ==
                 *std::get_if<std::int64_t>(&b.v_);
        case 1:
          return *std::get_if<double>(&a.v_) == *std::get_if<double>(&b.v_);
        default:
          return *std::get_if<std::string>(&a.v_) ==
                 *std::get_if<std::string>(&b.v_);
      }
    }
    return a.compare(b) == 0;  // cross-type numeric, or throw on mixed
  }

 private:
  [[noreturn]] static void throw_not_numeric();

  std::variant<std::int64_t, double, std::string> v_;
};

}  // namespace cosmos::stream
