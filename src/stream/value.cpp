#include "stream/value.h"

namespace cosmos::stream {

void Value::throw_not_numeric() {
  throw std::logic_error{"Value: string has no numeric view"};
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  throw std::logic_error{"Value: not a string"};
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::kInt: return std::to_string(as_int());
    case ValueType::kDouble: return std::to_string(as_double());
    default: return as_string();
  }
}

}  // namespace cosmos::stream
