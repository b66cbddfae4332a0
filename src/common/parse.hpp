// Whole-field numeric parsing for text read from outside the process
// (trace CSVs, fuzz artifacts).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/expect.hpp"

namespace mlfs {

/// Parses all of `text` as a T (integer or floating point) with
/// std::from_chars. Trailing characters ("2junk", "1.5x"), a sign T cannot
/// hold ("-1" for an unsigned T), or a value outside T's range are a
/// ContractViolation naming `field`; leading whitespace and '+' are
/// rejected too. Reals accept "inf" and "nan": finiteness is the caller's
/// rule.
template <class T>
T parse_number(std::string_view text, std::string_view field) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end) return value;
  const char* why = ec == std::errc::result_out_of_range ? "is out of range for"
                                                         : "is not a valid";
  const char* kind = std::is_integral_v<T>
                         ? (std::is_signed_v<T> ? "signed integer" : "unsigned integer")
                         : "real number";
  throw ContractViolation("field " + std::string(field) + ": '" + std::string(text) + "' " +
                          why + " " + kind);
}

}  // namespace mlfs
