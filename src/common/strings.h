#ifndef SPATE_COMMON_STRINGS_H_
#define SPATE_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spate {

/// Splits `input` on `sep`, keeping empty fields (CSV semantics), and
/// appends each field to `*out` in one pass. An empty `input` is one empty
/// field.
void SplitString(std::string_view input, char sep,
                 std::vector<std::string>* out);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts, char sep);

/// Parses a decimal integer; returns false on malformed/empty input.
bool ParseInt64(std::string_view s, int64_t* value);

/// Parses a floating-point value; returns false on malformed/empty input.
bool ParseDouble(std::string_view s, double* value);

/// True if `s` consists only of decimal digits (optionally one leading '-').
bool LooksNumeric(std::string_view s);

/// Formats a byte count as a human-readable string ("1.25 GB").
std::string HumanBytes(uint64_t bytes);

}  // namespace spate

#endif  // SPATE_COMMON_STRINGS_H_
