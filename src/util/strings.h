// Small string helpers used throughout the MicroGrid code base.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mg::util {

/// Remove leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character. Empty fields are preserved:
/// split("a,,b", ',') -> {"a", "", "b"}. split("", ',') -> {""}.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on a delimiter and trim each field.
std::vector<std::string> splitTrim(std::string_view s, char delim);

/// Split on arbitrary runs of whitespace; no empty fields are produced.
std::vector<std::string> splitWhitespace(std::string_view s);

/// ASCII lower-case copy.
std::string toLower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// Join the elements of `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Shell-style glob match: '*' is any run of characters, '?' any one
/// character; case-sensitive. Used by the GIS filter language, e.g.
/// "(hn=vm*.ucsd.edu)", and by the hybrid network's host selector.
bool globMatch(std::string_view pattern, std::string_view text);

/// Parse the whole of `s` as an integer / a number; surrounding whitespace
/// is allowed. Empty strings, trailing junk ("5abc", or "1e6" as an integer),
/// out-of-range values and non-finite numbers ("nan", "inf") give nullopt,
/// so range checks written as `x <= 0` cannot be slipped past with NaN.
std::optional<std::int64_t> parseInt(std::string_view s);
std::optional<double> parseDouble(std::string_view s);

/// Command-line flag values: parseInt/parseDouble, or a UsageError naming
/// the flag and the value (e.g. "--jobs wants an integer, got '1e6'").
/// Both also reject values outside [lo, hi].
std::int64_t flagInt(std::string_view flag, std::string_view value,
                     std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                     std::int64_t hi = std::numeric_limits<std::int64_t>::max());
double flagDouble(std::string_view flag, std::string_view value,
                  double lo = std::numeric_limits<double>::lowest(),
                  double hi = std::numeric_limits<double>::max());

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mg::util
