#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "util/error.h"

namespace mg::util {

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> splitTrim(std::string_view s, char delim) {
  std::vector<std::string> out = split(s, delim);
  for (auto& f : out) f = std::string(trim(f));
  return out;
}

std::vector<std::string> splitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool globMatch(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer matcher with backtracking over the last '*'.
  size_t p = 0, t = 0;
  size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::optional<std::int64_t> parseInt(std::string_view s) {
  const std::string str(s);
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(str, &pos);
    if (trim(std::string_view(str).substr(pos)).empty()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

std::optional<double> parseDouble(std::string_view s) {
  const std::string str(s);
  try {
    std::size_t pos = 0;
    const double v = std::stod(str, &pos);
    if (std::isfinite(v) && trim(std::string_view(str).substr(pos)).empty()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

std::int64_t flagInt(std::string_view flag, std::string_view value, std::int64_t lo,
                     std::int64_t hi) {
  const std::optional<std::int64_t> v = parseInt(value);
  if (!v) {
    throw UsageError(std::string(flag) + " wants an integer, got '" + std::string(value) + "'");
  }
  if (*v < lo || *v > hi) {
    throw UsageError(std::string(flag) + " wants an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got '" + std::string(value) + "'");
  }
  return *v;
}

double flagDouble(std::string_view flag, std::string_view value, double lo, double hi) {
  const std::optional<double> v = parseDouble(value);
  if (!v) {
    throw UsageError(std::string(flag) + " wants a number, got '" + std::string(value) + "'");
  }
  if (*v < lo || *v > hi) {
    throw UsageError(std::string(flag) + format(" wants a number in [%g, %g], got '", lo, hi) +
                     std::string(value) + "'");
  }
  return *v;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

}  // namespace mg::util
