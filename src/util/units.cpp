#include "util/units.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/error.h"
#include "util/strings.h"

namespace mg::util {

namespace {

// Split "12.5Mbps" into value 12.5 and suffix "Mbps".
struct Quantity {
  double value = 0;
  std::string suffix;
};

Quantity parseQuantity(std::string_view s, std::string_view what) {
  std::string_view t = trim(s);
  if (t.empty()) throw ParseError("empty " + std::string(what) + " string");
  std::string text(t);
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) {
    throw ParseError("no numeric value in " + std::string(what) + " '" + text + "'");
  }
  if (!std::isfinite(v)) {
    throw ParseError("non-finite value in " + std::string(what) + " '" + text + "'");
  }
  std::string suffix(trim(std::string_view(end)));
  return {v, suffix};
}

double decimalPrefix(char c) {
  switch (std::tolower(static_cast<unsigned char>(c))) {
    case 'k': return 1e3;
    case 'm': return 1e6;
    case 'g': return 1e9;
    case 't': return 1e12;
    default: return 0;
  }
}

}  // namespace

double parseBandwidth(std::string_view s) {
  Quantity q = parseQuantity(s, "bandwidth");
  std::string suf = toLower(q.suffix);
  // Normalize "b/s" to "bps".
  if (endsWith(suf, "b/s")) suf = suf.substr(0, suf.size() - 3) + "bps";
  if (suf.empty() || suf == "bps" || suf == "b") return q.value;
  double mult = decimalPrefix(suf[0]);
  if (mult > 0) {
    std::string rest = suf.substr(1);
    if (rest.empty() || rest == "bps" || rest == "b" || rest == "bit" || rest == "bits") {
      return q.value * mult;
    }
    if (rest == "bytes/s" || rest == "b/s" || rest == "bps8") {
      return q.value * mult * 8;
    }
  }
  throw ParseError("unrecognized bandwidth unit '" + q.suffix + "'");
}

double parseTime(std::string_view s) {
  Quantity q = parseQuantity(s, "time");
  std::string suf = toLower(q.suffix);
  if (suf.empty() || suf == "s" || suf == "sec" || suf == "secs" || suf == "seconds") {
    return q.value;
  }
  if (suf == "ms" || suf == "msec") return q.value * 1e-3;
  if (suf == "us" || suf == "usec") return q.value * 1e-6;
  if (suf == "ns" || suf == "nsec") return q.value * 1e-9;
  if (suf == "min" || suf == "m") return q.value * 60.0;
  if (suf == "h" || suf == "hr" || suf == "hours") return q.value * 3600.0;
  throw ParseError("unrecognized time unit '" + q.suffix + "'");
}

std::int64_t parseSize(std::string_view s) {
  Quantity q = parseQuantity(s, "size");
  std::string suf = toLower(q.suffix);
  if (suf.empty() || suf == "b" || suf == "byte" || suf == "bytes") {
    return static_cast<std::int64_t>(std::llround(q.value));
  }
  double mult = 0;
  char prefix = suf[0];
  switch (prefix) {
    case 'k': mult = 1024.0; break;
    case 'm': mult = 1024.0 * 1024; break;
    case 'g': mult = 1024.0 * 1024 * 1024; break;
    case 't': mult = 1024.0 * 1024 * 1024 * 1024; break;
    default: mult = 0; break;
  }
  if (mult > 0) {
    std::string rest = suf.substr(1);
    if (rest == "ib") rest = "b";  // "MiB" et al.: same binary meaning here
    if (rest.empty() || rest == "b" || rest == "byte" || rest == "bytes") {
      return static_cast<std::int64_t>(std::llround(q.value * mult));
    }
  }
  throw ParseError("unrecognized size unit '" + q.suffix + "'");
}

double parseComputeRate(std::string_view s) {
  Quantity q = parseQuantity(s, "compute rate");
  std::string suf = toLower(q.suffix);
  if (suf.empty()) return q.value;
  if (suf == "hz" || suf == "ops" || suf == "ips" || suf == "flops") return q.value;
  double mult = decimalPrefix(suf[0]);
  if (mult > 0) {
    std::string rest = suf.substr(1);
    if (rest == "hz" || rest == "ops" || rest == "ips" || rest == "flops") {
      return q.value * mult;
    }
  }
  // "MIPS" spelled out.
  if (suf == "mips") return q.value * 1e6;
  throw ParseError("unrecognized compute-rate unit '" + q.suffix + "'");
}

std::string formatBandwidth(double bps) {
  if (bps >= 1e9) return format("%.3gGbps", bps / 1e9);
  if (bps >= 1e6) return format("%.3gMbps", bps / 1e6);
  if (bps >= 1e3) return format("%.3gKbps", bps / 1e3);
  return format("%.3gbps", bps);
}

std::string formatTime(double seconds) {
  double a = std::fabs(seconds);
  if (a >= 1.0 || a == 0.0) return format("%.4gs", seconds);
  if (a >= 1e-3) return format("%.4gms", seconds * 1e3);
  if (a >= 1e-6) return format("%.4gus", seconds * 1e6);
  return format("%.4gns", seconds * 1e9);
}

std::string formatSize(std::int64_t bytes) {
  double b = static_cast<double>(bytes);
  if (b >= 1024.0 * 1024 * 1024) return format("%.3gGB", b / (1024.0 * 1024 * 1024));
  if (b >= 1024.0 * 1024) return format("%.3gMB", b / (1024.0 * 1024));
  if (b >= 1024.0) return format("%.3gKB", b / 1024.0);
  return format("%lldB", static_cast<long long>(bytes));
}

}  // namespace mg::util
