// Parsing and formatting of physical units used in virtual-grid descriptions:
// bandwidths ("100Mbps"), times ("50ms"), sizes ("1GB"), and compute rates
// ("533MHz", "200MIPS", "150Mops").
//
// The GIS records of the paper (Fig 3) carry values such as
//   CpuSpeed=10         (relative units)
//   MemorySize=100MBytes
//   speed=100Mbps 50ms
// so the parsers here accept both bare numbers and suffixed quantities.
// Every parser throws ParseError on a non-finite number ("nan", "inf", or an
// overflow such as "1e999"), so NaN never reaches a range check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mg::util {

/// Parse a bandwidth like "100Mbps", "622Mb/s", "1.2Gbps", "9600bps".
/// Decimal prefixes (k = 1e3) as is conventional for link rates.
/// Returns bits per second.
double parseBandwidth(std::string_view s);

/// Parse a duration like "50ms", "10us", "1.5s", "200ns", "2min".
/// Returns seconds.
double parseTime(std::string_view s);

/// Parse a byte size like "100MBytes", "1GB", "64KB", "512B", "1MiB".
/// Binary prefixes (K = 1024) as is conventional for memory capacities.
/// Returns bytes.
std::int64_t parseSize(std::string_view s);

/// Parse a compute rate like "533MHz", "200MIPS", "150Mops", "1.5Gops".
/// Returns operations per second. MHz is treated as Mops: the paper's CPU
/// model is a single speed scalar per host.
double parseComputeRate(std::string_view s);

/// Format helpers for report output.
std::string formatBandwidth(double bits_per_sec);
std::string formatTime(double seconds);
std::string formatSize(std::int64_t bytes);

}  // namespace mg::util
