// Error types shared across the MicroGrid libraries.
//
// The MicroGrid is a simulation framework: configuration mistakes and protocol
// violations are programmer-facing errors, reported via exceptions (per the
// C++ Core Guidelines E.2: throw to signal that a function can't do its job).
// Simulated failures (dropped packets, job failures) are *values*, never
// exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace mg {

/// Root of the MicroGrid exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A malformed configuration file, RSL string, GIS filter, unit string, ...
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

/// An inconsistent virtual-grid description (unknown host, unmapped resource, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

/// Misuse of a simulation API (blocking call outside a process, reuse of a
/// finished socket, ...).
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error("usage error: " + what) {}
};

}  // namespace mg
