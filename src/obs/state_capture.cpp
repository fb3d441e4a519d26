#include "obs/state_capture.h"

#include <cstring>

namespace mg::obs {

void StateWriter::bytes(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ull;  // FNV-1a prime
  }
}

void StateWriter::key(std::string_view name) {
  bytes(name.data(), name.size());
  // A separator byte keeps ("ab","c") distinct from ("a","bc").
  const unsigned char sep = 0xff;
  bytes(&sep, 1);
}

void StateWriter::u64(std::string_view name, std::uint64_t v) {
  key(name);
  bytes(&v, sizeof v);
}

void StateWriter::i64(std::string_view name, std::int64_t v) {
  key(name);
  bytes(&v, sizeof v);
}

void StateWriter::f64(std::string_view name, double v) {
  key(name);
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  bytes(&bits, sizeof bits);
}

void StateWriter::boolean(std::string_view name, bool v) {
  u64(name, v ? 1 : 0);
}

void StateWriter::str(std::string_view name, std::string_view v) {
  key(name);
  bytes(v.data(), v.size());
  const unsigned char sep = 0xfe;
  bytes(&sep, 1);
}

void StateCaptureRegistry::add(std::string name, CaptureFn fn) {
  captures_[std::move(name)] = std::move(fn);
}

std::uint64_t StateCaptureRegistry::digest() const {
  StateWriter w;
  for (const auto& [name, fn] : captures_) {
    w.key(name);
    fn(w);
  }
  return w.digest();
}

}  // namespace mg::obs
