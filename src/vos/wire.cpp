#include "vos/wire.h"

#include "util/error.h"

namespace mg::vos {

void StreamSocket::recvExact(void* buf, std::size_t n) {
  auto* out = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = recv(out + got, n - got);
    if (r == 0) throw mg::Error("stream ended mid-message");
    got += r;
  }
}

void sendFrame(StreamSocket& sock, const std::string& payload, obs::MetricsRegistry& metrics) {
  if (payload.size() > kMaxFrameBytes) throw mg::UsageError("frame too large");
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t hdr[4] = {
      static_cast<std::uint8_t>(len >> 24),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len),
  };
  sock.send(hdr, 4);
  if (!payload.empty()) sock.send(payload.data(), payload.size());
  metrics.counter("vos.wire.frames_sent").inc();
  metrics.counter("vos.wire.bytes_sent").inc(static_cast<std::int64_t>(payload.size()) + 4);
}

std::string recvFrame(StreamSocket& sock, obs::MetricsRegistry& metrics) {
  std::uint8_t hdr[4];
  sock.recvExact(hdr, 4);
  const std::uint32_t len = (static_cast<std::uint32_t>(hdr[0]) << 24) |
                            (static_cast<std::uint32_t>(hdr[1]) << 16) |
                            (static_cast<std::uint32_t>(hdr[2]) << 8) |
                            static_cast<std::uint32_t>(hdr[3]);
  if (len > kMaxFrameBytes) throw mg::Error("oversized frame");
  std::string payload(len, '\0');
  if (len > 0) sock.recvExact(payload.data(), len);
  metrics.counter("vos.wire.frames_received").inc();
  metrics.counter("vos.wire.bytes_received").inc(static_cast<std::int64_t>(len) + 4);
  return payload;
}

}  // namespace mg::vos
