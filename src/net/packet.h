// The on-wire unit of the packet-level simulator.
//
// Header-size constants follow TCP/IPv4 over Ethernet so that protocol
// efficiency (goodput vs raw link rate) falls out of the model rather than
// being an input: a 100 Mbps Ethernet saturates near 11.6 MB/s of payload,
// as a real MPI-over-TCP run does.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace mg::net {

/// IP payload limit per packet (Ethernet MTU).
constexpr std::int64_t kMtuBytes = 1500;
/// IPv4 + TCP headers.
constexpr std::int64_t kTcpIpHeaderBytes = 40;
/// Ethernet framing per packet: preamble(8) + header(14) + FCS(4) + IFG(12).
constexpr std::int64_t kEthernetOverheadBytes = 38;
/// Maximum TCP payload per packet.
constexpr std::int64_t kTcpMss = kMtuBytes - kTcpIpHeaderBytes;  // 1460

/// TCP flag bits.
enum TcpFlags : std::uint8_t {
  kFlagSyn = 1,
  kFlagAck = 2,
  kFlagFin = 4,
  kFlagRst = 8,
};

struct Packet {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  // TCP fields.
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;  // first payload byte's stream offset
  std::uint64_t ack = 0;  // next expected stream offset (valid with kFlagAck)
  std::int64_t window = 0;  // advertised receive window, bytes

  std::vector<std::uint8_t> payload;

  // Causal-trace context (obs::SpanId; 0 = untraced). `span` is the
  // per-packet transit span opened by the sending transport and closed by
  // the network at final disposition (delivery or drop); it carries the
  // sender's causality across hosts. `hop_span` is the currently-open
  // per-hop child span, owned by the link layer.
  std::uint64_t span = 0;
  std::uint64_t hop_span = 0;

  /// IP-layer size: headers plus payload.
  std::int64_t ipBytes() const {
    return kTcpIpHeaderBytes + static_cast<std::int64_t>(payload.size());
  }

  /// Bytes occupying link queues and transmission time (adds framing).
  std::int64_t wireBytes() const { return ipBytes() + kEthernetOverheadBytes; }
};

}  // namespace mg::net
