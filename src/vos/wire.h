// Length-prefixed message framing over StreamSocket, shared by the GIS and
// GRAM wire protocols. Frames are a 4-byte big-endian length followed by the
// payload.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "vos/context.h"

namespace mg::vos {

/// Frames larger than this are rejected (wire-protocol sanity bound).
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Send one framed message and bump the `vos.wire.frames_sent` and
/// `vos.wire.bytes_sent` counters. Control-plane traffic only (GIS/GRAM), so
/// the per-frame name lookup is not a hot path.
void sendFrame(StreamSocket& sock, const std::string& payload, obs::MetricsRegistry& metrics);

/// Receive one framed message and bump `vos.wire.frames_received` and
/// `vos.wire.bytes_received`; throws mg::Error on EOF mid-frame or oversized
/// frames.
std::string recvFrame(StreamSocket& sock, obs::MetricsRegistry& metrics);

}  // namespace mg::vos
