// The application-facing virtual OS interface.
//
// This is the MicroGrid's interposition surface (paper §2.2): applications
// written against HostContext use only virtual identities — hostnames,
// virtual IPs, virtual time, abstract compute — and therefore run unmodified
// on any platform. core::Platform holds the one implementation, shared by
//
//   * core::MicroGridPlatform — the emulated Grid (CPU scheduler, packet
//     network, rescaled virtual time);
//   * core::ReferencePlatform — the "physical grid" model used as ground
//     truth in the validation experiments (exact compute, flow network).
//
// The two differ only in their CPU rule and network model.
//
// One HostContext exists per simulated process; siblings on the same virtual
// host share its CPU allocation and memory capacity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/simulator.h"
#include "vos/virtual_host.h"

namespace mg::vos {

/// A connected, reliable, ordered byte stream between two virtual hosts
/// (the virtualized socket interface; paper: "we can run any socket-based
/// application on the virtual Grid").
class StreamSocket {
 public:
  virtual ~StreamSocket() = default;

  /// Blocking send of exactly n bytes.
  virtual void send(const void* data, std::size_t n) = 0;

  /// Blocking receive of 1..max bytes; 0 at orderly EOF.
  virtual std::size_t recv(void* buf, std::size_t max) = 0;

  /// Blocking receive of exactly n bytes; throws on early EOF.
  void recvExact(void* buf, std::size_t n);

  /// Orderly close; idempotent.
  virtual void close() = 0;

  /// Virtual hostname of the peer endpoint.
  virtual std::string peerHost() const = 0;

  /// On an accepted socket, the span current when the connection arrived
  /// (the connector's); 0 when untraced. Rides beside the bytes, never in them.
  obs::SpanId cause = 0;
};

/// A passive socket accepting StreamSocket connections.
class Listener {
 public:
  virtual ~Listener() = default;
  /// Block until a connection arrives.
  virtual std::shared_ptr<StreamSocket> accept() = 0;
  /// Accept with a timeout in virtual seconds; nullptr on expiry.
  virtual std::shared_ptr<StreamSocket> acceptFor(double virtual_seconds) = 0;
  virtual void close() = 0;
};

class HostContext {
 public:
  virtual ~HostContext() = default;

  /// The virtual host this process runs on.
  virtual const VirtualHostInfo& host() const = 0;
  std::string hostname() const { return host().hostname; }

  /// The virtualized gettimeofday(), in virtual seconds.
  virtual double wallTime() const = 0;

  /// Sleep for virtual seconds.
  virtual void sleep(double virtual_seconds) = 0;

  /// Execute `ops` abstract operations on this host's CPU. On the MicroGrid
  /// platform this goes through the quantum scheduler; on the reference
  /// platform it takes exactly ops / host().cpu_ops virtual seconds.
  virtual void compute(double ops) = 0;

  /// Account memory to this process; throws OutOfMemoryError beyond the
  /// virtual host's capacity.
  virtual void allocateMemory(std::int64_t bytes) = 0;
  virtual void freeMemory(std::int64_t bytes) = 0;

  /// The virtual name service (the interposed gethostbyname()).
  virtual const HostMapper& mapper() const = 0;

  /// Listen on a port of this virtual host.
  virtual std::shared_ptr<Listener> listen(std::uint16_t port) = 0;

  /// Connect to a virtual hostname or virtual IP.
  virtual std::shared_ptr<StreamSocket> connect(const std::string& host_or_ip,
                                                std::uint16_t port) = 0;

  /// Create another process on this same virtual host. It shares the host's
  /// CPU allocation and memory but gets its own HostContext. Returns the
  /// simulator process so the spawner can killProcess() it during teardown.
  virtual sim::Process& spawnProcess(const std::string& name,
                                     std::function<void(HostContext&)> body) = 0;

  /// The underlying kernel (for advanced composition; most apps never
  /// touch it).
  virtual sim::Simulator& simulator() = 0;
};

/// RAII memory accounting against a HostContext.
class MemoryLease {
 public:
  MemoryLease(HostContext& ctx, std::int64_t bytes) : ctx_(&ctx), bytes_(bytes) {
    ctx.allocateMemory(bytes);
  }
  ~MemoryLease() {
    if (ctx_) ctx_->freeMemory(bytes_);
  }
  MemoryLease(MemoryLease&& o) noexcept : ctx_(o.ctx_), bytes_(o.bytes_) { o.ctx_ = nullptr; }
  MemoryLease& operator=(MemoryLease&&) = delete;
  MemoryLease(const MemoryLease&) = delete;
  MemoryLease& operator=(const MemoryLease&) = delete;

 private:
  HostContext* ctx_;
  std::int64_t bytes_;
};

}  // namespace mg::vos
