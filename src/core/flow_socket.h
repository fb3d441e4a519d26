// Socket semantics over the fluid flow model.
//
// When a platform runs with --netmodel=flow (or for the non-escalated side
// of --netmodel=hybrid) there is no TCP state machine: a connection is a
// pair of FlowSocket endpoints and every send() becomes one max-min fair
// flow on the FlowEngine — one kernel event per message instead of one per
// segment per hop. Semantics kept from the TCP path:
//   - connect() costs a handshake round-trip plus setup overhead and
//     refuses when no listener is bound or the host is down;
//   - send() is pipelined behind a TCP-style window: chunks of at most
//     kChunkBytes are queued and flow one at a time (chained at drain
//     boundaries so stream order is preserved), and the sender blocks only
//     once kWindowBytes are in flight undelivered — so back-to-back small
//     sends pay the latency + overhead tail once, not per call, while
//     senders still feel contention through flow rates;
//   - recv() is a byte stream with orderly EOF after close();
//   - a host crash resets every connection touching it (the dying-gasp
//     visibility the fault harness tests rely on), and faults that abort an
//     in-flight flow surface as ConnectionReset at the blocked sender.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/tcp.h"
#include "sim/condition.h"
#include "vos/context.h"

namespace mg::core {

class FlowSocket;
class FlowListener;

/// Per-platform registry of flow-mode listeners and live sockets.
class FlowEndpointTable {
 public:
  /// Resolves a node id to its virtual hostname (peerHost()).
  using HostnameFn = std::function<std::string(net::NodeId)>;
  /// Where a listener delivers each accepted socket, in connect order.
  /// Called once with nullptr when the listener closes, so the owner can
  /// close its backlog (the same contract as net::TcpAcceptSink).
  using AcceptSink = std::function<void(std::shared_ptr<vos::StreamSocket>)>;

  /// `net` must have a fluid engine (Network::flows()).
  FlowEndpointTable(net::Network& net, HostnameFn hostname);
  FlowEndpointTable(const FlowEndpointTable&) = delete;
  FlowEndpointTable& operator=(const FlowEndpointTable&) = delete;

  /// Bind a listener; throws UsageError if (node, port) is taken.
  std::shared_ptr<FlowListener> listen(net::NodeId node, std::uint16_t port, AcceptSink sink);

  /// Blocking active open (process context). Throws ConnectionRefused when
  /// nothing is listening or the target host is down.
  std::shared_ptr<vos::StreamSocket> connect(net::NodeId src, net::NodeId dst,
                                             std::uint16_t port);

  /// Host crash: error every socket touching `node` (blocked senders and
  /// receivers unwind with ConnectionReset) and close its listeners.
  void crashNode(net::NodeId node);

  net::FlowEngine& engine() { return engine_; }

 private:
  friend class FlowSocket;
  friend class FlowListener;

  void unlisten(net::NodeId node, std::uint16_t port);
  void track(const std::shared_ptr<FlowSocket>& sock);

  net::Network& net_;
  net::FlowEngine& engine_;
  sim::Simulator& sim_;
  HostnameFn hostname_;
  std::map<std::pair<net::NodeId, std::uint16_t>, FlowListener*> listeners_;
  // Live sockets by endpoint node, for crashNode; pruned opportunistically.
  std::map<net::NodeId, std::vector<std::weak_ptr<FlowSocket>>> by_node_;
};

/// One endpoint of a flow-mode connection.
class FlowSocket : public vos::StreamSocket, public std::enable_shared_from_this<FlowSocket> {
 public:
  void send(const void* data, std::size_t n) override;
  std::size_t recv(void* buf, std::size_t max) override;
  void close() override;
  std::string peerHost() const override;

  net::NodeId localNode() const { return local_; }
  net::NodeId remoteNode() const { return remote_; }

 private:
  friend class FlowEndpointTable;
  FlowSocket(FlowEndpointTable& table, net::NodeId local, net::NodeId remote);

  struct SendChunk {
    std::vector<std::uint8_t> bytes;
    bool eof = false;
  };

  void onDeliver(std::vector<std::uint8_t> bytes);
  void onPeerEof();
  void enterError(const std::string& what);
  /// Start the next queued chunk's flow if none is active.
  void pump();

  FlowEndpointTable& table_;
  net::NodeId local_;
  net::NodeId remote_;
  std::weak_ptr<FlowSocket> peer_;

  std::deque<std::uint8_t> recv_buf_;
  std::deque<SendChunk> send_queue_;
  std::int64_t in_flight_ = 0;  // queued or flowing, undelivered payload bytes
  bool flow_active_ = false;
  bool peer_eof_ = false;
  bool error_ = false;
  std::string error_what_;
  bool local_closed_ = false;

  sim::Condition readable_;
  sim::Condition writable_;
};

/// A bound flow-mode port; connections go to its accept sink.
class FlowListener {
 public:
  ~FlowListener();
  FlowListener(const FlowListener&) = delete;
  FlowListener& operator=(const FlowListener&) = delete;
  /// Unbind the port (later connects are refused) and tell the sink.
  /// Idempotent.
  void close();

  std::uint16_t port() const { return port_; }

 private:
  friend class FlowEndpointTable;
  FlowListener(FlowEndpointTable& table, net::NodeId node, std::uint16_t port,
               FlowEndpointTable::AcceptSink sink);

  void deliver(std::shared_ptr<vos::StreamSocket> sock);

  FlowEndpointTable& table_;
  net::NodeId node_;
  std::uint16_t port_;
  bool closed_ = false;
  FlowEndpointTable::AcceptSink sink_;
};

}  // namespace mg::core
