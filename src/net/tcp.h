// A TCP-like reliable byte-stream transport over the packet network.
//
// Implements the mechanisms that shape Grid traffic behaviour at the scale
// the paper models: 3-way handshake, cumulative ACKs, sliding window with
// slow start / congestion avoidance, RTO + fast retransmit, receiver flow
// control with zero-window probing, and FIN/RST teardown. Omissions relative
// to a kernel TCP (SACK, delayed ACK, Nagle, timestamps) are deliberate:
// they trade a little realism for determinism and clarity, and none change
// the latency/bandwidth shapes the validation experiments measure.
//
// All app-facing calls (connect/accept/send/recv) block the calling
// simulated process; protocol machinery runs in event context.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "net/network.h"
#include "sim/condition.h"

namespace mg::net {

/// Peer reset the connection or the transport hit an unrecoverable error.
class ConnectionReset : public mg::Error {
 public:
  explicit ConnectionReset(const std::string& what) : mg::Error("connection reset: " + what) {}
};

/// connect() could not establish: refused (RST) or retries exhausted.
class ConnectionRefused : public mg::Error {
 public:
  explicit ConnectionRefused(const std::string& what) : mg::Error("connection refused: " + what) {}
};

class TcpStack;

/// One established (or in-progress) connection endpoint.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  ~TcpConnection() = default;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Blocking send of exactly n bytes (copies into the send buffer, waiting
  /// for space). Throws ConnectionReset on error, UsageError after close().
  void send(const void* data, std::size_t n);

  /// Blocking receive of 1..max bytes; returns 0 at orderly EOF.
  std::size_t recv(void* buf, std::size_t max);

  /// Blocking receive of exactly n bytes; throws ConnectionReset if the
  /// stream ends early.
  void recvExact(void* buf, std::size_t n);

  /// Queue an orderly close (FIN after all buffered data). Idempotent.
  void close();

  NodeId localNode() const { return local_node_; }
  NodeId remoteNode() const { return remote_node_; }
  std::uint16_t localPort() const { return local_port_; }
  std::uint16_t remotePort() const { return remote_port_; }
  bool established() const;

  std::int64_t bytesSent() const { return bytes_sent_; }
  std::int64_t bytesReceived() const { return bytes_received_; }
  std::int64_t retransmits() const { return retransmits_; }

 private:
  friend class TcpStack;
  enum class State { SynSent, SynReceived, Established, Closed };

  TcpConnection(TcpStack& stack, NodeId remote_node, std::uint16_t local_port,
                std::uint16_t remote_port);

  // -- protocol engine (event context) --
  void onPacket(Packet&& pkt);
  void onAck(std::uint64_t ack, std::int64_t window, bool pure_ack);
  void onData(Packet&& pkt);
  void startConnect();
  void sendSyn(bool is_retry);
  void sendSynAck();
  void sendPureAck();
  void sendFinSegment();
  void sendSegment(std::uint64_t seq, std::size_t len, bool is_retransmit);
  void pump();
  void armRto();
  void cancelRto();
  void onRtoFire();
  void armPersist();
  void onPersistFire();
  void enterError(const std::string& what);
  void maybeFinish();

  std::int64_t effectiveWindow() const;
  std::int64_t advertisedWindow() const;
  std::uint64_t dataEnd() const { return snd_una_ + send_buf_.size(); }
  Packet makePacket(std::uint8_t flags) const;
  void updateRttEstimate(sim::SimTime sample);
  sim::SimTime kernelTime(sim::SimTime virtual_time) const;

  TcpStack& stack_;
  sim::Simulator& sim_;

  NodeId local_node_;
  NodeId remote_node_;
  std::uint16_t local_port_;
  std::uint16_t remote_port_;

  State state_ = State::Closed;
  bool error_ = false;
  std::string error_what_;
  int syn_attempts_ = 0;

  // Send side. send_buf_ holds stream bytes [snd_una_, snd_una_+size).
  std::deque<std::uint8_t> send_buf_;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  double cwnd_ = 0;
  double ssthresh_ = 0;
  std::int64_t peer_window_ = kTcpMss;
  int dup_acks_ = 0;
  // NewReno-style recovery: while in recovery, each partial ACK retransmits
  // the next hole instead of waiting out an RTO (burst losses would
  // otherwise stall 200 ms per hole).
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::uint64_t fin_seq_ = 0;
  bool local_closed_ = false;  // app called close()

  // RTT estimation (Karn: one sample at a time, never from retransmits).
  bool rtt_pending_ = false;
  std::uint64_t rtt_seq_ = 0;
  sim::SimTime rtt_sent_at_ = 0;
  sim::SimTime srtt_ = 0;
  sim::SimTime rttvar_ = 0;
  sim::SimTime rto_ = 0;  // kernel-clock units

  sim::EventId rto_event_ = 0;
  sim::EventId persist_event_ = 0;

  // Receive side.
  std::deque<std::uint8_t> recv_buf_;
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::vector<std::uint8_t>> out_of_order_;
  std::int64_t out_of_order_bytes_ = 0;
  bool peer_fin_ = false;
  std::uint64_t peer_fin_seq_ = 0;
  std::int64_t last_advertised_window_ = 0;

  sim::Condition established_cond_;
  sim::Condition readable_;
  sim::Condition writable_;

  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_received_ = 0;
  std::int64_t retransmits_ = 0;
};

/// Where a listener hands each connection that completes its handshake, in
/// SYN order (event context). Called once with nullptr when the listener
/// closes, so the owner can close its backlog.
using TcpAcceptSink = std::function<void(std::shared_ptr<TcpConnection>)>;

/// A bound listening port; connections go to its accept sink.
class TcpListener {
 public:
  std::uint16_t port() const { return port_; }
  /// Unbind the port (later SYNs get an RST) and tell the sink. Idempotent.
  void close();

 private:
  friend class TcpStack;
  TcpListener(TcpStack& stack, std::uint16_t port, TcpAcceptSink sink);

  TcpStack& stack_;
  std::uint16_t port_;
  bool closed_ = false;
  TcpAcceptSink sink_;
};

/// The per-host TCP endpoint table. It is the node's transport dispatch on
/// the packet network from construction until destruction.
class TcpStack {
 public:
  /// `net` must carry packets (Network::carriesPackets()).
  TcpStack(Network& net, NodeId node);
  ~TcpStack();
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Start listening; throws UsageError if the port is taken.
  std::shared_ptr<TcpListener> listen(std::uint16_t port, TcpAcceptSink sink);

  /// Blocking active open; throws ConnectionRefused on failure.
  std::shared_ptr<TcpConnection> connect(NodeId dst, std::uint16_t port);

  /// Transport dispatch (the handler attached to the packet network).
  void onPacket(Packet&& pkt);

  /// A passive connection completed its handshake; hand it to the listener.
  void connectionEstablished(TcpConnection& conn);

  /// Host crash: send an RST to every live peer, error every connection
  /// (blocked senders/receivers unwind with ConnectionReset) and close all
  /// listeners. The RSTs are scheduled before the node is marked down, so
  /// they escape onto the wire like a dying kernel's last gasp.
  void abortAll(const std::string& why);

  NodeId node() const { return node_; }
  Network& network() { return net_; }
  sim::Simulator& simulator() { return net_.simulator(); }

  /// Connections still in the endpoint table — everything that is neither
  /// fully closed (FINs exchanged and drained) nor reset. The explorer's
  /// "all sockets closed or reset" invariant reads this after a run drains.
  std::size_t openConnections() const { return connections_.size(); }
  std::size_t openListeners() const { return listeners_.size(); }

  /// Fold the endpoint table into `w` (DESIGN.md §11): connection keys with
  /// their transport-machine state (seq/ack/window/cwnd, buffered bytes,
  /// FIN flags, RTO estimate) plus the open listener ports. Read-only.
  void saveState(obs::StateWriter& w) const;

 private:
  friend class TcpConnection;
  friend class TcpListener;

  struct ConnKey {
    std::uint16_t local_port;
    NodeId remote_node;
    std::uint16_t remote_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  void sendRst(const Packet& cause);
  void removeConnection(const TcpConnection& conn);
  void removeListener(std::uint16_t port);
  std::uint16_t allocateEphemeralPort();

  Network& net_;
  NodeId node_;
  // Host-wide transport counters: every stack on a simulator resolves the
  // same `net.tcp.*` registry entries, so these aggregate across hosts.
  obs::Counter& c_connections_;
  obs::Counter& c_segments_;
  obs::Counter& c_retransmits_;
  obs::Counter& c_bytes_sent_;
  obs::Counter& c_bytes_received_;
  std::map<ConnKey, std::shared_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, TcpListener*> listeners_;
  std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace mg::net
