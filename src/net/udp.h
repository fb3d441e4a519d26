// A UDP-like datagram transport: unreliable, unordered, message-oriented.
// Datagrams larger than the MTU are fragmented; loss of any fragment loses
// the whole datagram (as IP fragmentation behaves). The GIS and grid
// services use TCP, but UDP exercises the loss/fragmentation paths of the
// network model and supports probe-style tooling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/network_model.h"
#include "sim/channel.h"

namespace mg::net {

struct Datagram {
  NodeId src_node = kNoNode;
  std::uint16_t src_port = 0;
  std::vector<std::uint8_t> data;
};

class UdpStack;

/// A bound datagram socket.
class UdpSocket {
 public:
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Blocking receive of one datagram.
  Datagram recvFrom();

  /// Receive with timeout; nullopt on expiry.
  std::optional<Datagram> recvFromFor(sim::SimTime timeout);

  /// Send from this socket's port.
  void sendTo(NodeId dst, std::uint16_t dst_port, std::vector<std::uint8_t> data);

  std::uint16_t port() const { return port_; }
  void close();

 private:
  friend class UdpStack;
  UdpSocket(UdpStack& stack, std::uint16_t port);

  UdpStack& stack_;
  std::uint16_t port_;
  bool closed_ = false;
  std::unique_ptr<sim::Channel<Datagram>> inbox_;
};

/// The per-host UDP endpoint table.
class UdpStack {
 public:
  /// Maximum datagram payload (IPv4 limit minus headers).
  static constexpr std::size_t kMaxDatagram = 65507;
  /// Reassembly timeout for incomplete datagrams.
  static constexpr sim::SimTime kReassemblyTimeout = 30 * sim::kSecond;

  UdpStack(NetworkModel& net, NodeId node);
  UdpStack(const UdpStack&) = delete;
  UdpStack& operator=(const UdpStack&) = delete;

  /// Bind a socket; throws UsageError if the port is taken.
  std::shared_ptr<UdpSocket> bind(std::uint16_t port);

  /// Send a datagram from an ephemeral source port.
  void sendTo(NodeId dst, std::uint16_t dst_port, std::vector<std::uint8_t> data);

  /// Transport dispatch (called by HostStack).
  void onPacket(Packet&& pkt);

  NodeId node() const { return node_; }
  NetworkModel& network() { return net_; }
  sim::Simulator& simulator() { return net_.simulator(); }

 private:
  friend class UdpSocket;
  void sendFrom(std::uint16_t src_port, NodeId dst, std::uint16_t dst_port,
                std::vector<std::uint8_t> data);
  void unbind(std::uint16_t port);

  struct ReassemblyKey {
    NodeId src_node;
    std::uint16_t src_port;
    std::uint32_t datagram_id;
    auto operator<=>(const ReassemblyKey&) const = default;
  };
  struct Reassembly {
    std::map<std::uint16_t, std::vector<std::uint8_t>> fragments;
    std::uint16_t fragment_count = 0;
    sim::SimTime started = 0;
  };

  NetworkModel& net_;
  NodeId node_;
  // Aggregated `net.udp.*` registry counters (shared across stacks).
  obs::Counter& c_datagrams_sent_;
  obs::Counter& c_datagrams_delivered_;
  obs::Counter& c_dropped_incomplete_;
  std::map<std::uint16_t, UdpSocket*> sockets_;
  std::map<ReassemblyKey, Reassembly> reassembly_;
  std::uint32_t next_datagram_id_ = 1;
  std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace mg::net
