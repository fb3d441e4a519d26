// Per-host transport bundle: one TCP stack and one UDP stack sharing the
// node's single attachment point on the packet network.
#pragma once

#include <memory>

#include "net/tcp.h"
#include "net/udp.h"

namespace mg::net {

class HostStack {
 public:
  HostStack(NetworkModel& net, NodeId node) : tcp_(net, node), udp_(net, node) {
    net.attachHost(node, [this](Packet&& pkt) {
      if (pkt.protocol == Protocol::Tcp) {
        tcp_.onPacket(std::move(pkt));
      } else {
        udp_.onPacket(std::move(pkt));
      }
    });
  }
  HostStack(const HostStack&) = delete;
  HostStack& operator=(const HostStack&) = delete;

  TcpStack& tcp() { return tcp_; }
  UdpStack& udp() { return udp_; }
  NodeId node() const { return tcp_.node(); }

 private:
  TcpStack tcp_;
  UdpStack udp_;
};

}  // namespace mg::net
