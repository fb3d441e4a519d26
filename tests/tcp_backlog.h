// An accept backlog for net-level TCP tests.
//
// A TcpListener hands each established connection to its accept sink; the
// platform's listener feeds its own backlog that way. Tests that drive a
// TcpStack directly use this helper instead: the sink is a sim::Channel, and
// accept()/acceptFor() block on it the way an application's accept does.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "net/tcp.h"
#include "sim/channel.h"

namespace mgtest {

class TcpBacklog {
 public:
  TcpBacklog(mg::net::TcpStack& stack, std::uint16_t port)
      : backlog_(std::make_shared<Channel>(stack.simulator())),
        listener_(stack.listen(port, [ch = backlog_](std::shared_ptr<mg::net::TcpConnection> c) {
          if (c) {
            ch->trySend(std::move(c));
          } else {
            ch->close();
          }
        })) {}

  /// Block until a connection completes the handshake.
  std::shared_ptr<mg::net::TcpConnection> accept() { return backlog_->recv(); }

  /// Accept with a kernel-time timeout; nullptr on expiry.
  std::shared_ptr<mg::net::TcpConnection> acceptFor(mg::sim::SimTime timeout) {
    auto v = backlog_->recvFor(timeout);
    return v ? std::move(*v) : nullptr;
  }

  void close() { listener_->close(); }

 private:
  using Channel = mg::sim::Channel<std::shared_ptr<mg::net::TcpConnection>>;
  std::shared_ptr<Channel> backlog_;
  std::shared_ptr<mg::net::TcpListener> listener_;
};

/// Listen on `port` with a channel backlog; throws UsageError if taken.
inline std::shared_ptr<TcpBacklog> listenOn(mg::net::TcpStack& stack, std::uint16_t port) {
  return std::make_shared<TcpBacklog>(stack, port);
}

}  // namespace mgtest
