// Typed unbounded mailbox for process-to-process messaging inside one
// simulation: senders never block, receivers block while it is empty. The
// host runtime's listen backlog (core/platform.cpp) is one.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "sim/condition.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace mg::sim {

/// Thrown by recv() when the channel is closed and drained.
class ChannelClosed : public mg::Error {
 public:
  ChannelClosed() : mg::Error("channel closed") {}
};

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(sim), readable_(sim) {}

  /// Enqueue without blocking. Throws ChannelClosed if the channel is closed.
  void send(T value) {
    if (!trySend(std::move(value))) throw ChannelClosed{};
  }

  /// Enqueue without blocking; false once the channel is closed.
  bool trySend(T value) {
    if (closed_) return false;
    items_.push_back(std::move(value));
    readable_.notifyOne();
    return true;
  }

  /// Blocking receive; waits while empty. Throws ChannelClosed when the
  /// channel is closed and all queued items have been drained.
  T recv() {
    while (items_.empty()) {
      if (closed_) throw ChannelClosed{};
      readable_.wait();
    }
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  /// Receive with timeout; nullopt on expiry. Throws ChannelClosed when
  /// closed and drained.
  std::optional<T> recvFor(SimTime timeout) {
    const SimTime deadline = sim_.now() + timeout;
    while (items_.empty()) {
      if (closed_) throw ChannelClosed{};
      const SimTime remaining = deadline - sim_.now();
      if (remaining <= 0 || !readable_.waitFor(remaining)) {
        if (!items_.empty()) break;  // raced with a send at the deadline
        return std::nullopt;
      }
    }
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  /// Close the channel: senders and (once drained) receivers get
  /// ChannelClosed. Idempotent.
  void close() {
    if (closed_) return;
    closed_ = true;
    readable_.notifyAll();
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  Simulator& sim_;
  bool closed_ = false;
  std::deque<T> items_;
  Condition readable_;
};

}  // namespace mg::sim
