#include "net/tcp.h"

#include <algorithm>
#include <cstring>

#include "util/log.h"

namespace mg::net {
namespace {

// Transport constants (DESIGN.md §12). Times are virtual and
// pass through kernelTime() before they are scheduled.
constexpr std::int64_t kSendBuffer = 1 << 20;  // bytes
constexpr std::int64_t kRecvBuffer = 1 << 20;  // bytes
constexpr std::int64_t kInitialCwnd = 2 * kTcpMss;
constexpr std::int64_t kInitialSsthresh = 64 * 1024;
constexpr sim::SimTime kMinRto = 200 * sim::kMillisecond;
constexpr sim::SimTime kMaxRto = 10 * sim::kSecond;
constexpr sim::SimTime kSynTimeout = 1 * sim::kSecond;
constexpr int kSynRetries = 5;
constexpr sim::SimTime kPersistInterval = 500 * sim::kMillisecond;

}  // namespace

// ===========================================================================
// TcpConnection
// ===========================================================================

TcpConnection::TcpConnection(TcpStack& stack, NodeId remote_node, std::uint16_t local_port,
                             std::uint16_t remote_port)
    : stack_(stack),
      sim_(stack.simulator()),
      local_node_(stack.node()),
      remote_node_(remote_node),
      local_port_(local_port),
      remote_port_(remote_port),
      established_cond_(sim_),
      readable_(sim_),
      writable_(sim_) {
  cwnd_ = static_cast<double>(kInitialCwnd);
  ssthresh_ = static_cast<double>(kInitialSsthresh);
  rto_ = kernelTime(kMinRto * 5);  // conservative until the first RTT sample
  last_advertised_window_ = kRecvBuffer;
}

sim::SimTime TcpConnection::kernelTime(sim::SimTime virtual_time) const {
  return stack_.network().scaleDuration(virtual_time);
}

bool TcpConnection::established() const { return state_ == State::Established && !error_; }

Packet TcpConnection::makePacket(std::uint8_t flags) const {
  Packet p;
  p.src = local_node_;
  p.dst = remote_node_;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.flags = flags;
  p.ack = rcv_nxt_;
  p.window = advertisedWindow();
  return p;
}

std::int64_t TcpConnection::advertisedWindow() const {
  const std::int64_t used = static_cast<std::int64_t>(recv_buf_.size()) + out_of_order_bytes_;
  return std::max<std::int64_t>(0, kRecvBuffer - used);
}

std::int64_t TcpConnection::effectiveWindow() const {
  return std::max<std::int64_t>(0, std::min<std::int64_t>(static_cast<std::int64_t>(cwnd_), peer_window_));
}

// --------------------------------------------------------------- app calls --

void TcpConnection::send(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (local_closed_) throw UsageError("send after close");
  std::size_t remaining = n;
  while (remaining > 0) {
    if (error_) throw ConnectionReset(error_what_);
    const std::int64_t space = kSendBuffer - static_cast<std::int64_t>(send_buf_.size());
    if (space <= 0) {
      writable_.wait();
      continue;
    }
    const std::size_t take = std::min(remaining, static_cast<std::size_t>(space));
    send_buf_.insert(send_buf_.end(), p, p + take);
    p += take;
    remaining -= take;
    bytes_sent_ += static_cast<std::int64_t>(take);
    stack_.c_bytes_sent_.inc(static_cast<std::int64_t>(take));
    pump();
  }
}

std::size_t TcpConnection::recv(void* buf, std::size_t max) {
  if (max == 0) return 0;
  while (recv_buf_.empty()) {
    if (error_) throw ConnectionReset(error_what_);
    if (peer_fin_ && rcv_nxt_ >= peer_fin_seq_) return 0;  // orderly EOF
    readable_.wait();
  }
  const std::size_t n = std::min(max, recv_buf_.size());
  auto* out = static_cast<std::uint8_t*>(buf);
  std::copy_n(recv_buf_.begin(), n, out);
  recv_buf_.erase(recv_buf_.begin(), recv_buf_.begin() + static_cast<std::ptrdiff_t>(n));
  bytes_received_ += static_cast<std::int64_t>(n);
  stack_.c_bytes_received_.inc(static_cast<std::int64_t>(n));
  // Window-update ACK: tell a sender stalled on a closed window that space
  // has opened (replaces the receiver half of the persist machinery).
  if (last_advertised_window_ < kTcpMss && advertisedWindow() >= kTcpMss) {
    sendPureAck();
  }
  return n;
}

void TcpConnection::recvExact(void* buf, std::size_t n) {
  auto* out = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = recv(out + got, n - got);
    if (r == 0) throw ConnectionReset("stream ended mid-message");
    got += r;
  }
}

void TcpConnection::close() {
  if (local_closed_) return;
  local_closed_ = true;
  if (error_ || state_ == State::Closed) return;
  fin_queued_ = true;
  pump();
}

// ------------------------------------------------------------ segment I/O --

void TcpConnection::startConnect() {
  state_ = State::SynSent;
  syn_attempts_ = 0;
  sendSyn(false);
}

void TcpConnection::sendSyn(bool is_retry) {
  if (is_retry) {
    ++retransmits_;
    stack_.c_retransmits_.inc();
  }
  ++syn_attempts_;
  Packet p = makePacket(kFlagSyn);
  stack_.network().send(std::move(p));
  auto self = shared_from_this();
  const sim::SimTime backoff = kernelTime(kSynTimeout) * (1ll << (syn_attempts_ - 1));
  rto_event_ = sim_.scheduleAfter(backoff, [self] {
    if (self->state_ != State::SynSent) return;
    if (self->syn_attempts_ >= kSynRetries) {
      self->enterError("connect timed out");
    } else {
      self->sendSyn(true);
    }
  });
}

void TcpConnection::sendSynAck() {
  Packet p = makePacket(kFlagSyn | kFlagAck);
  stack_.network().send(std::move(p));
}

void TcpConnection::sendPureAck() {
  Packet p = makePacket(kFlagAck);
  last_advertised_window_ = p.window;
  stack_.network().send(std::move(p));
}

void TcpConnection::sendFinSegment() {
  Packet p = makePacket(kFlagFin | kFlagAck);
  p.seq = fin_seq_;
  stack_.network().send(std::move(p));
}

void TcpConnection::sendSegment(std::uint64_t seq, std::size_t len, bool is_retransmit) {
  Packet p = makePacket(kFlagAck);
  p.seq = seq;
  p.payload.resize(len);
  const std::size_t off = static_cast<std::size_t>(seq - snd_una_);
  std::copy_n(send_buf_.begin() + static_cast<std::ptrdiff_t>(off), len, p.payload.begin());
  last_advertised_window_ = p.window;
  stack_.c_segments_.inc();
  if (is_retransmit) {
    ++retransmits_;
    stack_.c_retransmits_.inc();
  } else if (!rtt_pending_) {
    // Karn's rule: sample only fresh segments, one at a time.
    rtt_pending_ = true;
    rtt_seq_ = seq + len;
    rtt_sent_at_ = sim_.now();
  }
  // Each data segment sent with causal context gets a transit span
  // (send -> delivery/drop) parented to the current context — the vmpi send,
  // or the ACK-clock event chain rooted there. The network closes it at
  // final disposition. Context-free segments (server control replies from
  // daemons outside any job) stay untraced, like SYN/ACK control packets, so
  // every recorded net.* span has a live parent.
  obs::SpanRecorder& spans = sim_.spans();
  if (spans.enabled() && spans.current() != 0) {
    p.span = spans.begin("net.tcp", "segment",
                         stack_.network().topology().node(local_node_).name);
    spans.annotate(p.span, "seq", std::to_string(seq));
    spans.annotate(p.span, "len", std::to_string(len));
    if (is_retransmit) spans.annotate(p.span, "retransmit", "1");
  }
  stack_.network().send(std::move(p));
}

void TcpConnection::pump() {
  if (state_ != State::Established || error_) return;
  const std::uint64_t limit = snd_una_ + static_cast<std::uint64_t>(effectiveWindow());
  const std::uint64_t end = dataEnd();
  while (snd_nxt_ < end && snd_nxt_ < limit) {
    const std::uint64_t avail = end - snd_nxt_;
    const std::uint64_t room = limit - snd_nxt_;
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>({static_cast<std::uint64_t>(kTcpMss), avail, room}));
    // Sender-side silly-window avoidance: a short segment is only worth
    // sending when it drains the buffer (the app may be waiting on the
    // reply) or nothing is in flight (keep the ACK clock ticking).
    const bool full_segment = len == static_cast<std::size_t>(kTcpMss);
    const bool drains_buffer = len == avail;
    const bool pipe_idle = snd_una_ == snd_nxt_;
    if (!full_segment && !drains_buffer && !pipe_idle) break;
    sendSegment(snd_nxt_, len, false);
    snd_nxt_ += len;
  }
  if (fin_queued_ && !fin_sent_ && snd_nxt_ == end) {
    fin_seq_ = snd_nxt_;
    fin_sent_ = true;
    sendFinSegment();
  }
  const bool outstanding = (snd_una_ < snd_nxt_) || (fin_sent_ && !fin_acked_);
  if (outstanding && rto_event_ == 0) armRto();
  if (peer_window_ == 0 && snd_nxt_ < end && snd_una_ == snd_nxt_) armPersist();
}

// ------------------------------------------------------------------ timers --

void TcpConnection::armRto() {
  cancelRto();
  auto self = shared_from_this();
  rto_event_ = sim_.scheduleAfter(rto_, [self] {
    self->rto_event_ = 0;
    self->onRtoFire();
  });
}

void TcpConnection::cancelRto() {
  if (rto_event_ != 0) {
    sim_.cancel(rto_event_);
    rto_event_ = 0;
  }
}

void TcpConnection::onRtoFire() {
  if (error_ || state_ != State::Established) return;
  const bool data_outstanding = snd_una_ < snd_nxt_;
  const bool fin_outstanding = fin_sent_ && !fin_acked_;
  if (!data_outstanding && !fin_outstanding) return;
  // Loss response: multiplicative decrease and go-back-N from snd_una_.
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0 * kTcpMss);
  cwnd_ = kTcpMss;
  dup_acks_ = 0;
  in_recovery_ = false;
  rtt_pending_ = false;  // Karn: discard sample that spans a retransmit
  rto_ = std::min(rto_ * 2, kernelTime(kMaxRto));
  if (data_outstanding) {
    snd_nxt_ = snd_una_;  // go-back-N; later segments resend as cwnd reopens
    const std::uint64_t end = dataEnd();
    const std::uint64_t limit = snd_una_ + static_cast<std::uint64_t>(effectiveWindow());
    if (snd_nxt_ < end && snd_nxt_ < limit) {
      const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(
          {static_cast<std::uint64_t>(kTcpMss), end - snd_nxt_, limit - snd_nxt_}));
      sendSegment(snd_nxt_, len, true);
      snd_nxt_ += len;
    }
  } else {
    sendFinSegment();
    ++retransmits_;
    stack_.c_retransmits_.inc();
  }
  armRto();
}

void TcpConnection::armPersist() {
  if (persist_event_ != 0) return;
  auto self = shared_from_this();
  persist_event_ = sim_.scheduleAfter(kernelTime(kPersistInterval), [self] {
    self->persist_event_ = 0;
    self->onPersistFire();
  });
}

void TcpConnection::onPersistFire() {
  if (error_ || state_ != State::Established) return;
  if (peer_window_ > 0) {
    pump();
    return;
  }
  if (snd_nxt_ >= dataEnd()) return;  // nothing left to probe for
  // 1-byte window probe; the receiver ACKs with its current window even if
  // it cannot accept the byte.
  sendSegment(snd_nxt_, 1, true);
  armPersist();
}

// --------------------------------------------------------- receive engine --

void TcpConnection::onPacket(Packet&& pkt) {
  if (pkt.flags & kFlagRst) {
    enterError("RST from peer");
    return;
  }

  switch (state_) {
    case State::SynSent:
      if ((pkt.flags & kFlagSyn) && (pkt.flags & kFlagAck)) {
        state_ = State::Established;
        peer_window_ = pkt.window;
        cancelRto();
        sendPureAck();
        established_cond_.notifyAll();
        pump();
      }
      return;
    case State::SynReceived:
      if (pkt.flags & kFlagSyn) {
        // Our SYN|ACK was lost; repeat it.
        sendSynAck();
        return;
      }
      if (pkt.flags & kFlagAck) {
        state_ = State::Established;
        peer_window_ = pkt.window;
        stack_.connectionEstablished(*this);
        // Data may ride on the completing ACK; fall through.
        if (!pkt.payload.empty() || (pkt.flags & kFlagFin)) break;
        return;
      }
      return;
    case State::Established:
      if (pkt.flags & kFlagSyn) {
        // Peer never saw our final ACK of its SYN|ACK; re-ACK.
        sendPureAck();
        return;
      }
      break;
    case State::Closed:
      return;
  }

  if (pkt.flags & kFlagAck) {
    onAck(pkt.ack, pkt.window, pkt.payload.empty() && !(pkt.flags & kFlagFin));
  }
  if (!pkt.payload.empty() || (pkt.flags & kFlagFin)) {
    onData(std::move(pkt));
  }
}

void TcpConnection::onAck(std::uint64_t ack, std::int64_t window, bool pure_ack) {
  peer_window_ = window;
  if (ack > snd_una_) {
    const std::uint64_t newly_acked = ack - snd_una_;
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<std::ptrdiff_t>(
                                            std::min<std::uint64_t>(newly_acked, send_buf_.size())));
    snd_una_ = ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    dup_acks_ = 0;
    if (rtt_pending_ && ack >= rtt_seq_) {
      rtt_pending_ = false;
      updateRttEstimate(sim_.now() - rtt_sent_at_);
    }
    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;  // every pre-loss segment accounted for
      } else if (snd_una_ < snd_nxt_) {
        // Partial ACK: the next hole is at snd_una_; retransmit it now.
        const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(kTcpMss), snd_nxt_ - snd_una_));
        sendSegment(snd_una_, len, true);
      }
    } else {
      // Congestion window growth (frozen during recovery).
      if (cwnd_ < ssthresh_) {
        cwnd_ += kTcpMss;  // slow start: one MSS per ACK
      } else {
        cwnd_ += static_cast<double>(kTcpMss) * kTcpMss / cwnd_;  // CA: ~MSS per RTT
      }
      cwnd_ = std::min(cwnd_, static_cast<double>(kSendBuffer));
    }
    if (fin_sent_ && ack > fin_seq_) fin_acked_ = true;
    cancelRto();
    if (snd_una_ < snd_nxt_ || (fin_sent_ && !fin_acked_)) armRto();
    writable_.notifyAll();
    pump();
    maybeFinish();
  } else if (ack == snd_una_ && snd_una_ < snd_nxt_ && pure_ack) {
    if (++dup_acks_ == 3 && !in_recovery_) {
      // Fast retransmit of the first unacked segment, then NewReno recovery.
      in_recovery_ = true;
      recover_ = snd_nxt_;
      ssthresh_ = std::max(static_cast<double>(snd_nxt_ - snd_una_) / 2.0, 2.0 * kTcpMss);
      cwnd_ = ssthresh_;
      rtt_pending_ = false;
      const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(
          static_cast<std::uint64_t>(kTcpMss), snd_nxt_ - snd_una_));
      sendSegment(snd_una_, len, true);
      armRto();
    }
  } else if (peer_window_ > 0) {
    // Window update without new data acked.
    pump();
  }
}

void TcpConnection::onData(Packet&& pkt) {
  bool advanced = false;
  if (!pkt.payload.empty()) {
    const std::uint64_t seq = pkt.seq;
    const std::uint64_t seg_end = seq + pkt.payload.size();
    if (seg_end <= rcv_nxt_) {
      // Stale retransmission: just re-ACK below.
    } else if (seq <= rcv_nxt_) {
      // In-order (possibly with a stale prefix). Accept what fits.
      const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - seq);
      const std::int64_t capacity = advertisedWindow();
      const std::size_t fresh = pkt.payload.size() - skip;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::int64_t>(static_cast<std::int64_t>(fresh), capacity));
      if (take > 0) {
        recv_buf_.insert(recv_buf_.end(), pkt.payload.begin() + static_cast<std::ptrdiff_t>(skip),
                         pkt.payload.begin() + static_cast<std::ptrdiff_t>(skip + take));
        rcv_nxt_ += take;
        advanced = true;
        // Drain any now-contiguous out-of-order segments.
        for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
          if (it->first > rcv_nxt_) break;
          const auto& data = it->second;
          const std::uint64_t oend = it->first + data.size();
          if (oend > rcv_nxt_) {
            const std::size_t oskip = static_cast<std::size_t>(rcv_nxt_ - it->first);
            recv_buf_.insert(recv_buf_.end(), data.begin() + static_cast<std::ptrdiff_t>(oskip),
                             data.end());
            rcv_nxt_ = oend;
          }
          out_of_order_bytes_ -= static_cast<std::int64_t>(data.size());
          it = out_of_order_.erase(it);
        }
      }
    } else {
      // Out of order: hold if it fits in the window.
      if (out_of_order_bytes_ + static_cast<std::int64_t>(pkt.payload.size()) <=
              advertisedWindow() &&
          out_of_order_.find(pkt.seq) == out_of_order_.end()) {
        out_of_order_bytes_ += static_cast<std::int64_t>(pkt.payload.size());
        out_of_order_.emplace(pkt.seq, std::move(pkt.payload));
      }
    }
  }
  if (pkt.flags & kFlagFin) {
    if (!peer_fin_) {
      peer_fin_ = true;
      peer_fin_seq_ = pkt.seq;
    }
  }
  if (peer_fin_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;  // FIN consumes one sequence number
    advanced = true;
  }
  sendPureAck();
  if (advanced) readable_.notifyAll();
  maybeFinish();
}

void TcpConnection::updateRttEstimate(sim::SimTime sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::SimTime err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kernelTime(kMinRto), kernelTime(kMaxRto));
}

void TcpConnection::enterError(const std::string& what) {
  if (error_) return;
  error_ = true;
  error_what_ = what;
  state_ = State::Closed;
  cancelRto();
  if (persist_event_ != 0) {
    sim_.cancel(persist_event_);
    persist_event_ = 0;
  }
  established_cond_.notifyAll();
  readable_.notifyAll();
  writable_.notifyAll();
  stack_.removeConnection(*this);
}

void TcpConnection::maybeFinish() {
  // Fully closed in both directions: retire from the stack's table.
  if (fin_acked_ && peer_fin_ && recv_buf_.empty() && state_ == State::Established) {
    state_ = State::Closed;
    cancelRto();
    readable_.notifyAll();
    stack_.removeConnection(*this);
  }
}

// ===========================================================================
// TcpListener
// ===========================================================================

TcpListener::TcpListener(TcpStack& stack, std::uint16_t port, TcpAcceptSink sink)
    : stack_(stack), port_(port), sink_(std::move(sink)) {}

void TcpListener::close() {
  if (closed_) return;
  closed_ = true;
  stack_.removeListener(port_);
  sink_(nullptr);
}

// ===========================================================================
// TcpStack
// ===========================================================================

TcpStack::TcpStack(Network& net, NodeId node)
    : net_(net),
      node_(node),
      c_connections_(net.simulator().metrics().counter("net.tcp.connections")),
      c_segments_(net.simulator().metrics().counter("net.tcp.segments_sent")),
      c_retransmits_(net.simulator().metrics().counter("net.tcp.retransmits")),
      c_bytes_sent_(net.simulator().metrics().counter("net.tcp.bytes_sent")),
      c_bytes_received_(net.simulator().metrics().counter("net.tcp.bytes_received")) {
  net_.attachHost(node_, [this](Packet&& pkt) { onPacket(std::move(pkt)); });
}

TcpStack::~TcpStack() { net_.attachHost(node_, nullptr); }

std::shared_ptr<TcpListener> TcpStack::listen(std::uint16_t port, TcpAcceptSink sink) {
  if (listeners_.count(port)) throw UsageError("port already listening");
  auto listener = std::shared_ptr<TcpListener>(new TcpListener(*this, port, std::move(sink)));
  listeners_[port] = listener.get();
  return listener;
}

std::uint16_t TcpStack::allocateEphemeralPort() {
  for (int tries = 0; tries < 16384; ++tries) {
    std::uint16_t p = next_ephemeral_;
    next_ephemeral_ = (next_ephemeral_ == 65535) ? 49152 : next_ephemeral_ + 1;
    bool taken = false;
    for (const auto& [key, conn] : connections_) {
      if (key.local_port == p) {
        taken = true;
        break;
      }
    }
    if (!taken && !listeners_.count(p)) return p;
  }
  throw UsageError("ephemeral ports exhausted");
}

std::shared_ptr<TcpConnection> TcpStack::connect(NodeId dst, std::uint16_t port) {
  const std::uint16_t lport = allocateEphemeralPort();
  auto conn = std::shared_ptr<TcpConnection>(new TcpConnection(*this, dst, lport, port));
  connections_[ConnKey{lport, dst, port}] = conn;
  conn->startConnect();
  while (conn->state_ != TcpConnection::State::Established && !conn->error_) {
    conn->established_cond_.wait();
  }
  if (conn->error_) throw ConnectionRefused(conn->error_what_);
  c_connections_.inc();
  return conn;
}

void TcpStack::onPacket(Packet&& pkt) {
  const ConnKey key{pkt.dst_port, pkt.src, pkt.src_port};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    // Keep the connection alive across the callback even if it retires.
    auto conn = it->second;
    conn->onPacket(std::move(pkt));
    return;
  }
  if ((pkt.flags & kFlagSyn) && !(pkt.flags & kFlagAck)) {
    auto lit = listeners_.find(pkt.dst_port);
    if (lit != listeners_.end() && !lit->second->closed_) {
      auto conn = std::shared_ptr<TcpConnection>(
          new TcpConnection(*this, pkt.src, pkt.dst_port, pkt.src_port));
      conn->state_ = TcpConnection::State::SynReceived;
      conn->peer_window_ = pkt.window;
      connections_[key] = conn;
      conn->sendSynAck();
      return;
    }
  }
  if (!(pkt.flags & kFlagRst)) sendRst(pkt);
}

void TcpStack::connectionEstablished(TcpConnection& conn) {
  auto lit = listeners_.find(conn.local_port_);
  if (lit == listeners_.end() || lit->second->closed_) return;
  c_connections_.inc();
  const ConnKey key{conn.local_port_, conn.remote_node_, conn.remote_port_};
  auto it = connections_.find(key);
  if (it != connections_.end()) lit->second->sink_(it->second);
}

void TcpStack::sendRst(const Packet& cause) {
  Packet rst;
  rst.src = node_;
  rst.dst = cause.src;
  rst.src_port = cause.dst_port;
  rst.dst_port = cause.src_port;
  rst.flags = kFlagRst;
  net_.send(std::move(rst));
}

void TcpStack::removeConnection(const TcpConnection& conn) {
  connections_.erase(ConnKey{conn.local_port_, conn.remote_node_, conn.remote_port_});
}

void TcpStack::removeListener(std::uint16_t port) { listeners_.erase(port); }

void TcpStack::saveState(obs::StateWriter& w) const {
  w.u64("net.tcp.open", connections_.size());
  for (const auto& [key, conn] : connections_) {
    w.u64("lport", key.local_port);
    w.i64("rnode", key.remote_node);
    w.u64("rport", key.remote_port);
    w.u64("state", static_cast<std::uint64_t>(conn->state_));
    w.boolean("error", conn->error_);
    w.u64("snd_una", conn->snd_una_);
    w.u64("snd_nxt", conn->snd_nxt_);
    w.u64("rcv_nxt", conn->rcv_nxt_);
    w.f64("cwnd", conn->cwnd_);
    w.f64("ssthresh", conn->ssthresh_);
    w.i64("peer_window", conn->peer_window_);
    w.u64("send_buf", conn->send_buf_.size());
    w.u64("recv_buf", conn->recv_buf_.size());
    w.i64("ooo_bytes", conn->out_of_order_bytes_);
    w.boolean("fin_queued", conn->fin_queued_);
    w.boolean("fin_sent", conn->fin_sent_);
    w.boolean("fin_acked", conn->fin_acked_);
    w.boolean("peer_fin", conn->peer_fin_);
    w.i64("rto", conn->rto_);
    w.i64("srtt", conn->srtt_);
  }
  w.u64("net.tcp.listeners", listeners_.size());
  for (const auto& [port, l] : listeners_) w.u64("port", port);
}

void TcpStack::abortAll(const std::string& why) {
  // enterError mutates connections_ via removeConnection; iterate a copy.
  std::vector<std::shared_ptr<TcpConnection>> conns;
  conns.reserve(connections_.size());
  for (const auto& [key, conn] : connections_) conns.push_back(conn);
  for (const auto& conn : conns) {
    if (conn->error_ || conn->state_ == TcpConnection::State::Closed) continue;
    Packet rst;
    rst.src = node_;
    rst.dst = conn->remote_node_;
    rst.src_port = conn->local_port_;
    rst.dst_port = conn->remote_port_;
    rst.flags = kFlagRst;
    net_.send(std::move(rst));
    conn->enterError(why);
  }
  connections_.clear();
  std::vector<TcpListener*> listeners;
  listeners.reserve(listeners_.size());
  for (const auto& [port, l] : listeners_) listeners.push_back(l);
  for (TcpListener* l : listeners) l->close();
  listeners_.clear();
}

}  // namespace mg::net
