#include "core/flow_socket.h"

#include <algorithm>

#include "util/error.h"

namespace mg::core {
namespace {

/// Connection setup cost beyond the handshake RTT (network time). Both
/// platforms pay it: ReferencePlatform and MicroGridPlatform's flow mode
/// share this table.
constexpr sim::SimTime kConnectOverhead = 100 * sim::kMicrosecond;
/// One flow models at most this many payload bytes, so long streams
/// re-enter the fair-share computation periodically instead of locking in
/// one rate for the whole transfer.
constexpr std::size_t kChunkBytes = 1 << 20;
/// Per-connection in-flight cap, mirroring a TCP window: senders block once
/// this many bytes are queued or flowing but undelivered.
constexpr std::size_t kWindowBytes = 1 << 20;
static_assert(kChunkBytes >= 1 && kWindowBytes >= 1, "send() must make progress");

}  // namespace

// ------------------------------------------------------------------ table --

FlowEndpointTable::FlowEndpointTable(net::Network& net, HostnameFn hostname)
    : net_(net),
      engine_(*[&net] {
        net::FlowEngine* e = net.flows();
        if (e == nullptr) throw UsageError("FlowEndpointTable requires a model with a flow engine");
        return e;
      }()),
      sim_(net.simulator()),
      hostname_(std::move(hostname)) {}

std::shared_ptr<FlowListener> FlowEndpointTable::listen(net::NodeId node, std::uint16_t port,
                                                        AcceptSink sink) {
  const auto key = std::make_pair(node, port);
  if (listeners_.contains(key)) {
    throw UsageError("port " + std::to_string(port) + " already listening");
  }
  auto l = std::shared_ptr<FlowListener>(new FlowListener(*this, node, port, std::move(sink)));
  listeners_.emplace(key, l.get());
  return l;
}

void FlowEndpointTable::unlisten(net::NodeId node, std::uint16_t port) {
  listeners_.erase(std::make_pair(node, port));
}

void FlowEndpointTable::track(const std::shared_ptr<FlowSocket>& sock) {
  auto& v = by_node_[sock->localNode()];
  if (v.size() > 32) {
    std::erase_if(v, [](const std::weak_ptr<FlowSocket>& w) { return w.expired(); });
  }
  v.push_back(sock);
}

std::shared_ptr<vos::StreamSocket> FlowEndpointTable::connect(net::NodeId src, net::NodeId dst,
                                                              std::uint16_t port) {
  // Handshake: SYN out, SYN-ACK back, plus connection setup overhead.
  sim::SimTime rtt;
  try {
    rtt = 2 * engine_.estimate(src, dst, 0) + kConnectOverhead;
  } catch (const ConfigError&) {
    throw net::ConnectionRefused("no route to " + hostname_(dst));
  }
  sim_.delay(net_.scaleDuration(rtt));

  auto it = listeners_.find(std::make_pair(dst, port));
  if (it == listeners_.end() || !net_.nodeUp(dst)) {
    throw net::ConnectionRefused(hostname_(dst) + ":" + std::to_string(port));
  }

  auto client = std::shared_ptr<FlowSocket>(new FlowSocket(*this, src, dst));
  auto server = std::shared_ptr<FlowSocket>(new FlowSocket(*this, dst, src));
  client->peer_ = server;
  server->peer_ = client;
  track(client);
  track(server);
  it->second->deliver(server);
  return client;
}

void FlowEndpointTable::crashNode(net::NodeId node) {
  std::vector<FlowListener*> to_close;
  for (const auto& [key, l] : listeners_) {
    if (key.first == node) to_close.push_back(l);
  }
  for (FlowListener* l : to_close) l->close();

  auto it = by_node_.find(node);
  if (it == by_node_.end()) return;
  std::vector<std::weak_ptr<FlowSocket>> socks = std::move(it->second);
  by_node_.erase(it);
  const std::string what = "host " + hostname_(node) + " crashed";
  for (const std::weak_ptr<FlowSocket>& w : socks) {
    if (auto s = w.lock()) {
      s->enterError(what);
      if (auto p = s->peer_.lock()) p->enterError(what);
    }
  }
}

// ----------------------------------------------------------------- socket --

FlowSocket::FlowSocket(FlowEndpointTable& table, net::NodeId local, net::NodeId remote)
    : table_(table), local_(local), remote_(remote), readable_(table.sim_),
      writable_(table.sim_) {}

void FlowSocket::send(const void* data, std::size_t n) {
  if (local_closed_) throw UsageError("send on closed socket");
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto window = static_cast<std::int64_t>(kWindowBytes);
  std::size_t off = 0;
  while (off < n) {
    if (error_) throw net::ConnectionReset(error_what_);
    if (in_flight_ >= window) {
      writable_.wait();
      continue;
    }
    const std::size_t m = std::min({n - off, kChunkBytes,
                                    static_cast<std::size_t>(window - in_flight_)});
    in_flight_ += static_cast<std::int64_t>(m);
    send_queue_.push_back(SendChunk{std::vector<std::uint8_t>(p + off, p + off + m), false});
    pump();
    off += m;
  }
}

void FlowSocket::pump() {
  if (flow_active_ || error_ || send_queue_.empty()) return;
  flow_active_ = true;
  SendChunk chunk = std::move(send_queue_.front());
  send_queue_.pop_front();
  const auto m = static_cast<std::int64_t>(chunk.bytes.size());
  // Callbacks fire in event context after the sending process may already
  // have moved on, been killed, or dropped its socket reference. They hold
  // a strong self so the queued pipeline (later chunks, the EOF) survives
  // until it drains; the peer stays weak — a destroyed receiver just drops
  // the bytes, as a closed real socket would.
  std::shared_ptr<FlowSocket> self = shared_from_this();
  std::weak_ptr<FlowSocket> peer = peer_;
  try {
    table_.engine_.start(
        local_, remote_, m,
        [self, peer, m, eof = chunk.eof, bytes = std::move(chunk.bytes)]() mutable {
          if (auto ps = peer.lock()) {
            if (eof) {
              ps->onPeerEof();
            } else {
              ps->onDeliver(std::move(bytes));
            }
          }
          self->in_flight_ -= m;
          self->writable_.notifyAll();
        },
        [self](const std::string& why) {
          const std::string what = "flow " + (why.empty() ? "aborted" : why);
          if (auto ps = self->peer_.lock()) ps->enterError(what);
          self->enterError(what);
        },
        [self] {
          self->flow_active_ = false;
          self->pump();
        });
  } catch (const ConfigError&) {
    // No route. A lost FIN is silent (as on a real partition); data sends
    // reset the connection.
    flow_active_ = false;
    if (!chunk.eof) enterError("no route to " + peerHost());
  }
}

std::size_t FlowSocket::recv(void* buf, std::size_t max) {
  if (max == 0) return 0;
  while (recv_buf_.empty()) {
    if (error_) throw net::ConnectionReset(error_what_);
    if (peer_eof_) return 0;
    readable_.wait();
  }
  const std::size_t n = std::min(max, recv_buf_.size());
  auto* out = static_cast<std::uint8_t*>(buf);
  std::copy_n(recv_buf_.begin(), n, out);
  recv_buf_.erase(recv_buf_.begin(), recv_buf_.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

void FlowSocket::close() {
  if (local_closed_) return;
  local_closed_ = true;
  if (error_) return;
  // Orderly EOF: a zero-byte chunk through the same queue, so the FIN
  // arrives after every pending send. A partitioned network loses it,
  // exactly as it would lose a real one.
  send_queue_.push_back(SendChunk{{}, true});
  pump();
}

std::string FlowSocket::peerHost() const { return table_.hostname_(remote_); }

void FlowSocket::onDeliver(std::vector<std::uint8_t> bytes) {
  if (error_) return;
  recv_buf_.insert(recv_buf_.end(), bytes.begin(), bytes.end());
  readable_.notifyAll();
}

void FlowSocket::onPeerEof() {
  peer_eof_ = true;
  readable_.notifyAll();
}

void FlowSocket::enterError(const std::string& what) {
  if (error_) return;
  error_ = true;
  error_what_ = what;
  send_queue_.clear();
  readable_.notifyAll();
  writable_.notifyAll();
}

// --------------------------------------------------------------- listener --

FlowListener::FlowListener(FlowEndpointTable& table, net::NodeId node, std::uint16_t port,
                           FlowEndpointTable::AcceptSink sink)
    : table_(table), node_(node), port_(port), sink_(std::move(sink)) {}

FlowListener::~FlowListener() { close(); }

void FlowListener::deliver(std::shared_ptr<vos::StreamSocket> sock) {
  if (!closed_) sink_(std::move(sock));
}

void FlowListener::close() {
  if (closed_) return;
  closed_ = true;
  table_.unlisten(node_, port_);
  sink_(nullptr);
}

}  // namespace mg::core
