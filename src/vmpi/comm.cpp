#include "vmpi/comm.h"

#include <algorithm>
#include <cstring>

#include "grid/coallocator.h"
#include "net/tcp.h"
#include "obs/span.h"
#include "util/log.h"

namespace mg::vmpi {

namespace {

// Internal collective tags live below user tag space.
constexpr int kTagBarrier = -2;
constexpr int kTagBcast = -3;
constexpr int kTagReduce = -4;
constexpr int kTagGather = -5;
constexpr int kTagScatter = -6;
constexpr int kTagAlltoall = -7;
constexpr int kTagRingRs = -8;
constexpr int kTagRingAg = -9;

constexpr std::size_t kHeaderBytes = 24;

// Virtual seconds allowed for the whole mesh bootstrap. A healthy mesh
// completes in milliseconds; a dead peer burns its SYN retries (~31 s) once
// and then the job fails fast instead of retrying for ~1000 s.
constexpr double kMeshDeadlineSeconds = 60.0;

void packHeader(std::uint8_t* hdr, int source, int tag, std::uint64_t payload, std::uint64_t pad) {
  auto put32 = [&](std::size_t off, std::uint32_t v) {
    hdr[off] = static_cast<std::uint8_t>(v >> 24);
    hdr[off + 1] = static_cast<std::uint8_t>(v >> 16);
    hdr[off + 2] = static_cast<std::uint8_t>(v >> 8);
    hdr[off + 3] = static_cast<std::uint8_t>(v);
  };
  auto put64 = [&](std::size_t off, std::uint64_t v) {
    put32(off, static_cast<std::uint32_t>(v >> 32));
    put32(off + 4, static_cast<std::uint32_t>(v));
  };
  put32(0, static_cast<std::uint32_t>(source));
  put32(4, static_cast<std::uint32_t>(tag));
  put64(8, payload);
  put64(16, pad);
}

void unpackHeader(const std::uint8_t* hdr, int& source, int& tag, std::uint64_t& payload,
                  std::uint64_t& pad) {
  auto get32 = [&](std::size_t off) {
    return (static_cast<std::uint32_t>(hdr[off]) << 24) |
           (static_cast<std::uint32_t>(hdr[off + 1]) << 16) |
           (static_cast<std::uint32_t>(hdr[off + 2]) << 8) | static_cast<std::uint32_t>(hdr[off + 3]);
  };
  auto get64 = [&](std::size_t off) {
    return (static_cast<std::uint64_t>(get32(off)) << 32) | get32(off + 4);
  };
  source = static_cast<std::int32_t>(get32(0));
  tag = static_cast<std::int32_t>(get32(4));
  payload = get64(8);
  pad = get64(16);
}

}  // namespace

struct Request::Impl {
  explicit Impl(sim::Simulator& sim) : cond(sim) {}
  bool done = false;
  Status status;
  std::string error;
  sim::Condition cond;
  std::vector<std::uint8_t> send_copy;  // keeps isend data alive
};

// ----------------------------------------------------------------- setup --

std::unique_ptr<Comm> Comm::init(grid::JobContext& jc) {
  const int size = jc.envInt("MG_JOB_SIZE");
  const auto hosts_env = jc.envOr("MG_JOB_HOSTS", "");
  if (hosts_env.empty()) throw mg::Error("vmpi: missing MG_JOB_HOSTS");
  const int rank = jc.envInt("MG_RANK_BASE") + jc.envInt("MG_LOCAL_INDEX");
  std::vector<std::string> rank_hosts;
  for (const auto& part : grid::parseJobHosts(hosts_env)) {
    for (int i = 0; i < part.count; ++i) rank_hosts.push_back(part.host);
  }
  if (static_cast<int>(rank_hosts.size()) != size) {
    throw mg::Error("vmpi: MG_JOB_HOSTS inconsistent with MG_JOB_SIZE");
  }
  const auto port_base = static_cast<std::uint16_t>(
      std::stoi(jc.envOr("MG_PORT_BASE", std::to_string(grid::kVmpiPortBase))));
  return init(jc.os, rank, std::move(rank_hosts), port_base);
}

std::unique_ptr<Comm> Comm::init(vos::HostContext& ctx, int rank,
                                 std::vector<std::string> rank_hosts, std::uint16_t port_base) {
  if (rank < 0 || rank >= static_cast<int>(rank_hosts.size())) {
    throw mg::UsageError("vmpi: rank out of range");
  }
  std::unique_ptr<Comm> comm(new Comm(ctx, rank, std::move(rank_hosts), port_base));
  comm->connectMesh();
  return comm;
}

Comm::Comm(vos::HostContext& ctx, int rank, std::vector<std::string> rank_hosts,
           std::uint16_t port_base)
    : ctx_(ctx),
      rank_(rank),
      rank_hosts_(std::move(rank_hosts)),
      port_base_(port_base),
      inbox_cond_(ctx.simulator()),
      c_messages_(ctx.simulator().metrics().counter("vmpi.comm.messages_sent")),
      c_bytes_(ctx.simulator().metrics().counter("vmpi.comm.bytes_sent")),
      c_collectives_(ctx.simulator().metrics().counter("vmpi.comm.collectives")) {}

Comm::~Comm() {
  // Receiver daemons and isend/irecv helpers capture `this`: any still alive
  // would touch freed memory when they next run, so they die with the Comm.
  killDaemons();
  if (finalized_) return;
  // Abnormal teardown: an exception is unwinding this rank. Release the
  // sockets and listener port best-effort so a resubmitted job can rebind;
  // close() is non-blocking and a no-op on already-errored connections.
  for (auto& sock : sockets_) {
    if (!sock) continue;
    try {
      sock->close();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  if (listener_) {
    try {
      listener_->close();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

void Comm::trackDaemon(sim::Process& p) {
  // Keep the list from growing one entry per isend over a long job.
  if (daemons_.size() > 64) {
    sim::Simulator& sim = ctx_.simulator();
    daemons_.erase(std::remove_if(daemons_.begin(), daemons_.end(),
                                  [&sim](std::uint64_t d) { return sim.processFinished(d); }),
                   daemons_.end());
  }
  daemons_.push_back(p.id());
}

void Comm::killDaemons() {
  // Swap first: a killed daemon's unwind must not see a half-iterated list.
  std::vector<std::uint64_t> daemons;
  daemons.swap(daemons_);
  for (std::uint64_t id : daemons) ctx_.simulator().killProcessById(id);
}

void Comm::connectMesh() {
  const int n = size();
  sockets_.assign(static_cast<std::size_t>(n), nullptr);
  listener_ = ctx_.listen(static_cast<std::uint16_t>(port_base_ + rank_));

  // Deterministic mesh build: connect to lower ranks (they listen first in
  // rank order thanks to retries), accept from higher ranks. The shared
  // virtual-time deadline turns a crashed peer into a prompt error.
  const double deadline = ctx_.wallTime() + kMeshDeadlineSeconds;
  for (int peer = 0; peer < rank_; ++peer) {
    std::shared_ptr<vos::StreamSocket> sock;
    for (;;) {
      bool past_deadline = false;
      try {
        sock = ctx_.connect(rank_hosts_[static_cast<std::size_t>(peer)],
                            static_cast<std::uint16_t>(port_base_ + peer));
        break;
      } catch (const mg::Error&) {
        past_deadline = ctx_.wallTime() >= deadline;
      }
      if (past_deadline) {
        throw mg::Error("vmpi: peer rank " + std::to_string(peer) + " on " +
                        rank_hosts_[static_cast<std::size_t>(peer)] +
                        " unreachable during startup");
      }
      // The peer's listener is not up yet. Sleep outside the handler, so no
      // caught exception stays live across the block.
      ctx_.sleep(0.002);
    }
    const std::uint8_t hello[4] = {
        static_cast<std::uint8_t>(rank_ >> 24),
        static_cast<std::uint8_t>(rank_ >> 16),
        static_cast<std::uint8_t>(rank_ >> 8),
        static_cast<std::uint8_t>(rank_),
    };
    sock->send(hello, 4);
    sockets_[static_cast<std::size_t>(peer)] = sock;
    startReceiver(peer, sock);
  }
  for (int expected = rank_ + 1; expected < n; ++expected) {
    const double remaining = deadline - ctx_.wallTime();
    auto sock = remaining > 0 ? listener_->acceptFor(remaining) : nullptr;
    if (!sock) {
      throw mg::Error("vmpi: timed out waiting for " + std::to_string(n - expected) +
                      " higher rank(s) during startup");
    }
    std::uint8_t hello[4];
    sock->recvExact(hello, 4);
    const int peer = (hello[0] << 24) | (hello[1] << 16) | (hello[2] << 8) | hello[3];
    if (peer <= rank_ || peer >= n || sockets_[static_cast<std::size_t>(peer)]) {
      throw mg::Error("vmpi: bad mesh handshake from rank " + std::to_string(peer));
    }
    sockets_[static_cast<std::size_t>(peer)] = sock;
    startReceiver(peer, sock);
  }
}

vos::StreamSocket& Comm::socketTo(int peer) {
  if (peer < 0 || peer >= size() || peer == rank_) throw mg::UsageError("vmpi: bad peer rank");
  auto& sock = sockets_[static_cast<std::size_t>(peer)];
  if (!sock) throw mg::Error("vmpi: no connection to rank " + std::to_string(peer));
  return *sock;
}

void Comm::startReceiver(int peer, std::shared_ptr<vos::StreamSocket> sock) {
  trackDaemon(ctx_.spawnProcess(
      "vmpi-rx." + std::to_string(rank_) + "." + std::to_string(peer),
      [this, peer, sock](vos::HostContext&) {
        try {
          std::vector<std::uint8_t> discard(64 * 1024);
          for (;;) {
            std::uint8_t hdr[kHeaderBytes];
            sock->recvExact(hdr, kHeaderBytes);
            Message msg;
            std::uint64_t payload = 0, pad = 0;
            unpackHeader(hdr, msg.source, msg.tag, payload, pad);
            msg.payload.resize(payload);
            if (payload > 0) sock->recvExact(msg.payload.data(), payload);
            while (pad > 0) {
              const std::size_t chunk = std::min<std::uint64_t>(pad, discard.size());
              sock->recvExact(discard.data(), chunk);
              pad -= chunk;
            }
            inbox_.push_back(std::move(msg));
            inbox_cond_.notifyAll();
          }
        } catch (const net::ConnectionReset&) {
          // Abnormal teardown: RST or mid-stream failure, i.e. the peer host
          // crashed. Wake blocked receivers so they fail instead of waiting
          // forever.
          if (!finalized_ && peer_error_.empty()) {
            peer_error_ = "vmpi: peer rank " + std::to_string(peer) + " unreachable";
            inbox_cond_.notifyAll();
          }
        } catch (const mg::Error&) {
          // Peer closed the connection (finalize or teardown).
        }
      }));
}

// ---------------------------------------------------------- point to point --

double Comm::wtime() const { return ctx_.wallTime(); }

void Comm::send(int dest, int tag, const void* data, std::size_t bytes, std::size_t wire_bytes) {
  if (finalized_) throw mg::UsageError("vmpi: send after finalize");
  // Spans the whole buffered send, including any block on TCP window space,
  // so send-side backpressure shows up in the profiler per host.
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.comm", "send", ctx_.hostname());
  if (span.active()) {
    span.annotate("dest", std::to_string(dest));
    span.annotate("tag", std::to_string(tag));
    span.annotate("bytes", std::to_string(std::max(bytes, wire_bytes)));
  }
  ++messages_sent_;
  bytes_sent_ += static_cast<std::int64_t>(std::max(bytes, wire_bytes));
  c_messages_.inc();
  c_bytes_.inc(static_cast<std::int64_t>(std::max(bytes, wire_bytes)));
  if (dest == rank_) {
    Message msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.payload.assign(static_cast<const std::uint8_t*>(data),
                       static_cast<const std::uint8_t*>(data) + bytes);
    inbox_.push_back(std::move(msg));
    inbox_cond_.notifyAll();
    return;
  }
  const std::uint64_t pad =
      (wire_bytes > bytes) ? static_cast<std::uint64_t>(wire_bytes - bytes) : 0;
  std::uint8_t hdr[kHeaderBytes];
  packHeader(hdr, rank_, tag, bytes, pad);
  vos::StreamSocket& sock = socketTo(dest);
  try {
    sock.send(hdr, kHeaderBytes);
    if (bytes > 0) sock.send(data, bytes);
    if (pad > 0) {
      static const std::vector<std::uint8_t> zeros(64 * 1024, 0);
      std::uint64_t left = pad;
      while (left > 0) {
        const std::size_t chunk = std::min<std::uint64_t>(left, zeros.size());
        sock.send(zeros.data(), chunk);
        left -= chunk;
      }
    }
  } catch (const net::ConnectionReset&) {
    throw mg::Error("vmpi: peer rank " + std::to_string(dest) + " unreachable");
  }
}

bool Comm::matchFromInbox(int source, int tag, void* buf, std::size_t max_bytes, Status& status) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    // kAnyTag only matches user messages (tag >= 0); internal collective
    // traffic uses negative tags and is its own logical communicator.
    const bool tag_ok = (tag == kAnyTag) ? (it->tag >= 0) : (it->tag == tag);
    if ((source == kAnySource || it->source == source) && tag_ok) {
      if (it->payload.size() > max_bytes) {
        throw mg::Error("vmpi: message of " + std::to_string(it->payload.size()) +
                        " bytes exceeds receive buffer of " + std::to_string(max_bytes));
      }
      if (!it->payload.empty()) std::memcpy(buf, it->payload.data(), it->payload.size());
      status.source = it->source;
      status.tag = it->tag;
      status.bytes = it->payload.size();
      inbox_.erase(it);
      return true;
    }
  }
  return false;
}

Status Comm::recv(int source, int tag, void* buf, std::size_t max_bytes) {
  if (finalized_) throw mg::UsageError("vmpi: recv after finalize");
  // Spans the blocking match wait — the MPI wait time the paper's NPB gaps
  // are explained by.
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.comm", "recv", ctx_.hostname());
  if (span.active()) {
    span.annotate("source", std::to_string(source));
    span.annotate("tag", std::to_string(tag));
  }
  Status status;
  while (!matchFromInbox(source, tag, buf, max_bytes, status)) {
    // Any dead peer aborts the rank: the NPB-style programs here are
    // tightly coupled, so a missing peer means the job cannot finish.
    if (!peer_error_.empty()) throw mg::Error(peer_error_);
    inbox_cond_.wait();
  }
  return status;
}

Request Comm::isend(int dest, int tag, const void* data, std::size_t bytes,
                    std::size_t wire_bytes) {
  Request req;
  req.impl_ = std::make_shared<Request::Impl>(ctx_.simulator());
  req.impl_->send_copy.assign(static_cast<const std::uint8_t*>(data),
                              static_cast<const std::uint8_t*>(data) + bytes);
  auto impl = req.impl_;
  trackDaemon(ctx_.spawnProcess(
      "vmpi-isend", [this, impl, dest, tag, bytes, wire_bytes](vos::HostContext&) {
        try {
          send(dest, tag, impl->send_copy.data(), bytes, wire_bytes);
        } catch (const mg::Error& e) {
          impl->error = e.what();
        }
        impl->done = true;
        impl->cond.notifyAll();
      }));
  return req;
}

Request Comm::irecv(int source, int tag, void* buf, std::size_t max_bytes) {
  Request req;
  req.impl_ = std::make_shared<Request::Impl>(ctx_.simulator());
  auto impl = req.impl_;
  trackDaemon(ctx_.spawnProcess(
      "vmpi-irecv", [this, impl, source, tag, buf, max_bytes](vos::HostContext&) {
        try {
          impl->status = recv(source, tag, buf, max_bytes);
        } catch (const mg::Error& e) {
          impl->error = e.what();
        }
        impl->done = true;
        impl->cond.notifyAll();
      }));
  return req;
}

Status Comm::wait(Request& req) {
  if (!req.valid()) throw mg::UsageError("vmpi: wait on invalid request");
  auto impl = req.impl_;
  while (!impl->done) impl->cond.wait();
  req.impl_.reset();
  if (!impl->error.empty()) throw mg::Error(impl->error);
  return impl->status;
}

void Comm::waitAll(std::vector<Request>& reqs) {
  for (auto& r : reqs) wait(r);
  reqs.clear();
}

Status Comm::sendRecv(int dest, int send_tag, const void* send_data, std::size_t send_bytes,
                      int source, int recv_tag, void* recv_buf, std::size_t recv_max,
                      std::size_t send_wire_bytes) {
  Request sreq = isend(dest, send_tag, send_data, send_bytes, send_wire_bytes);
  Status st = recv(source, recv_tag, recv_buf, recv_max);
  wait(sreq);
  return st;
}

// ------------------------------------------------------------- collectives --

void Comm::barrier() {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "barrier", ctx_.hostname());
  c_collectives_.inc();
  const int n = size();
  std::uint8_t token = 1, got = 0;
  for (int k = 1; k < n; k <<= 1) {
    const int to = (rank_ + k) % n;
    const int from = (rank_ - k % n + n) % n;
    sendRecv(to, kTagBarrier, &token, 1, from, kTagBarrier, &got, 1);
  }
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "bcast", ctx_.hostname());
  c_collectives_.inc();
  const int n = size();
  if (n == 1) return;
  const int vr = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int src = (vr - mask + root) % n;
      recv(src, kTagBcast, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int dst = (vr + mask + root) % n;
      send(dst, kTagBcast, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::applyOp(double* acc, const double* in, std::size_t n, Op op) {
  switch (op) {
    case Op::Sum:
      for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case Op::Max:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case Op::Min:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
  }
}

void Comm::applyOp(std::int64_t* acc, const std::int64_t* in, std::size_t n, Op op) {
  switch (op) {
    case Op::Sum:
      for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case Op::Max:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case Op::Min:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
  }
}

namespace {
// Binomial-tree reduction shared by the typed overloads.
template <typename T, typename Fn>
void binomialReduce(Comm& comm, int rank, int n, T* data, std::size_t count, int root, Fn combine,
                    int tag, Comm* self) {
  (void)self;
  const int vr = (rank - root + n) % n;
  std::vector<T> tmp(count);
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) == 0) {
      const int vsrc = vr | mask;
      if (vsrc < n) {
        const int src = (vsrc + root) % n;
        comm.recv(src, tag, tmp.data(), count * sizeof(T));
        combine(data, tmp.data(), count);
      }
    } else {
      const int dst = ((vr & ~mask) + root) % n;
      comm.send(dst, tag, data, count * sizeof(T));
      break;
    }
    mask <<= 1;
  }
}
}  // namespace

void Comm::reduce(double* data, std::size_t n, Op op, int root) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "reduce", ctx_.hostname());
  c_collectives_.inc();
  binomialReduce(
      *this, rank_, size(), data, n, root,
      [op](double* acc, const double* in, std::size_t c) { applyOp(acc, in, c, op); }, kTagReduce,
      this);
}

void Comm::allreduce(double* data, std::size_t n, Op op) {
  reduce(data, n, op, 0);
  bcast(data, n * sizeof(double), 0);
}

void Comm::allreduce(std::int64_t* data, std::size_t n, Op op) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "allreduce", ctx_.hostname());
  c_collectives_.inc();
  binomialReduce(
      *this, rank_, size(), data, n, 0,
      [op](std::int64_t* acc, const std::int64_t* in, std::size_t c) { applyOp(acc, in, c, op); },
      kTagReduce, this);
  bcast(data, n * sizeof(std::int64_t), 0);
}

void Comm::allreduceRing(double* data, std::size_t n, Op op) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "allreduce_ring", ctx_.hostname());
  c_collectives_.inc();
  const int p = size();
  if (p == 1) return;
  // Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]).
  std::vector<std::size_t> bounds(static_cast<std::size_t>(p) + 1);
  for (int c = 0; c <= p; ++c) {
    bounds[static_cast<std::size_t>(c)] = n * static_cast<std::size_t>(c) / static_cast<std::size_t>(p);
  }
  auto chunkPtr = [&](int c) { return data + bounds[static_cast<std::size_t>(c)]; };
  auto chunkLen = [&](int c) {
    return bounds[static_cast<std::size_t>(c) + 1] - bounds[static_cast<std::size_t>(c)];
  };
  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;
  std::vector<double> tmp(n ? (n / static_cast<std::size_t>(p) + 1) : 1);

  // Reduce-scatter phase.
  for (int step = 0; step < p - 1; ++step) {
    const int send_chunk = (rank_ - step + p) % p;
    const int recv_chunk = (rank_ - step - 1 + p) % p;
    sendRecv(next, kTagRingRs, chunkPtr(send_chunk), chunkLen(send_chunk) * sizeof(double), prev,
             kTagRingRs, tmp.data(), tmp.size() * sizeof(double));
    applyOp(chunkPtr(recv_chunk), tmp.data(), chunkLen(recv_chunk), op);
  }
  // Allgather phase.
  for (int step = 0; step < p - 1; ++step) {
    const int send_chunk = (rank_ + 1 - step + p) % p;
    const int recv_chunk = (rank_ - step + p) % p;
    sendRecv(next, kTagRingAg, chunkPtr(send_chunk), chunkLen(send_chunk) * sizeof(double), prev,
             kTagRingAg, tmp.data(), tmp.size() * sizeof(double));
    std::memcpy(chunkPtr(recv_chunk), tmp.data(), chunkLen(recv_chunk) * sizeof(double));
  }
}

void Comm::gather(const void* send, std::size_t bytes, void* recv_buf, int root) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "gather", ctx_.hostname());
  c_collectives_.inc();
  if (rank_ == root) {
    auto* out = static_cast<std::uint8_t*>(recv_buf);
    std::memcpy(out + static_cast<std::size_t>(rank_) * bytes, send, bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv(r, kTagGather, out + static_cast<std::size_t>(r) * bytes, bytes);
    }
  } else {
    this->send(root, kTagGather, send, bytes);
  }
}

void Comm::scatter(const void* send, std::size_t bytes, void* recv_buf, int root) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "scatter", ctx_.hostname());
  c_collectives_.inc();
  if (rank_ == root) {
    const auto* in = static_cast<const std::uint8_t*>(send);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      this->send(r, kTagScatter, in + static_cast<std::size_t>(r) * bytes, bytes);
    }
    std::memcpy(recv_buf, in + static_cast<std::size_t>(root) * bytes, bytes);
  } else {
    recv(root, kTagScatter, recv_buf, bytes);
  }
}

std::vector<std::vector<std::uint8_t>> Comm::alltoallv(
    const std::vector<std::vector<std::uint8_t>>& send_blocks) {
  obs::ScopedSpan span(ctx_.simulator().spans(), "vmpi.coll", "alltoallv", ctx_.hostname());
  c_collectives_.inc();
  const int p = size();
  if (static_cast<int>(send_blocks.size()) != p) {
    throw mg::UsageError("vmpi: alltoallv needs one block per rank");
  }
  std::vector<std::vector<std::uint8_t>> recv_blocks(static_cast<std::size_t>(p));
  recv_blocks[static_cast<std::size_t>(rank_)] = send_blocks[static_cast<std::size_t>(rank_)];
  for (int shift = 1; shift < p; ++shift) {
    const int to = (rank_ + shift) % p;
    const int from = (rank_ - shift + p) % p;
    // Exchange sizes first, then payloads.
    std::uint64_t send_size = send_blocks[static_cast<std::size_t>(to)].size();
    std::uint64_t recv_size = 0;
    sendRecv(to, kTagAlltoall, &send_size, sizeof send_size, from, kTagAlltoall, &recv_size,
             sizeof recv_size);
    recv_blocks[static_cast<std::size_t>(from)].resize(recv_size);
    sendRecv(to, kTagAlltoall, send_blocks[static_cast<std::size_t>(to)].data(), send_size, from,
             kTagAlltoall, recv_blocks[static_cast<std::size_t>(from)].data(), recv_size);
  }
  return recv_blocks;
}

void Comm::finalize() {
  if (finalized_) return;
  barrier();
  finalized_ = true;
  for (auto& sock : sockets_) {
    if (sock) sock->close();
  }
  if (listener_) listener_->close();
}

}  // namespace mg::vmpi
