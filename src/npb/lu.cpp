// LU — SSOR with pipelined wavefront sweeps.
//
// Symmetric successive over-relaxation on the slab-decomposed cube. The
// sweeps have a true z dependency across ranks, so — like the real
// benchmark's wavefront blocking — each sweep is chunked along x: a rank
// relaxes one x-chunk of its whole slab, forwards that chunk's boundary
// plane upward, and moves to the next chunk while its successor starts.
// This overlaps the pipeline (efficiency ~ 1/(1+(p-1)/C)) and generates the
// stream of small boundary messages that makes LU latency-sensitive.
#include <cmath>

#include "npb/kernel_common.h"

namespace mg::npb {

namespace {

using detail::SlabField;

/// SSOR relaxation over x in [x0, x1), all y, all local z (bottom-up when
/// `forward`, top-down otherwise).
double ssorSweepRange(SlabField& u, const SlabField& b, int x0, int x1, bool has_down,
                      bool has_up, bool forward) {
  const int n = u.n();
  const int nz = u.nz();
  const double omega = 1.2;
  double delta = 0;
  for (int zi = 0; zi < nz; ++zi) {
    const int z = forward ? zi : nz - 1 - zi;
    for (int y = 0; y < n; ++y) {
      for (int x = x0; x < x1; ++x) {
        const double xm = x > 0 ? u.at(x - 1, y, z) : 0.0;
        const double xp = x + 1 < n ? u.at(x + 1, y, z) : 0.0;
        const double ym = y > 0 ? u.at(x, y - 1, z) : 0.0;
        const double yp = y + 1 < n ? u.at(x, y + 1, z) : 0.0;
        const double zm = (z > 0 || has_down) ? u.at(x, y, z - 1) : 0.0;
        const double zp = (z + 1 < nz || has_up) ? u.at(x, y, z + 1) : 0.0;
        const double gs = (xm + xp + ym + yp + zm + zp + b.at(x, y, z)) / 6.0;
        const double nu = (1 - omega) * u.at(x, y, z) + omega * gs;
        delta += std::fabs(nu - u.at(x, y, z));
        u.at(x, y, z) = nu;
      }
    }
  }
  return delta;
}

}  // namespace

KernelResult runLu(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls) {
  const KernelCost cost = costFor(Benchmark::LU, cls);
  KernelResult result = detail::makeResult(Benchmark::LU, cls, comm);
  obs::Gauge* const progress = detail::progressGauge(Benchmark::LU, comm, ctx);
  const int p = comm.size();
  const int rank = comm.rank();
  const int n = cost.executed_grid;
  if (n % p != 0) throw mg::UsageError("LU needs process count dividing the grid edge");
  const int nz = n / p;
  const bool has_down = rank > 0;
  const bool has_up = rank + 1 < p;
  const std::int64_t bytes0 = comm.bytesSent();
  const std::int64_t msgs0 = comm.messagesSent();

  // Wavefront chunking along x.
  const int chunks = 8;
  // Real LU carries 5 solution components per boundary point; each chunk
  // message is its share of the class face.
  const auto wire_chunk = static_cast<std::size_t>(cost.class_grid) *
                          static_cast<std::size_t>(cost.class_grid) * 5 * 8 /
                          static_cast<std::size_t>(chunks);

  SlabField u(n, nz), b(n, nz);
  for (int z = 0; z < nz; ++z) {
    const int gz = rank * nz + z;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        b.at(x, y, z) = std::sin((x + 1) * 0.7) * std::cos((y + 1) * 0.3) * std::sin((gz + 1) * 0.5);
      }
    }
  }

  comm.barrier();
  const double t0 = comm.wtime();

  const double ops_per_sweep = cost.total_ops / cost.class_iterations / 2.0 / p;
  // The executed iterations stand in for the class's; charge the remainder.
  const double charge_scale =
      static_cast<double>(cost.class_iterations) / cost.executed_iterations;

  // One chunked, pipelined sweep in the given direction.
  std::vector<double> chunk_buf;
  auto pipelinedSweep = [&](bool forward, int tag) {
    double delta = 0;
    for (int c = 0; c < chunks; ++c) {
      const int x0 = n * c / chunks;
      const int x1 = n * (c + 1) / chunks;
      const int from = forward ? rank - 1 : rank + 1;
      const int to = forward ? rank + 1 : rank - 1;
      const int ghost_z = forward ? -1 : nz;
      const int boundary_z = forward ? nz - 1 : 0;
      if (from >= 0 && from < p) {
        chunk_buf.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(x1 - x0));
        comm.recv(from, tag, chunk_buf.data(), chunk_buf.size() * sizeof(double));
        detail::unpackPlaneRange(u, ghost_z, x0, x1, chunk_buf);
      }
      ctx.compute(ops_per_sweep * charge_scale / chunks);
      delta += ssorSweepRange(u, b, x0, x1, has_down, has_up, forward);
      if (to >= 0 && to < p) {
        detail::packPlaneRange(u, boundary_z, x0, x1, chunk_buf);
        comm.send(to, tag, chunk_buf.data(), chunk_buf.size() * sizeof(double), wire_chunk);
      }
    }
    return delta;
  };

  double first_delta = -1, last_delta = 0;
  for (int iter = 0; iter < cost.executed_iterations; ++iter) {
    detail::publishProgress(progress, iter);
    double delta = pipelinedSweep(/*forward=*/true, 300);
    delta += pipelinedSweep(/*forward=*/false, 301);
    comm.allreduce(&delta, 1, vmpi::Op::Sum);
    if (first_delta < 0) first_delta = delta;
    last_delta = delta;
  }

  result.seconds = comm.wtime() - t0;
  // SSOR converges: the update magnitude must shrink substantially.
  result.verified = std::isfinite(last_delta) && last_delta < 0.5 * first_delta;
  result.checksum = last_delta;
  result.bytes_sent = comm.bytesSent() - bytes0;
  result.messages_sent = comm.messagesSent() - msgs0;
  return result;
}

}  // namespace mg::npb
