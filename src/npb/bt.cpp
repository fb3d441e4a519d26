// BT — block tridiagonal / ADI.
//
// Alternating-direction-implicit structure: each iteration solves
// tridiagonal systems along x, then y (both local under slab
// decomposition), then z, where the line solves span ranks and run as a
// forward-elimination / back-substitution pipeline with boundary-plane
// exchanges in both directions. Per-iteration communication is therefore
// four boundary planes (two sweeps, two directions), with class-scaled
// wire sizes (BT carries 5 components per point).
#include <cmath>

#include "npb/kernel_common.h"

namespace mg::npb {

namespace {

using detail::SlabField;

/// Thomas-algorithm line solve along x (or y when `along_y`): solves
/// (2+eps) u_i - u_{i-1} - u_{i+1} = rhs_i on each line of each plane.
void localLineSolves(SlabField& u, const SlabField& rhs, bool along_y) {
  const int n = u.n();
  const int nz = u.nz();
  std::vector<double> c(static_cast<size_t>(n)), d(static_cast<size_t>(n));
  const double diag = 3.0;
  for (int z = 0; z < nz; ++z) {
    for (int line = 0; line < n; ++line) {
      // Forward elimination.
      for (int i = 0; i < n; ++i) {
        const double r = along_y ? rhs.at(line, i, z) : rhs.at(i, line, z);
        if (i == 0) {
          c[0] = -1.0 / diag;
          d[0] = r / diag;
        } else {
          const double m = diag + c[static_cast<size_t>(i) - 1];
          c[static_cast<size_t>(i)] = -1.0 / m;
          d[static_cast<size_t>(i)] = (r + d[static_cast<size_t>(i) - 1]) / m;
        }
      }
      // Back substitution.
      double prev = d[static_cast<size_t>(n) - 1];
      (along_y ? u.at(line, n - 1, z) : u.at(n - 1, line, z)) = prev;
      for (int i = n - 2; i >= 0; --i) {
        prev = d[static_cast<size_t>(i)] - c[static_cast<size_t>(i)] * prev;
        (along_y ? u.at(line, i, z) : u.at(i, line, z)) = prev;
      }
    }
  }
}

/// z-direction relaxation over x in [x0, x1) using ghost planes.
void zRelaxRange(SlabField& u, const SlabField& rhs, int x0, int x1, bool has_down, bool has_up,
                 bool forward) {
  const int n = u.n();
  const int nz = u.nz();
  const double diag = 3.0;
  for (int zi = 0; zi < nz; ++zi) {
    const int z = forward ? zi : nz - 1 - zi;
    for (int y = 0; y < n; ++y) {
      for (int x = x0; x < x1; ++x) {
        const double zm = (z > 0 || has_down) ? u.at(x, y, z - 1) : 0.0;
        const double zp = (z + 1 < nz || has_up) ? u.at(x, y, z + 1) : 0.0;
        u.at(x, y, z) = (rhs.at(x, y, z) + zm + zp) / diag;
      }
    }
  }
}

}  // namespace

KernelResult runBt(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls) {
  const KernelCost cost = costFor(Benchmark::BT, cls);
  KernelResult result = detail::makeResult(Benchmark::BT, cls, comm);
  obs::Gauge* const progress = detail::progressGauge(Benchmark::BT, comm, ctx);
  const int p = comm.size();
  const int rank = comm.rank();
  const int n = cost.executed_grid;
  if (n % p != 0) throw mg::UsageError("BT needs process count dividing the grid edge");
  const int nz = n / p;
  const bool has_down = rank > 0;
  const bool has_up = rank + 1 < p;
  const std::int64_t bytes0 = comm.bytesSent();
  const std::int64_t msgs0 = comm.messagesSent();

  // Wavefront chunking of the z solves along x (as in LU).
  const int chunks = 8;
  const auto wire_chunk = static_cast<std::size_t>(cost.class_grid) *
                          static_cast<std::size_t>(cost.class_grid) * 5 * 8 /
                          static_cast<std::size_t>(chunks);

  SlabField u(n, nz), rhs(n, nz), work(n, nz), snapshot(n, nz);
  for (int z = 0; z < nz; ++z) {
    const int gz = rank * nz + z;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        rhs.at(x, y, z) = std::cos((x + 2 * y + 3 * gz) * 0.11);
      }
    }
  }
  // ADI fixed point: each directional solve uses rhs + gamma * u_prev, a
  // contraction (gamma/diag < 1), so the iteration converges.
  const double gamma = 0.4;
  auto buildWork = [&] {
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          work.at(x, y, z) = rhs.at(x, y, z) + gamma * u.at(x, y, z);
        }
      }
    }
  };

  comm.barrier();
  const double t0 = comm.wtime();

  // Three sweeps per iteration (x, y, z); z costs double (two directions).
  const double ops_per_iter = cost.total_ops / cost.class_iterations / p;
  const double charge_scale =
      static_cast<double>(cost.class_iterations) / cost.executed_iterations;

  double first_delta = -1, last_delta = 0;
  for (int iter = 0; iter < cost.executed_iterations; ++iter) {
    detail::publishProgress(progress, iter);
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) snapshot.at(x, y, z) = u.at(x, y, z);
      }
    }
    // x and y solves are local.
    ctx.compute(ops_per_iter * charge_scale * 0.3);
    buildWork();
    localLineSolves(u, work, /*along_y=*/false);
    ctx.compute(ops_per_iter * charge_scale * 0.3);
    buildWork();
    localLineSolves(u, work, /*along_y=*/true);

    // z solve: forward-elimination pipeline up, back-substitution down,
    // chunked along x so ranks overlap (wavefront blocking).
    buildWork();
    std::vector<double> chunk_buf;
    auto pipelinedZ = [&](bool forward, int tag) {
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
        ctx.compute(ops_per_iter * charge_scale * 0.2 / chunks);
        zRelaxRange(u, work, x0, x1, has_down, has_up, forward);
        if (to >= 0 && to < p) {
          detail::packPlaneRange(u, boundary_z, x0, x1, chunk_buf);
          comm.send(to, tag, chunk_buf.data(), chunk_buf.size() * sizeof(double), wire_chunk);
        }
      }
    };
    pipelinedZ(/*forward=*/true, 400);
    pipelinedZ(/*forward=*/false, 401);

    // Iteration delta: total movement of the field this round.
    double delta = 0;
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) delta += std::fabs(u.at(x, y, z) - snapshot.at(x, y, z));
      }
    }
    comm.allreduce(&delta, 1, vmpi::Op::Sum);
    if (first_delta < 0) first_delta = delta;
    last_delta = delta;
  }

  result.seconds = comm.wtime() - t0;
  result.verified = std::isfinite(last_delta) && last_delta < 0.5 * first_delta;
  result.checksum = last_delta;
  result.bytes_sent = comm.bytesSent() - bytes0;
  result.messages_sent = comm.messagesSent() - msgs0;
  return result;
}

}  // namespace mg::npb
