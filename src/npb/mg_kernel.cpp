// MG — multigrid.
//
// A two-level V-cycle on a 3D Poisson problem with slab (1D z)
// decomposition. Every smoothing sweep exchanges ghost planes with both z
// neighbors, giving the frequent medium-size halo traffic that makes MG the
// most network-sensitive of the suite (the paper's Fig 17 shows its largest
// internal skew). Ghost-plane wire size is scaled to the class face.
#include <cmath>

#include "npb/kernel_common.h"

namespace mg::npb {

namespace {

using detail::SlabField;

/// One damped-Jacobi sweep of u for the Poisson problem -lap(u) = b.
/// Non-periodic boundaries: missing neighbors are treated as zero.
void jacobiSweep(SlabField& u, const SlabField& b, SlabField& scratch, bool has_down,
                 bool has_up) {
  const int n = u.n();
  const int nz = u.nz();
  const double w = 0.8;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const double xm = x > 0 ? u.at(x - 1, y, z) : 0.0;
        const double xp = x + 1 < n ? u.at(x + 1, y, z) : 0.0;
        const double ym = y > 0 ? u.at(x, y - 1, z) : 0.0;
        const double yp = y + 1 < n ? u.at(x, y + 1, z) : 0.0;
        const double zm = (z > 0 || has_down) ? u.at(x, y, z - 1) : 0.0;
        const double zp = (z + 1 < nz || has_up) ? u.at(x, y, z + 1) : 0.0;
        const double gs = (xm + xp + ym + yp + zm + zp + b.at(x, y, z)) / 6.0;
        scratch.at(x, y, z) = (1 - w) * u.at(x, y, z) + w * gs;
      }
    }
  }
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) u.at(x, y, z) = scratch.at(x, y, z);
    }
  }
}

/// Squared residual norm of the local slab.
double residualNormSq(const SlabField& u, const SlabField& b, bool has_down, bool has_up) {
  const int n = u.n();
  const int nz = u.nz();
  double sum = 0;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const double xm = x > 0 ? u.at(x - 1, y, z) : 0.0;
        const double xp = x + 1 < n ? u.at(x + 1, y, z) : 0.0;
        const double ym = y > 0 ? u.at(x, y - 1, z) : 0.0;
        const double yp = y + 1 < n ? u.at(x, y + 1, z) : 0.0;
        const double zm = (z > 0 || has_down) ? u.at(x, y, z - 1) : 0.0;
        const double zp = (z + 1 < nz || has_up) ? u.at(x, y, z + 1) : 0.0;
        const double r = b.at(x, y, z) - (6.0 * u.at(x, y, z) - xm - xp - ym - yp - zm - zp);
        sum += r * r;
      }
    }
  }
  return sum;
}

}  // namespace

KernelResult runMg(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls) {
  const KernelCost cost = costFor(Benchmark::MG, cls);
  KernelResult result = detail::makeResult(Benchmark::MG, cls, comm);
  obs::Gauge* const progress = detail::progressGauge(Benchmark::MG, comm, ctx);
  const int p = comm.size();
  const int rank = comm.rank();
  const int n = cost.executed_grid;
  if (n % p != 0) throw mg::UsageError("MG needs process count dividing the grid edge");
  const int nz = n / p;
  if (nz % 2 != 0 && p > 1) throw mg::UsageError("MG local slab must have even depth");
  const bool has_down = rank > 0;
  const bool has_up = rank + 1 < p;
  const std::int64_t bytes0 = comm.bytesSent();
  const std::int64_t msgs0 = comm.messagesSent();

  // Class-scaled ghost face: class_grid^2 doubles.
  const auto wire_face =
      static_cast<std::size_t>(cost.class_grid) * static_cast<std::size_t>(cost.class_grid) * 8;

  SlabField u(n, nz), b(n, nz), scratch(n, nz);
  SlabField uc(n / 2, nz / 2 == 0 ? 1 : nz / 2), bc(n / 2, nz / 2 == 0 ? 1 : nz / 2),
      scratch_c(n / 2, nz / 2 == 0 ? 1 : nz / 2);
  // Deterministic source term: +1/-1 spikes spread through the cube.
  for (int z = 0; z < nz; ++z) {
    const int gz = rank * nz + z;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const int h = (x * 313 + y * 127 + gz * 719) % 97;
        b.at(x, y, z) = (h == 0) ? 1.0 : (h == 1 ? -1.0 : 0.0);
      }
    }
  }

  comm.barrier();
  const double t0 = comm.wtime();

  // Per-cycle smoothing structure: 2 fine pre-smooth, 2 coarse, 2 fine
  // post-smooth = 6 charged sweeps per cycle.
  const double ops_per_sweep = cost.total_ops / cost.class_iterations / 6.0 / p;

  double initial = 0, current = 0;
  {
    double norm = residualNormSq(u, b, has_down, has_up);
    comm.allreduce(&norm, 1, vmpi::Op::Sum);
    initial = std::sqrt(norm);
  }

  for (int cycle = 0; cycle < cost.executed_iterations; ++cycle) {
    detail::publishProgress(progress, cycle);
    // Pre-smooth on the fine level.
    for (int s = 0; s < 2; ++s) {
      detail::exchangeHalo(comm, u, 200, wire_face);
      ctx.compute(ops_per_sweep);
      jacobiSweep(u, b, scratch, has_down, has_up);
    }
    // Restrict the residual to the coarse level (injection).
    detail::exchangeHalo(comm, u, 201, wire_face);
    for (int z = 0; z < uc.nz(); ++z) {
      for (int y = 0; y < uc.n(); ++y) {
        for (int x = 0; x < uc.n(); ++x) {
          const int fx = 2 * x, fy = 2 * y, fz = 2 * z;
          const double r =
              b.at(fx, fy, fz) - (6.0 * u.at(fx, fy, fz) - (fx > 0 ? u.at(fx - 1, fy, fz) : 0) -
                                  (fx + 1 < n ? u.at(fx + 1, fy, fz) : 0) -
                                  (fy > 0 ? u.at(fx, fy - 1, fz) : 0) -
                                  (fy + 1 < n ? u.at(fx, fy + 1, fz) : 0) -
                                  ((fz > 0 || has_down) ? u.at(fx, fy, fz - 1) : 0) -
                                  ((fz + 1 < nz || has_up) ? u.at(fx, fy, fz + 1) : 0));
          bc.at(x, y, z) = r;
          uc.at(x, y, z) = 0;
        }
      }
    }
    // Coarse smoothing (quarter-size faces on the wire).
    for (int s = 0; s < 2; ++s) {
      detail::exchangeHalo(comm, uc, 202, wire_face / 4);
      ctx.compute(ops_per_sweep);
      jacobiSweep(uc, bc, scratch_c, has_down, has_up);
    }
    // Prolongate (injection) and post-smooth.
    for (int z = 0; z < uc.nz(); ++z) {
      for (int y = 0; y < uc.n(); ++y) {
        for (int x = 0; x < uc.n(); ++x) {
          u.at(2 * x, 2 * y, 2 * z) += uc.at(x, y, z);
        }
      }
    }
    for (int s = 0; s < 2; ++s) {
      detail::exchangeHalo(comm, u, 203, wire_face);
      ctx.compute(ops_per_sweep);
      jacobiSweep(u, b, scratch, has_down, has_up);
    }
    double norm = residualNormSq(u, b, has_down, has_up);
    comm.allreduce(&norm, 1, vmpi::Op::Sum);
    current = std::sqrt(norm);
  }

  result.seconds = comm.wtime() - t0;
  result.verified = std::isfinite(current) && current < initial;
  result.checksum = current;
  result.bytes_sent = comm.bytesSent() - bytes0;
  result.messages_sent = comm.messagesSent() - msgs0;
  return result;
}

}  // namespace mg::npb
