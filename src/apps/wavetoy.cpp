#include "apps/wavetoy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "npb/kernel_common.h"
#include "util/error.h"
#include "util/strings.h"

namespace mg::apps {

namespace {
using npb::detail::SlabField;
constexpr int kMaxExecutedEdge = 32;

/// A whole-string integer job argument that fits an int, or a ParseError
/// naming the argument and its value.
int intArg(const char* name, const std::string& value) {
  const std::optional<std::int64_t> v = util::parseInt(value);
  if (!v || *v < std::numeric_limits<int>::min() || *v > std::numeric_limits<int>::max()) {
    throw ParseError(
        util::format("cactus.wavetoy %s wants an integer, got '%s'", name, value.c_str()));
  }
  return static_cast<int>(*v);
}
}  // namespace

WaveToyResult runWaveToy(vmpi::Comm& comm, vos::HostContext& ctx, const WaveToyParams& params) {
  if (params.grid_edge < 2 || params.timesteps < 1) {
    throw mg::UsageError("wavetoy needs grid_edge >= 2 and timesteps >= 1");
  }
  WaveToyResult result;
  result.rank = comm.rank();
  result.nprocs = comm.size();
  result.grid_edge = params.grid_edge;
  const int p = comm.size();
  const int rank = comm.rank();

  // Executed (reduced) grid; compute charge and wire sizes use the
  // requested edge.
  int n = std::min(params.grid_edge, kMaxExecutedEdge);
  n -= n % p;  // make the slab decomposition exact
  if (n < p) n = p;
  const int nz = n / p;
  const bool has_down = rank > 0;
  const bool has_up = rank + 1 < p;
  const std::int64_t bytes0 = comm.bytesSent();

  const double edge = params.grid_edge;
  const double ops_per_step = edge * edge * edge * params.ops_per_point / p;
  const auto wire_face = static_cast<std::size_t>(edge * edge * 8);

  SlabField u(n, nz), u_prev(n, nz), u_next(n, nz);
  // Initial condition: a Gaussian pulse centered in the cube.
  const double c2dt2 = 0.1;  // (c*dt/dx)^2, comfortably under the CFL bound
  for (int z = 0; z < nz; ++z) {
    const int gz = rank * nz + z;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const double dx = (x - n / 2.0) / n;
        const double dy = (y - n / 2.0) / n;
        const double dz = (gz - n / 2.0) / n;
        const double g = std::exp(-40.0 * (dx * dx + dy * dy + dz * dz));
        u.at(x, y, z) = g;
        u_prev.at(x, y, z) = g;  // zero initial velocity
      }
    }
  }

  auto energy = [&] {
    double e = 0;
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) e += u.at(x, y, z) * u.at(x, y, z);
      }
    }
    comm.allreduce(&e, 1, vmpi::Op::Sum);
    return e;
  };

  comm.barrier();
  const double t0 = comm.wtime();
  const double initial_energy = energy();

  for (int step = 0; step < params.timesteps; ++step) {
    npb::detail::exchangeHalo(comm, u, 500, wire_face);
    ctx.compute(ops_per_step);
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          const double xm = x > 0 ? u.at(x - 1, y, z) : 0.0;
          const double xp = x + 1 < n ? u.at(x + 1, y, z) : 0.0;
          const double ym = y > 0 ? u.at(x, y - 1, z) : 0.0;
          const double yp = y + 1 < n ? u.at(x, y + 1, z) : 0.0;
          const double zm = (z > 0 || has_down) ? u.at(x, y, z - 1) : 0.0;
          const double zp = (z + 1 < nz || has_up) ? u.at(x, y, z + 1) : 0.0;
          const double lap = xm + xp + ym + yp + zm + zp - 6.0 * u.at(x, y, z);
          u_next.at(x, y, z) = 2.0 * u.at(x, y, z) - u_prev.at(x, y, z) + c2dt2 * lap;
        }
      }
    }
    std::swap(u_prev, u);
    std::swap(u, u_next);
  }

  const double final_energy = energy();
  result.seconds = comm.wtime() - t0;
  // Leapfrog with reflecting boundaries keeps the field bounded; blow-up
  // would mean a broken halo exchange or CFL violation.
  result.verified =
      std::isfinite(final_energy) && final_energy < 4.0 * initial_energy + 1.0;
  result.energy = final_energy;
  result.bytes_sent = comm.bytesSent() - bytes0;
  return result;
}

double WaveToySink::maxSeconds() const {
  double m = 0;
  for (const auto& r : results_) m = std::max(m, r.seconds);
  return m;
}

bool WaveToySink::allVerified() const {
  if (results_.empty()) return false;
  return std::all_of(results_.begin(), results_.end(),
                     [](const WaveToyResult& r) { return r.verified; });
}

void registerWaveToy(grid::ExecutableRegistry& registry, WaveToySink& sink) {
  registry.add("cactus.wavetoy", [&sink](grid::JobContext& jc) {
    WaveToyParams params;
    if (!jc.args.empty()) params.grid_edge = intArg("grid_edge", jc.args[0]);
    if (jc.args.size() > 1) params.timesteps = intArg("timesteps", jc.args[1]);
    auto comm = vmpi::Comm::init(jc);
    WaveToyResult r = runWaveToy(*comm, jc.os, params);
    sink.record(r);
    comm->finalize();
    return r.verified ? 0 : 1;
  });
}

}  // namespace mg::apps
