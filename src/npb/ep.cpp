// EP — embarrassingly parallel.
//
// Generates Gaussian pairs with the Marsaglia polar method from the NPB
// linear congruential generator (each rank jumps ahead to its subsequence),
// tallies them into max-norm annuli, and combines the results with one
// allreduce at the end. Communication-free until the final reduction — the
// pure-compute calibration point of the suite.
#include <cmath>

#include "npb/kernel_common.h"
#include "util/rng.h"

namespace mg::npb {

KernelResult runEp(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls) {
  const KernelCost cost = costFor(Benchmark::EP, cls);
  KernelResult result = detail::makeResult(Benchmark::EP, cls, comm);
  obs::Gauge* const progress = detail::progressGauge(Benchmark::EP, comm, ctx);
  const int p = comm.size();
  const std::int64_t bytes0 = comm.bytesSent();
  const std::int64_t msgs0 = comm.messagesSent();

  comm.barrier();
  const double t0 = comm.wtime();

  // Each rank owns an independent subsequence (2 randoms per pair).
  const std::int64_t pairs = cost.executed_pairs_per_rank;
  util::NpbRandom rng;
  rng.jump(util::NpbRandom::kDefaultSeed,
           static_cast<std::uint64_t>(comm.rank()) * static_cast<std::uint64_t>(2 * pairs));

  double sx = 0, sy = 0;
  std::int64_t q[10] = {0};
  std::int64_t accepted = 0;

  const int batches = 16;
  const double ops_per_batch = cost.total_ops / p / batches;
  const std::int64_t pairs_per_batch = pairs / batches;
  for (int batch = 0; batch < batches; ++batch) {
    detail::publishProgress(progress, batch);
    for (std::int64_t i = 0; i < pairs_per_batch; ++i) {
      const double x = 2.0 * rng.next() - 1.0;
      const double y = 2.0 * rng.next() - 1.0;
      const double t = x * x + y * y;
      if (t <= 1.0 && t > 0.0) {
        const double f = std::sqrt(-2.0 * std::log(t) / t);
        const double gx = x * f;
        const double gy = y * f;
        const double m = std::max(std::fabs(gx), std::fabs(gy));
        const int bin = std::min(9, static_cast<int>(m));
        ++q[bin];
        ++accepted;
        sx += gx;
        sy += gy;
      }
    }
    // Charge the class's share of work for this batch.
    ctx.compute(ops_per_batch);
  }

  double sums[2] = {sx, sy};
  comm.allreduce(sums, 2, vmpi::Op::Sum);
  std::int64_t counts[11];
  for (int i = 0; i < 10; ++i) counts[i] = q[i];
  counts[10] = accepted;
  comm.allreduce(counts, 11, vmpi::Op::Sum);

  result.seconds = comm.wtime() - t0;

  // Verification: the acceptance rate of the polar method is pi/4, and the
  // annulus counts must account for every accepted pair.
  std::int64_t bin_total = 0;
  for (int i = 0; i < 10; ++i) bin_total += counts[i];
  const double acceptance =
      static_cast<double>(counts[10]) / (static_cast<double>(pairs) * p);
  result.verified = (bin_total == counts[10]) && std::fabs(acceptance - 0.785398) < 0.01 &&
                    std::isfinite(sums[0]) && std::isfinite(sums[1]);
  result.checksum = sums[0] + sums[1];
  result.bytes_sent = comm.bytesSent() - bytes0;
  result.messages_sent = comm.messagesSent() - msgs0;
  return result;
}

}  // namespace mg::npb
