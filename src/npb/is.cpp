// IS — integer sort.
//
// Bucket sort of uniformly distributed integer keys: each iteration
// histograms the local keys, exchanges them all-to-all by destination
// bucket range, and sorts what it received. The all-to-all is the pattern
// of interest; its wire size is scaled to the class key volume.
#include <algorithm>
#include <cstring>

#include "npb/kernel_common.h"
#include "util/rng.h"

namespace mg::npb {

namespace {
constexpr std::int64_t kKeyRange = 1 << 16;
}

KernelResult runIs(vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls) {
  const KernelCost cost = costFor(Benchmark::IS, cls);
  KernelResult result = detail::makeResult(Benchmark::IS, cls, comm);
  obs::Gauge* const progress = detail::progressGauge(Benchmark::IS, comm, ctx);
  const int p = comm.size();
  const int rank = comm.rank();
  const std::int64_t bytes0 = comm.bytesSent();
  const std::int64_t msgs0 = comm.messagesSent();

  // Deterministic per-rank keys.
  const std::int64_t n = cost.executed_keys_per_rank;
  util::NpbRandom rng;
  rng.jump(util::NpbRandom::kDefaultSeed,
           static_cast<std::uint64_t>(rank) * static_cast<std::uint64_t>(n));
  std::vector<std::int32_t> keys(static_cast<size_t>(n));
  for (auto& k : keys) k = static_cast<std::int32_t>(rng.next() * kKeyRange);

  // The class's wire volume per destination block.
  const std::int64_t class_block_bytes =
      cost.class_keys * 4 / static_cast<std::int64_t>(p) / static_cast<std::int64_t>(p);

  comm.barrier();
  const double t0 = comm.wtime();

  const double ops_per_iter = cost.total_ops / cost.class_iterations / p;
  std::vector<std::int32_t> local;
  for (int iter = 0; iter < cost.executed_iterations; ++iter) {
    detail::publishProgress(progress, iter);
    // Rank the keys (histogram + partition).
    ctx.compute(ops_per_iter);
    std::vector<std::vector<std::int32_t>> outgoing(static_cast<size_t>(p));
    for (std::int32_t k : keys) {
      const auto dest = static_cast<size_t>(static_cast<std::int64_t>(k) * p / kKeyRange);
      outgoing[dest].push_back(k);
    }
    // Personalized exchange with class-sized wire volumes.
    local = std::move(outgoing[static_cast<size_t>(rank)]);
    for (int shift = 1; shift < p; ++shift) {
      const int to = (rank + shift) % p;
      const int from = (rank - shift + p) % p;
      const auto& block = outgoing[static_cast<size_t>(to)];
      std::uint64_t send_count = block.size();
      std::uint64_t recv_count = 0;
      comm.sendRecv(to, 100, &send_count, sizeof send_count, from, 100, &recv_count,
                    sizeof recv_count);
      std::vector<std::int32_t> incoming(recv_count);
      comm.sendRecv(to, 101, block.data(), block.size() * 4, from, 101, incoming.data(),
                    incoming.size() * 4, static_cast<std::size_t>(class_block_bytes));
      local.insert(local.end(), incoming.begin(), incoming.end());
    }
    std::sort(local.begin(), local.end());
  }

  result.seconds = comm.wtime() - t0;

  // Verification: locally sorted, globally partitioned (my max <= next
  // rank's min), and no key lost.
  bool ok = std::is_sorted(local.begin(), local.end());
  const std::int32_t my_min =
      local.empty() ? static_cast<std::int32_t>(kKeyRange) : local.front();
  const std::int32_t my_max = local.empty() ? -1 : local.back();
  // Each rank passes its minimum down so rank r can check max_r <= min_{r+1}.
  std::int32_t next_min = static_cast<std::int32_t>(kKeyRange);
  vmpi::Request boundary_send;
  if (rank > 0) boundary_send = comm.isend(rank - 1, 102, &my_min, sizeof my_min);
  if (rank + 1 < p) comm.recv(rank + 1, 102, &next_min, sizeof next_min);
  if (boundary_send.valid()) comm.wait(boundary_send);
  if (rank + 1 < p && my_max > next_min) ok = false;
  std::int64_t totals[2] = {static_cast<std::int64_t>(local.size()), ok ? 0 : 1};
  comm.allreduce(totals, 2, vmpi::Op::Sum);
  result.verified = (totals[0] == n * p) && (totals[1] == 0);
  double checksum = 0;
  for (size_t i = 0; i < local.size(); i += 97) checksum += local[i];
  result.checksum = checksum;
  result.bytes_sent = comm.bytesSent() - bytes0;
  result.messages_sent = comm.messagesSent() - msgs0;
  return result;
}

}  // namespace mg::npb
