// Batch queue scheduling policies: the "local resource manager" of each
// cluster in the grid economy (src/econ/economy.*).
//
// A BatchQueue is a pure policy object: it owns slot accounting and queue
// order but no clock and no events. The economy feeds it time explicitly —
// submit(job), finish(id), dispatch(now) — and it answers with the jobs
// that may start.
//
// Two policies:
//  * EasyBackfill  — FCFS plus EASY (aggressive) backfilling: the queue head
//                    gets a shadow-time reservation computed from running
//                    jobs' user estimates, and later jobs may jump ahead only
//                    if they cannot delay that reservation. Running jobs
//                    sit in an index ordered by (expected end, id), so the
//                    shadow walk stops after the few jobs the head needs, and
//                    the candidate scan is capped at `kBackfillWindow`:
//                    dispatch costs O(window + jobs walked + log running),
//                    not O(depth) or a sort of the running set.
//  * TimeShared    — admit up to `kOversubscribe` x slots cores and let the
//                    caller stretch runtimes (processor sharing); queue past
//                    that point, FCFS.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

namespace mg::econ {

enum class QueuePolicy { EasyBackfill, TimeShared };

/// Queued jobs an EASY dispatch examines beyond the head.
inline constexpr int kBackfillWindow = 64;
/// TimeShared admits up to this many times `slots` cores.
inline constexpr int kOversubscribe = 4;

/// What the queue needs to know about a job. `est_runtime_s` is the user's
/// estimate (reservations use it; actual completion is the caller's business).
struct QueuedJob {
  std::int64_t id = 0;
  int cpus = 1;
  double est_runtime_s = 0;
  double submit_s = 0;
};

struct StartedJob {
  QueuedJob job;
  bool backfilled = false;  // started ahead of an older queued job
};

class BatchQueue {
 public:
  struct Options {
    int slots = 8;  // schedulable cores
    QueuePolicy policy = QueuePolicy::EasyBackfill;
  };

  explicit BatchQueue(const Options& opt);

  /// Enqueue. Does not start anything — call dispatch() after. Throws
  /// UsageError if `job.id` is already running.
  void submit(const QueuedJob& job);

  /// Remove a still-queued job. False if unknown or already running.
  bool cancel(std::int64_t id);

  /// Release the cores of a running job. False if the id is not running.
  bool finish(std::int64_t id);

  /// Start every job the policy allows at `now`, in deterministic order.
  std::vector<StartedJob> dispatch(double now);

  int freeSlots() const { return opt_.slots - used_; }
  int depth() const { return static_cast<int>(queue_.size()); }
  int runningCount() const { return static_cast<int>(running_.size()); }
  const Options& options() const { return opt_; }

  /// Estimated seconds until a hypothetical (cpus, est_runtime_s) arrival
  /// would start: remaining running work plus queued work, normalized by
  /// slot count. Zero when it would start immediately. A heuristic for
  /// broker ranking, not a promise.
  double estimateWait(int cpus, double now) const;

  /// Queued work in cpu-seconds / slots — the "backlog depth" metric.
  double backlogSeconds() const;

 private:
  struct Running {
    int cpus = 0;
    double expected_end_s = 0;  // start + user estimate; reservations use this
  };

  bool tryStart(const QueuedJob& job, double now);

  Options opt_;
  int used_ = 0;
  std::deque<QueuedJob> queue_;
  std::map<std::int64_t, Running> running_;
  // The same jobs keyed (expected end, id) -> cpus: the EASY shadow walk's
  // order. Ties free their cores in ascending id order.
  std::map<std::pair<double, std::int64_t>, int> by_end_;
};

}  // namespace mg::econ
