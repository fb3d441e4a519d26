#include "econ/batch_queue.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace mg::econ {

BatchQueue::BatchQueue(const Options& opt) : opt_(opt) {
  if (opt_.slots < 1) throw ConfigError("batch queue: slots must be >= 1");
}

void BatchQueue::submit(const QueuedJob& job) {
  if (running_.count(job.id) != 0) {
    throw UsageError("batch queue: job " + std::to_string(job.id) + " is already running");
  }
  queue_.push_back(job);
}

bool BatchQueue::cancel(std::int64_t id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == id) {
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

bool BatchQueue::finish(std::int64_t id) {
  auto it = running_.find(id);
  if (it == running_.end()) return false;
  used_ -= it->second.cpus;
  by_end_.erase({it->second.expected_end_s, id});
  running_.erase(it);
  return true;
}

bool BatchQueue::tryStart(const QueuedJob& job, double now) {
  const int capacity =
      opt_.policy == QueuePolicy::TimeShared ? opt_.slots * kOversubscribe : opt_.slots;
  if (used_ + job.cpus > capacity) return false;
  used_ += job.cpus;
  const double end = now + job.est_runtime_s;
  running_.emplace(job.id, Running{job.cpus, end});
  by_end_.emplace(std::make_pair(end, job.id), job.cpus);
  return true;
}

std::vector<StartedJob> BatchQueue::dispatch(double now) {
  std::vector<StartedJob> started;

  // FCFS prefix: start in arrival order until the head no longer fits.
  while (!queue_.empty() && tryStart(queue_.front(), now)) {
    started.push_back({queue_.front(), false});
    queue_.pop_front();
  }
  if (queue_.empty() || opt_.policy != QueuePolicy::EasyBackfill) return started;

  // EASY backfilling. The blocked head holds a reservation at its shadow
  // time: walk running jobs in (expected end, id) order, accumulating freed
  // cores until the head fits. Cores free at that instant beyond the head's
  // need are the "extra" pool a backfill job may borrow indefinitely;
  // anything else it borrows must be returned by the shadow time.
  const QueuedJob& head = queue_.front();
  double shadow = now;
  int avail = opt_.slots - used_;
  for (auto it = by_end_.begin(); avail < head.cpus && it != by_end_.end(); ++it) {
    avail += it->second;
    shadow = it->first.first;
  }
  // avail >= head.cpus here unless the head is wider than the machine, which
  // submit-side validation rules out; guard anyway so a bad est can't wedge.
  const int extra = std::max(0, avail - head.cpus);

  int scanned = 0;
  for (auto it = std::next(queue_.begin());
       it != queue_.end() && scanned < kBackfillWindow && used_ < opt_.slots;) {
    ++scanned;
    const QueuedJob& cand = *it;
    const bool fits_now = cand.cpus <= opt_.slots - used_;
    const bool ends_before_shadow = now + cand.est_runtime_s <= shadow;
    const bool within_extra = cand.cpus <= extra;
    if (fits_now && (ends_before_shadow || within_extra)) {
      tryStart(cand, now);
      started.push_back({cand, true});
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return started;
}

double BatchQueue::estimateWait(int cpus, double now) const {
  if (cpus <= opt_.slots - used_ && queue_.empty()) return 0;
  // Remaining running work plus queued work, spread over the slots: a fluid
  // approximation of how long the machine needs to drain ahead of us.
  double cpu_seconds = 0;
  for (const auto& [id, r] : running_) {
    cpu_seconds += std::max(0.0, r.expected_end_s - now) * r.cpus;
  }
  for (const QueuedJob& q : queue_) cpu_seconds += q.est_runtime_s * q.cpus;
  return cpu_seconds / opt_.slots;
}

double BatchQueue::backlogSeconds() const {
  double cpu_seconds = 0;
  for (const QueuedJob& q : queue_) cpu_seconds += q.est_runtime_s * q.cpus;
  return cpu_seconds / opt_.slots;
}

}  // namespace mg::econ
