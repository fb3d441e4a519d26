// The grid broker: deadline/budget-constrained placement over live GIS state.
//
// Each cluster's batch queue publishes a GridBatchQueue record into the GIS
// (slots, free slots, queue depth, backlog, price, core speed). The broker
// periodically refreshes a cached view from those records — MDS-style, so
// between refreshes its picture is a little stale, exactly like a real
// Globus broker's — and places each incoming job by one of three policies:
//
//   Cost      minimize estimated spend among budget-feasible clusters
//   Deadline  minimize estimated finish time among budget-feasible clusters
//   Locality  prefer the cluster already holding the job's input data
//
// Estimated finish = transfer (if the input lives elsewhere) + queue wait
// (the published backlog) + runtime scaled by the cluster's core speed.
// Jobs whose cheapest feasible run still exceeds their budget are rejected
// up front. All tie-breaks are by cluster name, so placement is a pure
// deterministic function of (job, cached view).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "econ/workload.h"
#include "gis/directory.h"

namespace mg::econ {

enum class BrokerPolicy { Cost, Deadline, Locality };
BrokerPolicy parseBrokerPolicy(const std::string& s);
const char* brokerPolicyName(BrokerPolicy p);

/// objectclass of the per-cluster queue advertisement record.
inline constexpr const char* kQueueObjectClass = "GridBatchQueue";

/// One cluster's advertised state, as the broker sees it.
struct ClusterView {
  std::string name;
  std::string head_host;      // gatekeeper / head-node host name
  int site = -1;              // data-site index (matches Job::data_site)
  int slots = 0;              // total schedulable cores
  int free_slots = 0;
  int queue_depth = 0;
  double backlog_s = 0;       // published wait estimate (cpu-seconds / slots)
  double price_per_cpu_s = 1; // currency per cpu-second
  double core_ops = 1e9;      // per-core speed (ops/sec)
  bool alive = true;
};

/// Serialize a view as "cn=<name>, <base>" (inverse: queueViewFromRecord).
gis::Record makeQueueRecord(const gis::Dn& base, const ClusterView& view);
ClusterView queueViewFromRecord(const gis::Record& record);

struct Placement {
  bool placed = false;
  std::string cluster;          // chosen cluster (when placed)
  double est_finish_s = 0;      // broker's finish estimate (absolute)
  double est_cost = 0;          // broker's spend estimate
  const char* reject_reason = nullptr;  // "budget" or "no_fit" when !placed
};

class Broker {
 public:
  struct Options {
    BrokerPolicy policy = BrokerPolicy::Deadline;
  };

  /// Seconds a cross-site transfer of `bytes` from `from_site` to the named
  /// cluster takes. Injected by the economy driver so the broker can price
  /// data movement with the flow network without linking against it.
  using TransferEstimator =
      std::function<double(int from_site, const ClusterView& to, std::int64_t bytes)>;

  explicit Broker(const Options& opt);

  void setTransferEstimator(TransferEstimator fn) { estimate_transfer_ = std::move(fn); }

  /// Replace the cached cluster views wholesale (driver-side refresh).
  void updateView(std::vector<ClusterView> views);

  /// Rebuild the cache from GridBatchQueue records under `base`, honoring
  /// Record_Expires TTLs (a crashed cluster's stale record vanishes).
  void refreshFromGis(const gis::Directory& dir, const gis::Dn& base, double now);

  /// Choose a cluster for `job` at virtual time `now`.
  Placement place(const Job& job, double now) const;

  /// Optimistically debit a placement from the cached view so the jobs that
  /// arrive before the next refresh don't all herd onto the same cluster.
  void noteScheduled(const std::string& cluster, int cpus, double est_cpu_seconds);

  /// Drop a cluster from the cache immediately (observed failure).
  void noteDown(const std::string& cluster);

  const std::map<std::string, ClusterView>& views() const { return views_; }
  const Options& options() const { return opt_; }

 private:
  double transferSeconds(const Job& job, const ClusterView& v) const;

  Options opt_;
  TransferEstimator estimate_transfer_;
  std::map<std::string, ClusterView> views_;  // name -> view (ordered: determinism)
};

}  // namespace mg::econ
