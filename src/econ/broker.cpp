#include "econ/broker.h"

#include <algorithm>
#include <cmath>

#include "gis/filter.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace mg::econ {
namespace {

/// Fallback transfer model when no estimator is injected: bytes / rate.
constexpr double kTransferRateBps = 1e9;

}  // namespace

BrokerPolicy parseBrokerPolicy(const std::string& s) {
  const std::string t = util::toLower(s);
  if (t == "cost") return BrokerPolicy::Cost;
  if (t == "deadline") return BrokerPolicy::Deadline;
  if (t == "locality") return BrokerPolicy::Locality;
  throw ConfigError("unknown broker policy '" + s + "' (cost, deadline, locality)");
}

const char* brokerPolicyName(BrokerPolicy p) {
  switch (p) {
    case BrokerPolicy::Cost: return "cost";
    case BrokerPolicy::Deadline: return "deadline";
    case BrokerPolicy::Locality: return "locality";
  }
  return "?";
}

gis::Record makeQueueRecord(const gis::Dn& base, const ClusterView& view) {
  gis::Record r(base.child("cn", view.name));
  r.add("objectclass", kQueueObjectClass);
  r.add("Head_Host", view.head_host);
  r.add("Site", std::to_string(view.site));
  r.add("Slots", std::to_string(view.slots));
  r.add("Free_Slots", std::to_string(view.free_slots));
  r.add("Queue_Depth", std::to_string(view.queue_depth));
  r.add("Backlog_Seconds", obs::formatDouble(view.backlog_s));
  r.add("Price", obs::formatDouble(view.price_per_cpu_s));
  r.add("Core_Ops", obs::formatDouble(view.core_ops));
  return r;
}

ClusterView queueViewFromRecord(const gis::Record& record) {
  ClusterView v;
  if (!record.dn().rdns().empty()) v.name = record.dn().rdns().front().value;
  v.head_host = record.get("Head_Host", "");
  v.site = std::stoi(record.get("Site", "-1"));
  v.slots = std::stoi(record.get("Slots", "0"));
  v.free_slots = std::stoi(record.get("Free_Slots", "0"));
  v.queue_depth = std::stoi(record.get("Queue_Depth", "0"));
  v.backlog_s = std::stod(record.get("Backlog_Seconds", "0"));
  v.price_per_cpu_s = std::stod(record.get("Price", "1"));
  v.core_ops = std::stod(record.get("Core_Ops", "1e9"));
  return v;
}

Broker::Broker(const Options& opt) : opt_(opt) {}

void Broker::updateView(std::vector<ClusterView> views) {
  views_.clear();
  for (ClusterView& v : views) {
    std::string name = v.name;
    views_.emplace(std::move(name), std::move(v));
  }
}

void Broker::refreshFromGis(const gis::Directory& dir, const gis::Dn& base, double now) {
  const auto records = dir.search(base, gis::Scope::Subtree,
                                  gis::Filter::parse(std::string("(objectclass=") +
                                                     kQueueObjectClass + ")"),
                                  now);
  std::vector<ClusterView> views;
  views.reserve(records.size());
  for (const gis::Record& r : records) views.push_back(queueViewFromRecord(r));
  updateView(std::move(views));
}

double Broker::transferSeconds(const Job& job, const ClusterView& v) const {
  if (job.input_bytes <= 0 || job.data_site < 0 || job.data_site == v.site) return 0;
  if (estimate_transfer_) return estimate_transfer_(job.data_site, v, job.input_bytes);
  return static_cast<double>(job.input_bytes) * 8.0 / kTransferRateBps;
}

Placement Broker::place(const Job& job, double now) const {
  // Evaluate every alive cluster the job physically fits on; views_ is
  // name-ordered, so equal-score candidates resolve the same way every run.
  struct Candidate {
    const ClusterView* view;
    double finish_s;
    double cost;
    double transfer_s;
  };
  std::vector<Candidate> fits;
  bool any_fit = false;
  for (const auto& [name, v] : views_) {
    if (!v.alive || job.cpus > v.slots) continue;
    any_fit = true;
    const double runtime_s = job.runtime_s * (kRefCoreOps / v.core_ops);
    const double est_runtime_s = job.est_runtime_s * (kRefCoreOps / v.core_ops);
    const double wait_s = (v.free_slots >= job.cpus && v.queue_depth == 0) ? 0 : v.backlog_s;
    const double transfer_s = transferSeconds(job, v);
    const double cost = v.price_per_cpu_s * job.cpus * runtime_s;
    if (cost > job.budget) continue;  // budget-infeasible here
    fits.push_back({&v, now + transfer_s + wait_s + est_runtime_s, cost, transfer_s});
  }
  if (fits.empty()) {
    Placement p;
    p.reject_reason = any_fit ? "budget" : "no_fit";
    return p;
  }

  auto better = [&](const Candidate& a, const Candidate& b) {
    switch (opt_.policy) {
      case BrokerPolicy::Cost:
        if (a.cost != b.cost) return a.cost < b.cost;
        if (a.finish_s != b.finish_s) return a.finish_s < b.finish_s;
        break;
      case BrokerPolicy::Deadline:
        if (a.finish_s != b.finish_s) return a.finish_s < b.finish_s;
        if (a.cost != b.cost) return a.cost < b.cost;
        break;
      case BrokerPolicy::Locality:
        // Data gravity first, then finish, then cost.
        if (a.transfer_s != b.transfer_s) return a.transfer_s < b.transfer_s;
        if (a.finish_s != b.finish_s) return a.finish_s < b.finish_s;
        if (a.cost != b.cost) return a.cost < b.cost;
        break;
    }
    return a.view->name < b.view->name;
  };
  const Candidate* best = &fits.front();
  for (const Candidate& c : fits) {
    if (better(c, *best)) best = &c;
  }

  Placement p;
  p.placed = true;
  p.cluster = best->view->name;
  p.est_finish_s = best->finish_s;
  p.est_cost = best->cost;
  return p;
}

void Broker::noteScheduled(const std::string& cluster, int cpus, double est_cpu_seconds) {
  auto it = views_.find(cluster);
  if (it == views_.end()) return;
  ClusterView& v = it->second;
  if (v.free_slots >= cpus) {
    v.free_slots -= cpus;
  } else {
    v.free_slots = 0;
    v.queue_depth += 1;
  }
  if (v.slots > 0) v.backlog_s += est_cpu_seconds / v.slots;
}

void Broker::noteDown(const std::string& cluster) {
  auto it = views_.find(cluster);
  if (it != views_.end()) it->second.alive = false;
}

}  // namespace mg::econ
