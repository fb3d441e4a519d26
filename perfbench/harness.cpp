#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/microgrid_platform.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

double secondsOf(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// Registry counters the benchmark reports, under its own metric names.
// Several registry counters may fold into one metric (packet drop causes).
struct Tracked {
  const char* metric;
  const char* counter;
};
constexpr Tracked kTracked[] = {
    {"sim.events", "sim.kernel.events_executed"},
    {"sim.heap_fallbacks", "sim.kernel.eventfn_heap_fallbacks"},
    {"sim.wakes", "sim.process.wakes"},
    {"sim.spawned", "sim.process.spawned"},
    {"vos.quanta", "vos.sched.quanta"},
    {"net.packet.sent", "net.packet.sent"},
    {"net.packet.dropped", "net.packet.dropped_queue"},
    {"net.packet.dropped", "net.packet.dropped_loss"},
    {"net.packet.dropped", "net.packet.dropped_down"},
    {"net.tcp.segments", "net.tcp.segments_sent"},
    {"net.tcp.retransmits", "net.tcp.retransmits"},
    {"net.flow.recomputes", "net.flow.share_recomputes"},
    {"net.flow.visits", "net.flow.recompute_flow_visits"},
    {"vmpi.messages", "vmpi.comm.messages_sent"},
    {"vmpi.collectives", "vmpi.comm.collectives"},
    {"grid.gram.retries", "grid.gram.retries"},
    {"econ.jobs", "econ.jobs.submitted"},
    {"econ.backfills", "econ.queue.backfill_starts"},
    {"econ.transfers", "econ.data.transfers"},
    {"econ.resubmits", "econ.jobs.resubmits"},
    {"econ.failed", "econ.jobs.failed"},
    {"fault.injected", "fault.injected"},
};

}  // namespace

double wallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage usageNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = wallNow();
  u.user_s = secondsOf(ru.ru_utime);
  u.sys_s = secondsOf(ru.ru_stime);
  u.csw = static_cast<std::int64_t>(ru.ru_nvcsw) + static_cast<std::int64_t>(ru.ru_nivcsw);
  return u;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

cpu_set_t threadAffinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error(std::string("sched_getaffinity: ") + std::strerror(errno));
  }
  return set;
}

void setThreadAffinity(const cpu_set_t& set) {
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
  }
}

int pinToCurrentCpu() {
  const cpu_set_t mask = threadAffinity();
  int cpu = sched_getcpu();
  if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &mask)) {
    cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &mask)) ++cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  setThreadAffinity(one);
  return cpu;
}

void addCounts(Counts& into, const mg::sim::Simulator& sim) {
  for (const Tracked& t : kTracked) into[t.metric] += sim.metrics().counterValue(t.counter);
}

void addCounts(Counts& into, mg::core::MicroGridPlatform& platform) {
  addCounts(into, platform.simulator());
  into["net.route.columns"] += platform.network().routing().columnsBuilt();
}

void Digest::add(std::string_view s) {
  auto fold = [this](unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  };
  for (const char c : s) fold(static_cast<unsigned char>(c));
  fold(0x1f);  // field separator: ("ab","c") and ("a","bc") differ
}

void Digest::add(double v) { add(mg::obs::formatDouble(v)); }

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[index_].end_s = wallNow();
  t_->open_.pop_back();
}

Tracer::Scope Tracer::span(std::string name) {
  if (!enabled_ || !recording_) return Scope(nullptr, 0);
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = wallNow();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void Tracer::record(std::string name, double start_s, double end_s) {
  if (!enabled_ || !recording_) return;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s >= 0) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::string Tracer::chromeJson() const {
  const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < 0) continue;
    if (out.back() != '[') out += ",";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld},\"name\":",
                  (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                  static_cast<long long>(s.parent));
    out += buf;
    out += "\"" + mg::obs::jsonEscape(s.name) + "\"}";
  }
  out += "]}\n";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
