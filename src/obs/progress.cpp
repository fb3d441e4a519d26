#include "obs/progress.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "obs/metrics.h"
#include "util/error.h"

namespace mg::obs {

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// 1234567 -> "1.23M", 4200 -> "4.20k" — heartbeat lines are for humans.
std::string human(double v) {
  if (v >= 1e9) return fmt("%.2f", v / 1e9) + "G";
  if (v >= 1e6) return fmt("%.2f", v / 1e6) + "M";
  if (v >= 1e3) return fmt("%.2f", v / 1e3) + "k";
  return fmt("%.0f", v);
}

}  // namespace

ProgressMonitor::ProgressMonitor(const RunPulse& pulse, const Counter& events,
                                 ProgressOptions opts)
    : pulse_(pulse), events_(events), opts_(std::move(opts)) {
  if (opts_.interval_s <= 0) throw UsageError("ProgressMonitor wants interval > 0");
  if (opts_.stall_s <= 0) throw UsageError("ProgressMonitor wants stall threshold > 0");
}

ProgressMonitor::~ProgressMonitor() { stop(); }

void ProgressMonitor::start() {
  std::lock_guard<std::mutex> lk(m_);
  if (running_) throw UsageError("ProgressMonitor::start called twice");
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { loop(); });
}

void ProgressMonitor::stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lk(m_);
  running_ = false;
}

void ProgressMonitor::loop() {
  using clock = std::chrono::steady_clock;
  std::ostream& out = opts_.sink != nullptr ? *opts_.sink : std::cerr;
  const auto t0 = clock::now();
  auto last_event_change = t0;
  std::int64_t last_events = events_.value();
  bool stall_reported = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_.wait_for(lk, std::chrono::duration<double>(opts_.interval_s),
                   [&] { return stop_requested_; });
      if (stop_requested_) return;
    }
    const auto now = clock::now();
    const double wall_s = std::chrono::duration<double>(now - t0).count();
    const std::int64_t events = events_.value();
    if (events != last_events) {
      last_events = events;
      last_event_change = now;
      stall_reported = false;
    }
    heartbeat(out, wall_s);
    const double quiet_s = std::chrono::duration<double>(now - last_event_change).count();
    if (quiet_s >= opts_.stall_s && !stall_reported) {
      stallDump(out, quiet_s);
      stall_reported = true;  // once per stall episode, not every interval
    }
  }
}

void ProgressMonitor::heartbeat(std::ostream& out, double wall_s) {
  const double sim_s = static_cast<double>(pulse_.simNow()) * 1e-9;
  std::string line = opts_.label + ": sim " + fmt("%.3f", sim_s) + "s | wall " +
                     fmt("%.1f", wall_s) + "s | " + fmt("%.2f", sim_s / std::max(wall_s, 1e-9)) +
                     "x";
  const double ev = static_cast<double>(events_.value());
  line += " | " + human(ev) + " ev (" + human(ev / std::max(wall_s, 1e-9)) + "/s)";
  line += " | pending " + std::to_string(pulse_.pending());
  if (opts_.fraction) {
    const double f = opts_.fraction();
    if (f >= 0) {
      line += " | " + fmt("%.1f", std::min(f, 1.0) * 100.0) + "%";
      if (f > 1e-6 && f < 1.0) {
        line += " eta " + fmt("%.0f", wall_s * (1.0 - f) / f) + "s";
      }
    }
  }
  out << line << "\n" << std::flush;
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
}

void ProgressMonitor::stallDump(std::ostream& out, double quiet_s) {
  out << opts_.label << ": STALL no event commit for " << fmt("%.1f", quiet_s)
      << "s wall; kernel state (t = last dispatched event's clock):\n"
      << "  t=" << fmt("%.6f", static_cast<double>(pulse_.simNow()) * 1e-9)
      << "s pending=" << pulse_.pending() << " events=" << events_.value() << "\n"
      << std::flush;
  stall_dumps_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mg::obs
