#include "obs/progress.h"

#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "util/error.h"

namespace mg::obs {

namespace {

// The started monitor, for the SIGALRM handler.
std::atomic<ProgressMonitor*> g_active{nullptr};
struct sigaction g_prev_alarm;

std::int64_t monotonicNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Every line is shorter than PIPE_BUF, so one write(2) puts it down whole
// (SA_RESTART restarts a write the timer interrupts). A closed or full sink
// loses the line, never the run.
void writeLine(int fd, const char* p, std::size_t n) { (void)!::write(fd, p, n); }

// Async-signal-safe formatting for the stall dump: integers only, into a
// caller's buffer. putUint zero-pads to `width` digits.
char* putUint(char* p, std::uint64_t v, int width = 1) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0 || n < width);
  while (n > 0) *p++ = tmp[--n];
  return p;
}

char* putStr(char* p, const char* s) {
  while (*s != '\0') *p++ = *s++;
  return p;
}

/// `v` counted in 10^-decimals units, as printf's "%.<decimals>f" shows it.
char* putFixed(char* p, std::uint64_t v, int decimals) {
  std::uint64_t scale = 1;
  for (int i = 0; i < decimals; ++i) scale *= 10;
  p = putUint(p, v / scale);
  *p++ = '.';
  return putUint(p, v % scale, decimals);
}

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

void RunPulse::heartbeatDue() {
  due_.store(false, std::memory_order_relaxed);
  if (monitor_ != nullptr) monitor_->heartbeat();
}

ProgressMonitor::ProgressMonitor(RunPulse& pulse, const Counter& events, ProgressOptions opts)
    : pulse_(pulse), events_(events), opts_(std::move(opts)) {
  if (!(opts_.interval_s >= kMinProgressInterval && opts_.interval_s <= kMaxProgressInterval)) {
    throw UsageError("ProgressMonitor wants an interval in [0.001, 86400] seconds");
  }
  if (!(opts_.stall_s > 0)) throw UsageError("ProgressMonitor wants stall threshold > 0");
}

ProgressMonitor::~ProgressMonitor() { stop(); }

void ProgressMonitor::start() {
  if (running_) throw UsageError("ProgressMonitor::start called twice");
  if (g_active.load() != nullptr) {
    throw UsageError("a ProgressMonitor is already running in this process");
  }
  start_ns_ = monotonicNs();
  last_change_ns_ = start_ns_;
  last_events_ = events_.value();
  stall_reported_ = false;
  pulse_.monitor_ = this;
  g_active.store(this);

  struct sigaction sa {};
  sa.sa_handler = &ProgressMonitor::onAlarm;
  sa.sa_flags = SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGALRM, &sa, &g_prev_alarm);
  const auto us = static_cast<std::int64_t>(std::llround(opts_.interval_s * 1e6));
  itimerval it{};
  it.it_interval.tv_sec = static_cast<time_t>(us / 1'000'000);
  it.it_interval.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  it.it_value = it.it_interval;
  ::setitimer(ITIMER_REAL, &it, nullptr);
  running_ = true;
}

void ProgressMonitor::stop() {
  if (!running_) return;
  // Disarm before restoring the old action: in a single-threaded process an
  // alarm raised before the disarm is delivered as setitimer returns, still
  // to this monitor's handler.
  const itimerval off{};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  ::sigaction(SIGALRM, &g_prev_alarm, nullptr);
  g_active.store(nullptr);
  pulse_.monitor_ = nullptr;
  pulse_.due_.store(false, std::memory_order_relaxed);
  running_ = false;
}

void ProgressMonitor::onAlarm(int) {
  const int saved_errno = errno;
  if (ProgressMonitor* m = g_active.load(std::memory_order_relaxed)) m->tick();
  errno = saved_errno;
}

void ProgressMonitor::tick() {
  pulse_.due_.store(true, std::memory_order_relaxed);
  const std::int64_t now = monotonicNs();
  const std::int64_t events = events_.value();
  if (events != last_events_) {
    last_events_ = events;
    last_change_ns_ = now;
    stall_reported_ = false;
  }
  const std::int64_t quiet_ns = now - last_change_ns_;
  if (!stall_reported_ && static_cast<double>(quiet_ns) * 1e-9 >= opts_.stall_s) {
    stallDump(quiet_ns);
    stall_reported_ = true;  // once per stall episode, not every interval
  }
}

void ProgressMonitor::heartbeat() {
  const double wall_s = static_cast<double>(monotonicNs() - start_ns_) * 1e-9;
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
  line += "\n";
  writeLine(opts_.fd, line.data(), line.size());
  ++heartbeats_;
}

void ProgressMonitor::stallDump(std::int64_t quiet_ns) {
  char buf[256];  // the fixed text plus four numbers of at most 22 chars
  char* p = putStr(buf, ": STALL no event commit for ");
  p = putFixed(p, (static_cast<std::uint64_t>(quiet_ns) + 50'000'000) / 100'000'000, 1);
  p = putStr(p, "s wall; kernel state (t = last dispatched event's clock):\n  t=");
  p = putFixed(p, (static_cast<std::uint64_t>(pulse_.simNow()) + 500) / 1000, 6);
  p = putStr(p, "s pending=");
  p = putUint(p, static_cast<std::uint64_t>(pulse_.pending()));
  p = putStr(p, " events=");
  p = putUint(p, static_cast<std::uint64_t>(events_.value()));
  *p++ = '\n';
  writeLine(opts_.fd, opts_.label.data(), opts_.label.size());
  writeLine(opts_.fd, buf, static_cast<std::size_t>(p - buf));
  stall_dumps_.store(stall_dumps_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
}

}  // namespace mg::obs
