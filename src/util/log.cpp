#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/strings.h"

namespace mg::util {

namespace {

LogLevel levelFromEnv() {
  const char* env = std::getenv("MG_LOG");
  if (!env) return LogLevel::Warn;
  const std::string s = toLower(env);
  if (s == "trace") return LogLevel::Trace;
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  if (s == "off") return LogLevel::Off;
  return LogLevel::Warn;
}

std::atomic<LogLevel> g_level{levelFromEnv()};

// Installed/cleared only while the simulation is quiescent; emitters only
// call it, never mutate it, and g_log_mutex below keeps the emitted lines
// whole.
std::function<std::int64_t()> g_sim_time_source;

// Logging is a free function any thread of an embedding program may call
// (a simulator per thread); serialize whole lines.
std::mutex g_log_mutex;

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel logLevel() { return g_level.load(std::memory_order_relaxed); }

void setLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

void logLine(LogLevel level, const char* component, const std::string& message) {
  const std::lock_guard<std::mutex> lk(g_log_mutex);
  if (g_sim_time_source) {
    const double t = static_cast<double>(g_sim_time_source()) * 1e-9;
    std::fprintf(stderr, "[%-5s] %-10s [t=%.6fs] %s\n", levelName(level), component, t,
                 message.c_str());
  } else {
    std::fprintf(stderr, "[%-5s] %-10s %s\n", levelName(level), component, message.c_str());
  }
}

bool setLogSimTimeSource(std::function<std::int64_t()> source) {
  if (g_sim_time_source) return false;
  g_sim_time_source = std::move(source);
  return true;
}

void clearLogSimTimeSource() { g_sim_time_source = nullptr; }

}  // namespace mg::util
