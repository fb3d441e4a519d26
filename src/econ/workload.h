// Open-loop synthetic grid workloads (ROADMAP item 3, "heavy traffic from
// millions of users").
//
// A WorkloadGenerator turns a WorkloadSpec into a deterministic stream of
// Jobs: arrival times follow a Poisson or heavy-tailed (Pareto) renewal
// process modulated by a day/night sinusoid, and each job's owner, shape
// (CPUs), runtime, input data, deadline and budget are drawn from seeded
// util::Rng streams. The stream is a pure function of (spec, seed): two
// generators with equal specs emit byte-identical job sequences, which is
// what lets million-job economy runs rerun bit-for-bit.
//
// Jobs are generated lazily (next()), so a million-job day costs a few
// dozen bytes of state, not a materialized array. Per-user behaviour is
// derived by hashing the user id into one of a few archetypes (interactive,
// batch, HPC), so "millions of synthetic users" need no per-user storage.
#pragma once

#include <cstdint>
#include <string>

#include "util/config.h"
#include "util/rng.h"

namespace mg::econ {

/// Reference core speed job runtimes are quoted against (ops/second). The
/// broker and GridEconomy both rescale runtimes by it.
inline constexpr double kRefCoreOps = 1e9;
static_assert(kRefCoreOps > 0);

/// One synthetic job. Runtimes are in *reference-core seconds*: the time the
/// job needs on a core of kRefCoreOps; a faster cluster core shrinks it
/// proportionally.
struct Job {
  std::int64_t id = 0;
  std::uint32_t user = 0;
  double submit_s = 0;        // virtual seconds since run start
  int cpus = 1;               // cores requested (gang-scheduled)
  double est_runtime_s = 0;   // the user's (over)estimate, for backfilling
  double runtime_s = 0;       // actual service demand per core
  double deadline_s = 0;      // absolute virtual time the user wants it done by
  double budget = 0;          // currency units the user will spend
  std::int64_t input_bytes = 0;  // data staged to the chosen cluster
  int data_site = -1;         // index of the site holding the input (-1: none)
};

enum class ArrivalProcess { Poisson, Pareto };
ArrivalProcess parseArrivalProcess(const std::string& s);
const char* arrivalProcessName(ArrivalProcess p);

/// Parameters of the synthetic stream. Defaults describe a balanced
/// "day in the life" mix; parse an INI [workload] section to override:
///
///   [workload]
///   jobs = 1000000
///   users = 100000
///   seed = 42
///   arrival = poisson          ; or pareto (heavy-tailed interarrivals)
///   rate = 12.5                ; mean jobs per virtual second
///   day_amplitude = 0.6        ; 0 = flat, 1 = full day/night swing
///   day_period = 86400         ; seconds per diurnal cycle
///   pareto_alpha = 1.5         ; interarrival tail (arrival = pareto)
///   runtime_mu = 4.0           ; lognormal log-mean of runtime seconds
///   runtime_sigma = 1.2        ; lognormal log-stddev
///   max_cpus = 64              ; job widths are powers of two up to this
///   data_fraction = 0.3        ; fraction of jobs with remote input data
///   data_mu = 16.5             ; lognormal log-mean of input bytes (~15 MB)
///   data_sigma = 1.0
///   deadline_lo = 2.0          ; deadline = submit + factor * est_runtime,
///   deadline_hi = 8.0          ;   factor ~ U[lo, hi]
///   budget_lo = 0.8            ; budget = factor * reference cost
///   budget_hi = 3.0
struct WorkloadSpec {
  std::int64_t jobs = 100000;
  std::int64_t users = 100000;
  std::uint64_t seed = 42;
  ArrivalProcess arrival = ArrivalProcess::Poisson;
  double rate = 12.5;
  double day_amplitude = 0.6;
  double day_period_s = 86400;
  double pareto_alpha = 1.5;
  double runtime_mu = 4.0;
  double runtime_sigma = 1.2;
  int max_cpus = 64;
  double data_fraction = 0.3;
  double data_mu = 16.5;
  double data_sigma = 1.0;
  double deadline_lo = 2.0;
  double deadline_hi = 8.0;
  double budget_lo = 0.8;
  double budget_hi = 3.0;

  /// Read a [workload] section; missing keys keep their defaults. Throws
  /// ConfigError on out-of-range values.
  static WorkloadSpec fromConfig(const util::Config& cfg);
  void validate() const;
};

class WorkloadGenerator {
 public:
  /// `data_sites` is how many distinct dataset locations exist (jobs with
  /// input data are assigned one uniformly); pass 0 to disable data staging
  /// regardless of spec.data_fraction.
  WorkloadGenerator(const WorkloadSpec& spec, int data_sites);

  /// Emit the next job; false once spec.jobs have been produced. Arrival
  /// times are non-decreasing.
  bool next(Job& out);

  std::int64_t produced() const { return produced_; }
  const WorkloadSpec& spec() const { return spec_; }

 private:
  double nextInterarrival();
  double intensityAt(double t) const;

  WorkloadSpec spec_;
  int data_sites_;
  util::Rng arrivals_;  // interarrival draws only
  util::Rng attrs_;     // everything else, one stream, fixed draw order
  double clock_ = 0;
  std::int64_t produced_ = 0;
};

}  // namespace mg::econ
