#include "econ/workload.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace mg::econ {
namespace {

/// Reference price used to scale budgets (currency per cpu-second).
constexpr double kRefPrice = 1.0;

}  // namespace

ArrivalProcess parseArrivalProcess(const std::string& s) {
  const std::string t = util::toLower(s);
  if (t == "poisson") return ArrivalProcess::Poisson;
  if (t == "pareto") return ArrivalProcess::Pareto;
  throw ConfigError("unknown arrival process '" + s + "' (poisson or pareto)");
}

const char* arrivalProcessName(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::Poisson: return "poisson";
    case ArrivalProcess::Pareto: return "pareto";
  }
  return "?";
}

void WorkloadSpec::validate() const {
  if (jobs < 1) throw ConfigError("workload: jobs must be >= 1");
  if (users < 1) throw ConfigError("workload: users must be >= 1");
  if (rate <= 0) throw ConfigError("workload: rate must be positive");
  if (day_amplitude < 0 || day_amplitude > 1) {
    throw ConfigError("workload: day_amplitude must be in [0, 1]");
  }
  if (day_period_s <= 0) throw ConfigError("workload: day_period must be positive");
  if (pareto_alpha <= 1.0) {
    throw ConfigError("workload: pareto_alpha must be > 1 (finite mean interarrival)");
  }
  if (max_cpus < 1) throw ConfigError("workload: max_cpus must be >= 1");
  if (data_fraction < 0 || data_fraction > 1) {
    throw ConfigError("workload: data_fraction must be in [0, 1]");
  }
  if (deadline_lo <= 0 || deadline_hi < deadline_lo) {
    throw ConfigError("workload: deadline factors need 0 < lo <= hi");
  }
  if (budget_lo <= 0 || budget_hi < budget_lo) {
    throw ConfigError("workload: budget factors need 0 < lo <= hi");
  }
}

WorkloadSpec WorkloadSpec::fromConfig(const util::Config& cfg) {
  WorkloadSpec spec;
  const auto sections = cfg.sectionsOfType("workload");
  if (sections.empty()) return spec;
  const util::ConfigSection& s = *sections.front();
  spec.jobs = s.getInt("jobs", spec.jobs);
  spec.users = s.getInt("users", spec.users);
  spec.seed = static_cast<std::uint64_t>(s.getInt("seed", static_cast<std::int64_t>(spec.seed)));
  if (s.has("arrival")) spec.arrival = parseArrivalProcess(s.getString("arrival"));
  spec.rate = s.getDouble("rate", spec.rate);
  spec.day_amplitude = s.getDouble("day_amplitude", spec.day_amplitude);
  spec.day_period_s = s.getDouble("day_period", spec.day_period_s);
  spec.pareto_alpha = s.getDouble("pareto_alpha", spec.pareto_alpha);
  spec.runtime_mu = s.getDouble("runtime_mu", spec.runtime_mu);
  spec.runtime_sigma = s.getDouble("runtime_sigma", spec.runtime_sigma);
  spec.max_cpus = static_cast<int>(s.getInt("max_cpus", spec.max_cpus));
  spec.data_fraction = s.getDouble("data_fraction", spec.data_fraction);
  spec.data_mu = s.getDouble("data_mu", spec.data_mu);
  spec.data_sigma = s.getDouble("data_sigma", spec.data_sigma);
  spec.deadline_lo = s.getDouble("deadline_lo", spec.deadline_lo);
  spec.deadline_hi = s.getDouble("deadline_hi", spec.deadline_hi);
  spec.budget_lo = s.getDouble("budget_lo", spec.budget_lo);
  spec.budget_hi = s.getDouble("budget_hi", spec.budget_hi);
  spec.validate();
  return spec;
}

namespace {

/// Stable 64-bit mix (SplitMix64 finalizer) — derives per-user archetypes
/// from the user id without per-user state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// User archetypes: weights sum to 16. Interactive users submit narrow,
/// short, tight-deadline jobs; batch users the bulk mix; HPC users wide,
/// long jobs with generous deadlines and budgets.
struct Archetype {
  double runtime_scale;   // multiplies the lognormal median
  int max_cpus_shift;     // widths up to spec.max_cpus >> shift
  double deadline_scale;  // multiplies the deadline factor
  double budget_scale;
};
constexpr Archetype kInteractive{0.1, 4, 0.6, 1.0};
constexpr Archetype kBatch{1.0, 2, 1.0, 1.0};
constexpr Archetype kHpc{4.0, 0, 1.6, 2.0};

const Archetype& archetypeOf(std::uint64_t user_hash) {
  const std::uint64_t r = user_hash % 16;
  if (r < 6) return kInteractive;  // 6/16
  if (r < 14) return kBatch;       // 8/16
  return kHpc;                     // 2/16
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec& spec, int data_sites)
    : spec_(spec),
      data_sites_(data_sites),
      arrivals_(spec.seed ^ 0xa5a5a5a5a5a5a5a5ull),
      attrs_(spec.seed ^ 0x5c5c5c5c5c5c5c5cull) {
  spec_.validate();
}

double WorkloadGenerator::intensityAt(double t) const {
  // Sinusoidal diurnal modulation around 1.0, floored away from zero so the
  // renewal clock always advances.
  const double wave =
      1.0 + spec_.day_amplitude * std::sin(2.0 * M_PI * t / spec_.day_period_s);
  return std::max(wave, 0.05);
}

double WorkloadGenerator::nextInterarrival() {
  // Draw a unit-rate renewal gap, then scale by mean interarrival over the
  // instantaneous intensity: a cheap deterministic time-warp that yields the
  // target mean rate with the diurnal shape (exact for Poisson thinning in
  // the limit of slow modulation, which a day-scale wave is).
  double gap;
  if (spec_.arrival == ArrivalProcess::Poisson) {
    gap = arrivals_.exponential(1.0);
  } else {
    // Pareto with mean 1: xm = (alpha-1)/alpha.
    const double a = spec_.pareto_alpha;
    gap = arrivals_.pareto((a - 1.0) / a, a);
  }
  return gap / (spec_.rate * intensityAt(clock_));
}

bool WorkloadGenerator::next(Job& out) {
  if (produced_ >= spec_.jobs) return false;
  clock_ += nextInterarrival();

  out = Job{};
  out.id = ++produced_;
  out.submit_s = clock_;
  out.user = static_cast<std::uint32_t>(attrs_.below(static_cast<std::uint64_t>(spec_.users)));
  const Archetype& a = archetypeOf(mix64(spec_.seed ^ (0x9e01ull + out.user)));

  // Runtime: lognormal, archetype-scaled, floored at 1 s. The user estimate
  // is an overestimate (1-3x) in the classic trace style; EASY backfilling
  // leans on it, completion uses the actual.
  out.runtime_s =
      std::max(1.0, a.runtime_scale * attrs_.lognormal(spec_.runtime_mu, spec_.runtime_sigma));
  out.est_runtime_s = out.runtime_s * attrs_.uniform(1.0, 3.0);

  // Width: a power of two, geometric-ish toward narrow jobs.
  int max_cpus = std::max(1, spec_.max_cpus >> a.max_cpus_shift);
  int width = 1;
  while (width * 2 <= max_cpus && attrs_.uniform() < 0.45) width *= 2;
  out.cpus = width;

  if (data_sites_ > 0 && attrs_.uniform() < spec_.data_fraction) {
    out.input_bytes =
        static_cast<std::int64_t>(attrs_.lognormal(spec_.data_mu, spec_.data_sigma)) + 1;
    out.data_site = static_cast<int>(attrs_.below(static_cast<std::uint64_t>(data_sites_)));
  }

  const double deadline_factor =
      a.deadline_scale * attrs_.uniform(spec_.deadline_lo, spec_.deadline_hi);
  out.deadline_s = out.submit_s + deadline_factor * out.est_runtime_s;

  // Budget: a multiple of the reference cost of the work itself.
  const double ref_cost = kRefPrice * out.runtime_s * out.cpus;
  out.budget = a.budget_scale * attrs_.uniform(spec_.budget_lo, spec_.budget_hi) * ref_cost;
  return true;
}

}  // namespace mg::econ
