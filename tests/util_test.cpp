// Unit tests for the util module: strings, units, rng, stats, config, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/config.h"
#include "util/error.h"
#include "util/name_index.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace mu = mg::util;

// ---------------------------------------------------------------- strings --

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(mu::trim("  hello \t\n"), "hello");
  EXPECT_EQ(mu::trim(""), "");
  EXPECT_EQ(mu::trim("   "), "");
  EXPECT_EQ(mu::trim("a"), "a");
}

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(mu::split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(mu::split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(mu::split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(mu::split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(Strings, SplitTrimTrimsEachField) {
  EXPECT_EQ(mu::splitTrim(" a , b ,c ", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, SplitWhitespaceSkipsRuns) {
  EXPECT_EQ(mu::splitWhitespace("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(mu::splitWhitespace("   ").empty());
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(mu::toLower("HeLLo"), "hello");
  EXPECT_TRUE(mu::iequals("MBps", "mbps"));
  EXPECT_FALSE(mu::iequals("abc", "abcd"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(mu::startsWith("vm.ucsd.edu", "vm."));
  EXPECT_FALSE(mu::startsWith("vm", "vm."));
  EXPECT_TRUE(mu::endsWith("vm.ucsd.edu", ".edu"));
  EXPECT_FALSE(mu::endsWith("edu", ".edu"));
}

TEST(Strings, Join) {
  EXPECT_EQ(mu::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(mu::join({}, ","), "");
}

TEST(Strings, GlobMatchStar) {
  EXPECT_TRUE(mu::globMatch("vm*", "vm0.ucsd.edu"));
  EXPECT_TRUE(mu::globMatch("*.ucsd.edu", "vm0.ucsd.edu"));
  EXPECT_TRUE(mu::globMatch("vm*.ucsd.*", "vm0.ucsd.edu"));
  EXPECT_FALSE(mu::globMatch("vm*", "host.ucsd.edu"));
  EXPECT_TRUE(mu::globMatch("*", ""));
  EXPECT_TRUE(mu::globMatch("exact", "exact"));
  EXPECT_FALSE(mu::globMatch("exact", "exact2"));
}

TEST(Strings, GlobMatchQuestionMark) {
  EXPECT_TRUE(mu::globMatch("vm?.ucsd.edu", "vm0.ucsd.edu"));
  EXPECT_FALSE(mu::globMatch("vm?.ucsd.edu", "vm10.ucsd.edu"));
  EXPECT_FALSE(mu::globMatch("vm?.ucsd.edu", "vm.ucsd.edu"));
  EXPECT_TRUE(mu::globMatch("vm??.ucsd.edu", "vm10.ucsd.edu"));
  EXPECT_TRUE(mu::globMatch("?*", "a"));
  EXPECT_FALSE(mu::globMatch("?*", ""));
  EXPECT_TRUE(mu::globMatch("*?.edu", "vm7.edu"));
  EXPECT_TRUE(mu::globMatch("a?c", "a?c"));
}

// -------------------------------------------------------------- NameIndex --

TEST(NameIndex, FindsInsertedPositionsAndMissesOthers) {
  std::vector<std::string> names;
  auto name_at = [&](std::int32_t pos) -> const std::string& {
    return names[static_cast<std::size_t>(pos)];
  };
  mu::NameIndex idx;
  EXPECT_EQ(idx.find("a", name_at), mu::NameIndex::kNone);  // empty table
  for (int i = 0; i < 1000; ++i) {
    names.push_back(mu::format("n%d", i));
    EXPECT_EQ(idx.insert(names.back(), i, name_at), i);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(idx.find(mu::format("n%d", i), name_at), i);
  EXPECT_EQ(idx.find("n1000", name_at), mu::NameIndex::kNone);
  EXPECT_EQ(idx.find("", name_at), mu::NameIndex::kNone);
}

TEST(NameIndex, FirstInsertWins) {
  const std::vector<std::string> names{"x", "y", "x"};
  auto name_at = [&](std::int32_t pos) -> const std::string& {
    return names[static_cast<std::size_t>(pos)];
  };
  mu::NameIndex idx;
  EXPECT_EQ(idx.insert("x", 0, name_at), 0);
  EXPECT_EQ(idx.insert("y", 1, name_at), 1);
  EXPECT_EQ(idx.insert("x", 2, name_at), 0);  // the duplicate reports the first
  EXPECT_EQ(idx.find("x", name_at), 0);
}

TEST(Strings, Format) {
  EXPECT_EQ(mu::format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(mu::format("%s", ""), "");
}

TEST(Strings, ParseNumbersTakeTheWholeString) {
  EXPECT_EQ(mu::parseInt("42"), 42);
  EXPECT_EQ(mu::parseInt(" -7 "), -7);
  EXPECT_EQ(mu::parseInt("5abc"), std::nullopt);
  EXPECT_EQ(mu::parseInt("1e6"), std::nullopt);  // not silently 1
  EXPECT_EQ(mu::parseInt(""), std::nullopt);
  EXPECT_EQ(mu::parseInt("99999999999999999999"), std::nullopt);  // overflow
  EXPECT_EQ(mu::parseDouble("2.5"), 2.5);
  EXPECT_EQ(mu::parseDouble("1e6"), 1e6);
  EXPECT_EQ(mu::parseDouble("5ms"), std::nullopt);
  EXPECT_EQ(mu::parseDouble("x"), std::nullopt);
  // NaN compares false against every bound, so a check written `x <= 0`
  // would let it through; the parser is where it has to stop.
  for (const char* s : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf", "Infinity", " inf "}) {
    EXPECT_EQ(mu::parseDouble(s), std::nullopt) << s;
  }
  EXPECT_EQ(mu::parseDouble("1e999"), std::nullopt);  // overflow
  EXPECT_EQ(mu::parseDouble("1.7976931348623157e308"), 1.7976931348623157e308);
}

TEST(Strings, FlagNumbersNameTheFlagAndValue) {
  EXPECT_EQ(mu::flagInt("--jobs", "12"), 12);
  EXPECT_DOUBLE_EQ(mu::flagDouble("--quantum", "2.5"), 2.5);
  auto message = [](auto&& fn) {
    try {
      fn();
    } catch (const mg::UsageError& e) {
      return std::string(e.what());
    }
    return std::string("no UsageError");
  };
  EXPECT_EQ(message([] { mu::flagInt("--jobs", "1e6"); }),
            "usage error: --jobs wants an integer, got '1e6'");
  EXPECT_EQ(message([] { mu::flagDouble("--quantum", "5abc"); }),
            "usage error: --quantum wants a number, got '5abc'");
  EXPECT_EQ(message([] { mu::flagInt("--resubmits", "-5", 0, 10); }),
            "usage error: --resubmits wants an integer in [0, 10], got '-5'");
  EXPECT_EQ(mu::flagInt("--resubmits", "0", 0, 10), 0);
  EXPECT_EQ(message([] { mu::flagDouble("--slowdown", "nan"); }),
            "usage error: --slowdown wants a number, got 'nan'");
  EXPECT_EQ(message([] { mu::flagDouble("--quantum", "inf"); }),
            "usage error: --quantum wants a number, got 'inf'");
  EXPECT_EQ(message([] { mu::flagDouble("--progress", "1e300", 0.001, 86400); }),
            "usage error: --progress wants a number in [0.001, 86400], got '1e300'");
  EXPECT_EQ(message([] { mu::flagDouble("--progress", "1e-9", 0.001, 86400); }),
            "usage error: --progress wants a number in [0.001, 86400], got '1e-9'");
  EXPECT_DOUBLE_EQ(mu::flagDouble("--progress", "0.001", 0.001, 86400), 0.001);
}

// ------------------------------------------------------------------ units --

TEST(Units, ParseBandwidth) {
  EXPECT_DOUBLE_EQ(mu::parseBandwidth("100Mbps"), 100e6);
  EXPECT_DOUBLE_EQ(mu::parseBandwidth("622Mb/s"), 622e6);
  EXPECT_DOUBLE_EQ(mu::parseBandwidth("1.2Gbps"), 1.2e9);
  EXPECT_DOUBLE_EQ(mu::parseBandwidth("9600bps"), 9600);
  EXPECT_DOUBLE_EQ(mu::parseBandwidth("10 Mbps"), 10e6);
  EXPECT_DOUBLE_EQ(mu::parseBandwidth("56kbps"), 56e3);
}

TEST(Units, ParseBandwidthErrors) {
  EXPECT_THROW(mu::parseBandwidth(""), mg::ParseError);
  EXPECT_THROW(mu::parseBandwidth("fast"), mg::ParseError);
  EXPECT_THROW(mu::parseBandwidth("100Xbps"), mg::ParseError);
}

TEST(Units, NonFiniteQuantitiesRejected) {
  for (const char* s : {"nanMbps", "nan", "infGbps", "-inf bps", "1e999Mbps"}) {
    EXPECT_THROW(mu::parseBandwidth(s), mg::ParseError) << s;
  }
  for (const char* s : {"nan", "nanms", "inf", "infs", "-infus", "1e999s"}) {
    EXPECT_THROW(mu::parseTime(s), mg::ParseError) << s;
  }
  EXPECT_THROW(mu::parseSize("nanGB"), mg::ParseError);
  EXPECT_THROW(mu::parseComputeRate("infMHz"), mg::ParseError);
}

TEST(Units, ParseTime) {
  EXPECT_DOUBLE_EQ(mu::parseTime("50ms"), 0.050);
  EXPECT_DOUBLE_EQ(mu::parseTime("10us"), 10e-6);
  EXPECT_DOUBLE_EQ(mu::parseTime("1.5s"), 1.5);
  EXPECT_DOUBLE_EQ(mu::parseTime("200ns"), 200e-9);
  EXPECT_DOUBLE_EQ(mu::parseTime("2min"), 120.0);
  EXPECT_DOUBLE_EQ(mu::parseTime("42"), 42.0);
}

TEST(Units, ParseSizeBinary) {
  EXPECT_EQ(mu::parseSize("100MBytes"), 100ll * 1024 * 1024);
  EXPECT_EQ(mu::parseSize("1GB"), 1024ll * 1024 * 1024);
  EXPECT_EQ(mu::parseSize("64KB"), 64ll * 1024);
  EXPECT_EQ(mu::parseSize("512B"), 512);
  EXPECT_EQ(mu::parseSize("1MiB"), 1024ll * 1024);
  EXPECT_EQ(mu::parseSize("3"), 3);
}

TEST(Units, ParseComputeRate) {
  EXPECT_DOUBLE_EQ(mu::parseComputeRate("533MHz"), 533e6);
  EXPECT_DOUBLE_EQ(mu::parseComputeRate("200MIPS"), 200e6);
  EXPECT_DOUBLE_EQ(mu::parseComputeRate("150Mops"), 150e6);
  EXPECT_DOUBLE_EQ(mu::parseComputeRate("1.5Gops"), 1.5e9);
  EXPECT_DOUBLE_EQ(mu::parseComputeRate("10"), 10.0);
}

TEST(Units, FormatRoundTripReadable) {
  EXPECT_EQ(mu::formatBandwidth(100e6), "100Mbps");
  EXPECT_EQ(mu::formatTime(0.05), "50ms");
  EXPECT_EQ(mu::formatSize(1024), "1KB");
}

// -------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  mu::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  mu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  mu::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  mu::Rng r(11);
  mu::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  mu::Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = r.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues reached
}

TEST(Rng, NormalMoments) {
  mu::Rng r(17);
  mu::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  mu::Rng r(19);
  mu::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

namespace {

/// Empirical q-quantile of a sample (sorted copy; fine at test sizes).
double sampleQuantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

}  // namespace

TEST(Rng, ExponentialTailQuantile) {
  mu::Rng r(23);
  std::vector<double> xs(100000);
  for (double& x : xs) x = r.exponential(2.0);
  // Closed form: Q(q) = -ln(1-q)/rate.
  EXPECT_NEAR(sampleQuantile(xs, 0.99), -std::log(0.01) / 2.0, 0.1);
}

TEST(Rng, LognormalMeanAndTail) {
  mu::Rng r(29);
  const double mu_p = 1.0, sigma = 0.5;
  mu::RunningStats s;
  std::vector<double> xs(200000);
  for (double& x : xs) {
    x = r.lognormal(mu_p, sigma);
    EXPECT_GT(x, 0.0);
    s.add(x);
  }
  // Closed form: mean = exp(mu + sigma^2/2), Q(q) = exp(mu + sigma z_q).
  EXPECT_NEAR(s.mean(), std::exp(mu_p + sigma * sigma / 2), 0.05);
  const double z95 = 1.6448536269514722;
  EXPECT_NEAR(sampleQuantile(xs, 0.95), std::exp(mu_p + sigma * z95), 0.15);
}

TEST(Rng, ParetoMeanAndTail) {
  mu::Rng r(31);
  const double xm = 1.0, alpha = 3.0;
  mu::RunningStats s;
  std::vector<double> xs(200000);
  for (double& x : xs) {
    x = r.pareto(xm, alpha);
    EXPECT_GE(x, xm);  // support is [xm, inf)
    s.add(x);
  }
  // Closed form (alpha > 1): mean = alpha xm / (alpha - 1);
  // Q(q) = xm (1-q)^(-1/alpha).
  EXPECT_NEAR(s.mean(), alpha * xm / (alpha - 1), 0.03);
  EXPECT_NEAR(sampleQuantile(xs, 0.95), xm * std::pow(0.05, -1.0 / alpha), 0.1);
}

TEST(Rng, SplitStreamsIndependentAndDeterministic) {
  mu::Rng a(42);
  mu::Rng c1 = a.split();
  mu::Rng a2(42);
  mu::Rng c2 = a2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c1.next(), c2.next());
}

TEST(NpbRandom, MatchesKnownFirstValueProperties) {
  // The NPB generator with the standard seed produces values in (0,1) and is
  // exactly reproducible.
  mu::NpbRandom r;
  double first = r.next();
  EXPECT_GT(first, 0.0);
  EXPECT_LT(first, 1.0);
  mu::NpbRandom r2;
  EXPECT_DOUBLE_EQ(r2.next(), first);
}

TEST(NpbRandom, JumpMatchesSequentialAdvance) {
  mu::NpbRandom seq;
  for (int i = 0; i < 1000; ++i) seq.next();
  mu::NpbRandom jmp;
  jmp.jump(mu::NpbRandom::kDefaultSeed, 1000);
  EXPECT_DOUBLE_EQ(jmp.state(), seq.state());
  EXPECT_DOUBLE_EQ(jmp.next(), seq.next());
}

TEST(NpbRandom, JumpZeroIsSeed) {
  mu::NpbRandom r;
  r.jump(mu::NpbRandom::kDefaultSeed, 0);
  EXPECT_DOUBLE_EQ(r.state(), mu::NpbRandom::kDefaultSeed);
}

// ------------------------------------------------------------------ stats --

TEST(Stats, RunningStatsBasics) {
  mu::RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, RunningStatsEmpty) {
  mu::RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, HistogramBinsAndClamping) {
  mu::Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(100.0);  // clamped to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.count(0), 2);
  EXPECT_EQ(h.count(9), 2);
  EXPECT_EQ(h.count(5), 1);
  EXPECT_EQ(h.total(), 5);
  EXPECT_DOUBLE_EQ(h.frequency(5), 0.2);
  EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
}

TEST(Stats, HistogramInvalidArgsThrow) {
  EXPECT_THROW(mu::Histogram(1.0, 0.0, 10), mg::UsageError);
  EXPECT_THROW(mu::Histogram(0.0, 1.0, 0), mg::UsageError);
}

TEST(Stats, HistogramDegenerateRangeIsLegal) {
  // lo == hi happens naturally when every observation is identical (e.g. a
  // profiler bucket whose spans all have the same duration).
  mu::Histogram h(5.0, 5.0, 8);
  h.add(5.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 2);
  EXPECT_EQ(h.count(0), 2);
  EXPECT_DOUBLE_EQ(h.binCenter(0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 5.0);
}

TEST(Stats, HistogramCountAndSum) {
  mu::Histogram h(0.0, 10.0, 10);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.add(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
}

TEST(Stats, HistogramMergeAddsCountsSumAndTotal) {
  mu::Histogram a(0.0, 10.0, 10);
  mu::Histogram b(0.0, 10.0, 10);
  for (double v : {0.5, 5.0, 9.5}) a.add(v);
  for (double v : {0.5, 2.5, 100.0}) b.add(v);  // 100 clamps to the top bin
  a.merge(b);
  EXPECT_EQ(a.total(), 6);
  EXPECT_EQ(a.count(0), 2);
  EXPECT_EQ(a.count(2), 1);
  EXPECT_EQ(a.count(5), 1);
  EXPECT_EQ(a.count(9), 2);
  EXPECT_DOUBLE_EQ(a.sum(), 0.5 + 5.0 + 9.5 + 0.5 + 2.5 + 100.0);
  // b is untouched.
  EXPECT_EQ(b.total(), 3);
}

TEST(Stats, HistogramMergeEqualsInterleavedAdds) {
  // merge(a, b) must be exactly add-order-independent: the merged histogram
  // matches one that saw every sample directly.
  mu::Histogram a(0.0, 1.0, 16);
  mu::Histogram b(0.0, 1.0, 16);
  mu::Histogram direct(0.0, 1.0, 16);
  for (int i = 0; i < 100; ++i) {
    const double v = (i * 37 % 101) / 101.0;
    ((i % 2 == 0) ? a : b).add(v);
    direct.add(v);
  }
  a.merge(b);
  ASSERT_EQ(a.total(), direct.total());
  for (int bin = 0; bin < 16; ++bin) EXPECT_EQ(a.count(bin), direct.count(bin));
  EXPECT_DOUBLE_EQ(a.quantile(0.5), direct.quantile(0.5));
}

TEST(Stats, HistogramMergeMismatchedShapeThrows) {
  mu::Histogram a(0.0, 10.0, 10);
  EXPECT_THROW(a.merge(mu::Histogram(0.0, 10.0, 20)), mg::UsageError);
  EXPECT_THROW(a.merge(mu::Histogram(0.0, 5.0, 10)), mg::UsageError);
  EXPECT_THROW(a.merge(mu::Histogram(1.0, 10.0, 10)), mg::UsageError);
  // Identical shape still merges after the failed attempts.
  mu::Histogram ok(0.0, 10.0, 10);
  ok.add(3.0);
  a.merge(ok);
  EXPECT_EQ(a.total(), 1);
}

TEST(Stats, HistogramQuantile) {
  // 1000 uniform samples over [0, 100): quantiles should land within one
  // bin width (1.0) of the exact answer.
  mu::Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 1000; ++i) h.add((i % 100) + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  // Extremes pin to the edges of the populated range.
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.0);
  EXPECT_THROW(h.quantile(-0.1), mg::UsageError);
  EXPECT_THROW(h.quantile(1.1), mg::UsageError);
}

TEST(Stats, HistogramQuantileEmpty) {
  mu::Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // lo() for an empty histogram
}

TEST(Stats, SampleTraceZeroOrderHold) {
  mu::Trace t{{0.0, 1.0}, {1.0, 2.0}, {2.0, 3.0}};
  EXPECT_DOUBLE_EQ(mu::sampleTrace(t, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(mu::sampleTrace(t, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(mu::sampleTrace(t, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(mu::sampleTrace(t, 1.99), 2.0);
  EXPECT_DOUBLE_EQ(mu::sampleTrace(t, 10.0), 3.0);
}

TEST(Stats, RmsSkewZeroForIdenticalTraces) {
  mu::Trace t;
  for (int i = 0; i <= 20; ++i) t.push_back({i * 0.5, std::sin(i * 0.3)});
  EXPECT_NEAR(mu::rmsPercentSkew(t, t), 0.0, 1e-9);
}

TEST(Stats, RmsSkewDetectsOffset) {
  mu::Trace a, b;
  for (int i = 0; i <= 100; ++i) {
    a.push_back({i * 1.0, 10.0 + (i % 5)});
    b.push_back({i * 1.0, 10.4 + (i % 5)});  // constant +0.4 on range 4
  }
  double skew = mu::rmsPercentSkew(a, b);
  EXPECT_NEAR(skew, 10.0, 0.5);  // 0.4/4.0 = 10% of range
}

TEST(Stats, RmsSkewTimeDilationInvariant) {
  // The metric normalizes both traces to their own duration, so a uniformly
  // slowed run with identical shape has ~zero skew — exactly the property
  // the paper's Fig 17 comparison relies on (1s vs 25s sampling).
  mu::Trace a, b;
  for (int i = 0; i <= 100; ++i) {
    double v = (i * 7) % 13;
    a.push_back({i * 1.0, v});
    b.push_back({i * 25.0, v});
  }
  EXPECT_NEAR(mu::rmsPercentSkew(a, b), 0.0, 1e-9);
}

TEST(Stats, PercentError) {
  EXPECT_DOUBLE_EQ(mu::percentError(100.0, 104.0), 4.0);
  EXPECT_DOUBLE_EQ(mu::percentError(100.0, 97.0), -3.0);
  EXPECT_DOUBLE_EQ(mu::percentError(0.0, 0.0), 0.0);
}

TEST(Stats, RmsSkewSingleSampleTraces) {
  // A one-point trace has zero duration and zero value range; the metric
  // falls back to |value| for normalization instead of dividing by zero.
  mu::Trace one{{0.0, 10.0}};
  EXPECT_NEAR(mu::rmsPercentSkew(one, one), 0.0, 1e-12);
  mu::Trace other{{5.0, 12.0}};
  EXPECT_NEAR(mu::rmsPercentSkew(one, other), 20.0, 1e-9);  // 2/10 of |ref|
  // All-zero single sample normalizes by 1.0.
  mu::Trace zero{{0.0, 0.0}};
  EXPECT_NEAR(mu::rmsPercentSkew(zero, other), 1200.0, 1e-9);
}

TEST(Stats, RmsSkewRejectsNonPositiveSampleCounts) {
  // samples < 1 would be sqrt(0/0) = NaN, and NaN compares false against
  // any "skew > bound" gate; the metric refuses instead.
  mu::Trace a{{0.0, 1.0}, {1.0, 2.0}};
  EXPECT_THROW(mu::rmsPercentSkew(a, a, 0), mg::UsageError);
  EXPECT_THROW(mu::rmsPercentSkew(a, a, -1), mg::UsageError);
  EXPECT_NEAR(mu::rmsPercentSkew(a, a, 1), 0.0, 1e-12);
  EXPECT_THROW(mu::rmsPercentSkew({}, a), mg::UsageError);
}

TEST(Stats, HistogramClampsAtExactBounds) {
  mu::Histogram h(0.0, 10.0, 10);
  h.add(0.0);   // exactly lo: first bin
  h.add(10.0);  // exactly hi: would be bin 10, clamped into the last bin
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(9), 1);
  EXPECT_EQ(h.total(), 2);
}

TEST(Stats, RunningStatsVarianceNeedsTwoSamples) {
  mu::RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // n-1 denominator undefined at n=1
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(44.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
}

// ----------------------------------------------------------------- config --

TEST(Config, ParsesTypedSections) {
  auto cfg = mu::Config::parse(R"(
# virtual grid
[host vm0]
ip = 1.11.11.1
cpu = 533MHz      ; like the Alpha cluster
memory = 1GB

[link lan0]
bandwidth = 100Mbps
latency = 0.1ms
)");
  ASSERT_EQ(cfg.sections().size(), 2u);
  const auto& host = cfg.section("host", "vm0");
  EXPECT_EQ(host.getString("ip"), "1.11.11.1");
  EXPECT_DOUBLE_EQ(host.getComputeRate("cpu"), 533e6);
  EXPECT_EQ(host.getSize("memory"), 1024ll * 1024 * 1024);
  const auto& link = cfg.section("link", "lan0");
  EXPECT_DOUBLE_EQ(link.getBandwidth("bandwidth"), 100e6);
  EXPECT_DOUBLE_EQ(link.getTime("latency"), 0.1e-3);
}

TEST(Config, NonFiniteValuesNameTheKey) {
  auto cfg = mu::Config::parse("[link eth0]\nbandwidth = nanMbps\nfactor = nan\nrate = inf\n");
  const auto& s = cfg.section("link", "eth0");
  EXPECT_THROW(s.getDouble("factor"), mg::ConfigError);
  EXPECT_THROW(s.getDouble("rate", 1.0), mg::ConfigError);
  try {
    s.getBandwidth("bandwidth");
    FAIL() << "nanMbps was accepted";
  } catch (const mg::ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "parse error: key 'bandwidth' in section [link eth0]: non-finite value in "
              "bandwidth 'nanMbps'");
  }
}

TEST(Config, KeysAreCaseInsensitive) {
  auto cfg = mu::Config::parse("[host h]\nCPU = 10\n");
  EXPECT_EQ(cfg.section("host", "h").getInt("cpu"), 10);
}

TEST(Config, OptionalAccessorsFallBack) {
  auto cfg = mu::Config::parse("[host h]\na = 1\n");
  const auto& s = cfg.section("host", "h");
  EXPECT_EQ(s.getInt("a", 9), 1);
  EXPECT_EQ(s.getInt("zz", 9), 9);
  EXPECT_EQ(s.getString("zz", "d"), "d");
  EXPECT_TRUE(s.getBool("zz", true));
}

TEST(Config, DuplicateKeyThrows) {
  EXPECT_THROW(mu::Config::parse("[a x]\nk=1\nk=2\n"), mg::ConfigError);
}

TEST(Config, DuplicateNamedSectionThrows) {
  EXPECT_THROW(mu::Config::parse("[a x]\nk=1\n[a x]\nj=2\n"), mg::ConfigError);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(mu::Config::parse("[unterminated\n"), mg::ParseError);
  EXPECT_THROW(mu::Config::parse("key = before any section\n"), mg::ParseError);
  EXPECT_THROW(mu::Config::parse("[a x]\nno equals sign\n"), mg::ParseError);
  EXPECT_THROW(mu::Config::parse("[a x]\n= novalue\n"), mg::ParseError);
}

TEST(Config, MissingKeyAndBadTypesThrow) {
  auto cfg = mu::Config::parse("[h x]\nn = notanumber\n");
  const auto& s = cfg.section("h", "x");
  EXPECT_THROW(s.getString("absent"), mg::ConfigError);
  EXPECT_THROW(s.getDouble("n"), mg::ConfigError);
  EXPECT_THROW(s.getInt("n"), mg::ConfigError);
  EXPECT_THROW(s.getBool("n"), mg::ConfigError);
  auto junk = mu::Config::parse("[h x]\nn = 5abc\nd = 1.5s\n");
  EXPECT_THROW(junk.section("h", "x").getInt("n"), mg::ConfigError);
  EXPECT_THROW(junk.section("h", "x").getDouble("d"), mg::ConfigError);
}

TEST(Config, SectionsOfTypePreservesOrder) {
  auto cfg = mu::Config::parse("[host a]\nx=1\n[link l]\nx=1\n[host b]\nx=2\n");
  auto hosts = cfg.sectionsOfType("host");
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0]->name(), "a");
  EXPECT_EQ(hosts[1]->name(), "b");
}

TEST(Config, BoolParsing) {
  auto cfg = mu::Config::parse("[a x]\nt1=yes\nt2=TRUE\nt3=1\nf1=no\nf2=off\n");
  const auto& s = cfg.section("a", "x");
  EXPECT_TRUE(s.getBool("t1"));
  EXPECT_TRUE(s.getBool("t2"));
  EXPECT_TRUE(s.getBool("t3"));
  EXPECT_FALSE(s.getBool("f1"));
  EXPECT_FALSE(s.getBool("f2"));
}

// ------------------------------------------------------------------ table --

TEST(Table, RenderAlignsColumns) {
  mu::Table t({"name", "time"});
  t.row() << "EP" << 12.5;
  t.row() << "BT" << 3;
  std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("12.5"), std::string::npos);
  EXPECT_NE(out.find("EP"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvOutput) {
  mu::Table t({"a", "b"});
  t.row() << "x,y" << 1;
  std::string csv = t.renderCsv();
  EXPECT_EQ(csv, "a,b\n\"x,y\",1\n");
}

TEST(Table, ArityMismatchThrows) {
  mu::Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only one"}), mg::UsageError);
}
