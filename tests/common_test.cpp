// Tests for src/common: rng, stats, parallel, csv, env.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <set>

#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace safelight {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, GaussianZeroStddevIsMean) {
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.gaussian(5.0, 0.0), 5.0);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  const auto picks = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng rng(13);
  auto perm = rng.permutation(50);
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(perm[i], i);
}

TEST(Rng, SampleRejectsOverdraw) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(77);
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(1);  // second fork advances parent state
  EXPECT_NE(childA.uniform(), childB.uniform());
}

TEST(Rng, SeedCombineMixes) {
  EXPECT_NE(seed_combine(1, 2, 3), seed_combine(1, 3, 2));
  EXPECT_NE(seed_combine(1, 2), seed_combine(2, 1));
  EXPECT_EQ(seed_combine(9, 8, 7), seed_combine(9, 8, 7));
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(3.0, 2.0), std::invalid_argument);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean_of(v), 5.0);
  EXPECT_NEAR(stddev_of(v), 2.138, 1e-3);
}

TEST(Stats, StddevOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(stddev_of({3.0}), 0.0);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_NEAR(quantile(v, 0.25), 1.75, 1e-12);
}

TEST(Stats, BoxStatsFiveNumberSummary) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  const BoxStats s = box_stats(v);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.iqr(), 2.0);
}

TEST(Stats, BoxStatsConstantInput) {
  const BoxStats s = box_stats({2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW(mean_of({}), std::invalid_argument);
  EXPECT_THROW(box_stats({}), std::invalid_argument);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, QuantileRejectsBadQ) {
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(Stats, ToStringMentionsAllFields) {
  const std::string s = box_stats({1.0, 2.0, 3.0}).to_string();
  EXPECT_NE(s.find("min="), std::string::npos);
  EXPECT_NE(s.find("med="), std::string::npos);
  EXPECT_NE(s.find("n=3"), std::string::npos);
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ChunksPartitionRange) {
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(10, 110, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(lo, hi);
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 50) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, NestedCallsDegradeSerially) {
  // A nested parallel_for inside a worker must not deadlock or misbehave.
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 10, [&](std::size_t) { count++; }, 1);
  });
  EXPECT_EQ(count.load(), 40);
}

TEST(Parallel, WorkerCountPositive) { EXPECT_GE(worker_count(), 1u); }

TEST(Parallel, SerialBelowTwoGrains) {
  // Documented contract: a range shorter than min_grain * 2 runs serially,
  // i.e. fn is invoked exactly once with the whole range — independent of
  // how many workers the host grants.
  const std::size_t grain = 8;
  std::atomic<int> calls{0};
  parallel_for_chunks(
      0, 2 * grain - 1,
      [&](std::size_t lo, std::size_t hi) {
        calls++;
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 2 * grain - 1);
      },
      grain);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Parallel, ParallelChunksRespectMinGrain) {
  // At or above two grains the split may fan out, but every chunk except
  // possibly the tail must span at least min_grain indices. A total that
  // divides by nothing relevant exercises the tail-chunk case.
  const std::size_t grain = 8;
  const std::size_t end = 10 * grain + 3;
  std::atomic<std::size_t> covered{0};
  parallel_for_chunks(
      0, end,
      [&](std::size_t lo, std::size_t hi) {
        if (hi != end) {
          EXPECT_GE(hi - lo, grain);
        }
        covered += hi - lo;
      },
      grain);
  EXPECT_EQ(covered.load(), end);
}

// ---------------------------------------------------------------- csv

TEST(Csv, RoundTrip) {
  const std::string path = "/tmp/safelight_csv_test.csv";
  {
    CsvWriter writer(path, {"a", "b"});
    writer.row({"1", "x"});
    writer.row_values({2.5, 3.25});
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.header.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][1], "x");
  EXPECT_DOUBLE_EQ(std::stod(table.rows[1][0]), 2.5);
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileGivesEmptyTable) {
  const CsvTable table = read_csv("/tmp/safelight_does_not_exist_12345.csv");
  EXPECT_TRUE(table.header.empty());
  EXPECT_TRUE(table.rows.empty());
}

TEST(Csv, RaggedRowThrows) {
  const std::string path = "/tmp/safelight_csv_bad.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2,3\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Csv, QuotedFieldWithComma) {
  const std::string path = "/tmp/safelight_csv_quoted.csv";
  {
    std::ofstream out(path);
    out << "a,b\n\"x,y\",2\n";
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "x,y");
  std::filesystem::remove(path);
}

TEST(Csv, FmtDoublePrecision) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 4), "2.0000");
}

// ---------------------------------------------------------------- error

TEST(Error, RequireThrowsWithPrefix) {
  try {
    require(false, "something bad");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("something bad"),
              std::string::npos);
  }
}

TEST(Error, AssertMacroThrowsLogicError) {
  EXPECT_THROW(SAFELIGHT_ASSERT(false, "invariant"), std::logic_error);
  EXPECT_NO_THROW(SAFELIGHT_ASSERT(true, "fine"));
}

// ---------------------------------------------------------------- config

/// RAII env-var pin (process-wide; safe because gtest runs cases of one
/// binary serially).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) previous_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

TEST(Config, ScalePrecedenceCliOverEnvOverDefault) {
  ScopedEnv env("SAFELIGHT_SCALE", "tiny");
  EXPECT_EQ(config::scale(), Scale::kTiny);  // env beats default
  {
    config::Overrides cli;
    cli.scale = Scale::kFull;
    config::ScopedOverrides guard(cli);
    EXPECT_EQ(config::scale(), Scale::kFull);  // CLI beats env
  }
  EXPECT_EQ(config::scale(), Scale::kTiny);  // guard restored
}

TEST(Config, ScaleDefaultsWhenUnset) {
  ::unsetenv("SAFELIGHT_SCALE");
  EXPECT_EQ(config::scale(), Scale::kDefault);
  // An empty value counts as unset, like every string knob.
  ScopedEnv empty("SAFELIGHT_SCALE", "");
  EXPECT_EQ(config::scale(), Scale::kDefault);
}

TEST(Config, ScaleNames) {
  EXPECT_EQ(to_string(Scale::kTiny), "tiny");
  EXPECT_EQ(to_string(Scale::kDefault), "default");
  EXPECT_EQ(to_string(Scale::kFull), "full");
  for (Scale scale : {Scale::kTiny, Scale::kDefault, Scale::kFull}) {
    EXPECT_EQ(config::parse_scale(to_string(scale)), scale);
  }
}

TEST(Config, ScaleRejectsUnknownValueLoudly) {
  ScopedEnv env("SAFELIGHT_SCALE", "banana");
  EXPECT_THROW(config::scale(), std::invalid_argument);
  EXPECT_THROW(config::parse_scale("huge"), std::invalid_argument);
  try {
    config::parse_scale("huge");
  } catch (const std::invalid_argument& e) {
    // Actionable: names the valid values.
    EXPECT_NE(std::string(e.what()).find("tiny"), std::string::npos);
  }
}

TEST(Config, SeedCountPrecedenceAndValidation) {
  {
    ScopedEnv env("SAFELIGHT_SEEDS", "7");
    EXPECT_EQ(config::seed_count(3), 7u);  // env beats fallback
    config::Overrides cli;
    cli.seed_count = 5;
    config::ScopedOverrides guard(cli);
    EXPECT_EQ(config::seed_count(3), 5u);  // CLI beats env
  }
  ::unsetenv("SAFELIGHT_SEEDS");
  EXPECT_EQ(config::seed_count(3), 3u);  // per-experiment fallback
  {
    ScopedEnv zero("SAFELIGHT_SEEDS", "0");
    EXPECT_THROW(config::seed_count(3), std::invalid_argument);  // no clamp
  }
  // Non-numeric values fail loudly too, never a silent fall-back to the
  // default.
  ScopedEnv junk("SAFELIGHT_SEEDS", "ten");
  EXPECT_THROW(config::seed_count(3), std::invalid_argument);
  ScopedEnv partial("SAFELIGHT_SEEDS", "3x10");
  EXPECT_THROW(config::seed_count(3), std::invalid_argument);
}

TEST(Config, DirectoryKnobsFollowPrecedence) {
  ScopedEnv env("SAFELIGHT_ZOO", "/tmp/safelight_test_cfg_env_zoo");
  EXPECT_EQ(config::zoo_dir(), "/tmp/safelight_test_cfg_env_zoo");
  config::Overrides cli;
  cli.zoo_dir = "/tmp/safelight_test_cfg_cli_zoo";
  cli.out_dir = "/tmp/safelight_test_cfg_cli_out";
  config::ScopedOverrides guard(cli);
  EXPECT_EQ(config::zoo_dir(), "/tmp/safelight_test_cfg_cli_zoo");
  EXPECT_EQ(config::out_dir(), "/tmp/safelight_test_cfg_cli_out");
  EXPECT_TRUE(std::filesystem::exists("/tmp/safelight_test_cfg_cli_out"));
  std::filesystem::remove_all("/tmp/safelight_test_cfg_cli_out");
}

TEST(Config, ThreadsAlwaysAtLeastOne) {
  ::unsetenv("SAFELIGHT_THREADS");
  EXPECT_GE(config::threads(), 1u);
  config::Overrides cli;
  cli.threads = 3;
  config::ScopedOverrides guard(cli);
  EXPECT_EQ(config::threads(), 3u);
}

TEST(Config, ThreadsRejectsBogusEnvValues) {
  {
    ScopedEnv junk("SAFELIGHT_THREADS", "abc");
    EXPECT_THROW(config::threads(), std::invalid_argument);
  }
  ScopedEnv negative("SAFELIGHT_THREADS", "-2");
  EXPECT_THROW(config::threads(), std::invalid_argument);
}

TEST(Config, FaultKnobsFollowPrecedence) {
  ::unsetenv("SAFELIGHT_FAULT_MODE");
  ::unsetenv("SAFELIGHT_FAULT_POINT");
  ::unsetenv("SAFELIGHT_FAULT_N");
  EXPECT_EQ(config::fault_mode(), "none");
  EXPECT_EQ(config::fault_point(), "");
  EXPECT_EQ(config::fault_n(), 1u);
  EXPECT_DOUBLE_EQ(config::fault_prob(), 0.0);
  EXPECT_EQ(config::fault_seed(), 1u);

  ScopedEnv mode("SAFELIGHT_FAULT_MODE", "run_length");
  ScopedEnv point("SAFELIGHT_FAULT_POINT", "store.csv.append");
  ScopedEnv n("SAFELIGHT_FAULT_N", "3");
  ScopedEnv prob("SAFELIGHT_FAULT_PROB", "0.25");
  ScopedEnv seed("SAFELIGHT_FAULT_SEED", "9");
  EXPECT_EQ(config::fault_mode(), "run_length");  // env beats default
  EXPECT_EQ(config::fault_point(), "store.csv.append");
  EXPECT_EQ(config::fault_n(), 3u);
  EXPECT_DOUBLE_EQ(config::fault_prob(), 0.25);
  EXPECT_EQ(config::fault_seed(), 9u);

  config::Overrides cli;
  cli.fault_mode = "uniform";
  cli.fault_point = "out.csv.row";
  cli.fault_n = 5;
  config::ScopedOverrides guard(cli);
  EXPECT_EQ(config::fault_mode(), "uniform");  // CLI beats env
  EXPECT_EQ(config::fault_point(), "out.csv.row");
  EXPECT_EQ(config::fault_n(), 5u);
}

TEST(Config, FaultKnobsRejectBogusEnvValues) {
  {
    ScopedEnv zero("SAFELIGHT_FAULT_N", "0");
    EXPECT_THROW(config::fault_n(), std::invalid_argument);
  }
  {
    ScopedEnv junk("SAFELIGHT_FAULT_N", "three");
    EXPECT_THROW(config::fault_n(), std::invalid_argument);
  }
  ScopedEnv junk_prob("SAFELIGHT_FAULT_PROB", "0.5x");
  EXPECT_THROW(config::fault_prob(), std::invalid_argument);
}

TEST(Config, StrictEnvIntContract) {
  ::unsetenv("SAFELIGHT_TEST_STRICT");
  EXPECT_FALSE(config::strict_env_int("SAFELIGHT_TEST_STRICT").has_value());
  {
    ScopedEnv valid("SAFELIGHT_TEST_STRICT", "-12");
    EXPECT_EQ(config::strict_env_int("SAFELIGHT_TEST_STRICT"), -12);
  }
  {
    ScopedEnv junk("SAFELIGHT_TEST_STRICT", "twelve");
    EXPECT_THROW(config::strict_env_int("SAFELIGHT_TEST_STRICT"),
                 std::invalid_argument);
  }
  // Trailing garbage is rejected — "3x10" must not quietly parse as 3.
  ScopedEnv partial("SAFELIGHT_TEST_STRICT", "3x10");
  try {
    config::strict_env_int("SAFELIGHT_TEST_STRICT");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    // The error names the variable so the user knows what to fix.
    EXPECT_NE(std::string(e.what()).find("SAFELIGHT_TEST_STRICT"),
              std::string::npos);
  }
}

TEST(Config, StrictEnvDoubleContract) {
  ::unsetenv("SAFELIGHT_TEST_STRICT");
  EXPECT_FALSE(config::strict_env_double("SAFELIGHT_TEST_STRICT").has_value());
  {
    ScopedEnv valid("SAFELIGHT_TEST_STRICT", "2.5e-1");
    EXPECT_DOUBLE_EQ(*config::strict_env_double("SAFELIGHT_TEST_STRICT"),
                     0.25);
  }
  {
    ScopedEnv junk("SAFELIGHT_TEST_STRICT", "abc");
    EXPECT_THROW(config::strict_env_double("SAFELIGHT_TEST_STRICT"),
                 std::invalid_argument);
  }
  ScopedEnv partial("SAFELIGHT_TEST_STRICT", "0.5seconds");
  try {
    config::strict_env_double("SAFELIGHT_TEST_STRICT");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SAFELIGHT_TEST_STRICT"),
              std::string::npos);
  }
}

TEST(Config, HeartbeatTimeoutValidatedThroughStrictHelper) {
  ::unsetenv("SAFELIGHT_HEARTBEAT_TIMEOUT");
  EXPECT_DOUBLE_EQ(config::heartbeat_timeout_s(), 10.0);
  {
    ScopedEnv env("SAFELIGHT_HEARTBEAT_TIMEOUT", "2.5");
    EXPECT_DOUBLE_EQ(config::heartbeat_timeout_s(), 2.5);
  }
  {
    ScopedEnv junk("SAFELIGHT_HEARTBEAT_TIMEOUT", "soon");
    EXPECT_THROW(config::heartbeat_timeout_s(), std::invalid_argument);
  }
  ScopedEnv zero("SAFELIGHT_HEARTBEAT_TIMEOUT", "0");
  EXPECT_THROW(config::heartbeat_timeout_s(), std::invalid_argument);
}

TEST(Config, BackendFollowsPrecedence) {
  ::unsetenv("SAFELIGHT_BACKEND");
  EXPECT_EQ(config::backend(), "auto");
  ScopedEnv env("SAFELIGHT_BACKEND", "scalar");
  EXPECT_EQ(config::backend(), "scalar");  // env beats default
  config::Overrides cli;
  cli.backend = "avx2";
  config::ScopedOverrides guard(cli);
  EXPECT_EQ(config::backend(), "avx2");  // CLI beats env
}

// ---------------------------------------------------------------- fault

TEST(Fault, DisarmedPtpIsANoop) {
  fault::reset();
  EXPECT_FALSE(fault::armed());
  fault::ptp("never.recorded");  // must neither crash nor count
  EXPECT_TRUE(fault::counters().empty());
}

TEST(Fault, CountingModeCountsEveryPointRegardlessOfFilter) {
  // independent with probability 0 arms pure counting: nothing fires, and
  // the counters enumerate every live point even though the match filter
  // names only one of them.
  fault::FaultConfig config;
  config.mode = fault::Mode::kIndependent;
  config.independent_prob = 0.0;
  config.point = "only.this";
  fault::ScopedFault scoped(config);
  ASSERT_TRUE(fault::armed());

  fault::ptp("only.this");
  fault::ptp("other.point");
  fault::ptp("other.point");

  const auto counters = fault::counters();
  ASSERT_EQ(counters.size(), 2u);  // sorted by name
  EXPECT_EQ(counters[0].point, "only.this");
  EXPECT_EQ(counters[0].hits, 1u);
  EXPECT_EQ(counters[1].point, "other.point");
  EXPECT_EQ(counters[1].hits, 2u);

  const std::string report = fault::report();
  EXPECT_NE(report.find("mode=independent"), std::string::npos);
  EXPECT_NE(report.find("point=only.this"), std::string::npos);
  EXPECT_NE(report.find("matched_hits=1"), std::string::npos);  // filtered
  EXPECT_NE(report.find("[fault]   only.this hits=1"), std::string::npos);
  EXPECT_NE(report.find("[fault]   other.point hits=2"), std::string::npos);
}

TEST(Fault, ScopedFaultDisarmsAndClearsOnExit) {
  {
    fault::FaultConfig config;
    config.mode = fault::Mode::kIndependent;
    fault::ScopedFault scoped(config);
    fault::ptp("scoped.point");
    EXPECT_EQ(fault::counters().size(), 1u);
  }
  EXPECT_FALSE(fault::armed());
  EXPECT_TRUE(fault::counters().empty());
}

TEST(Fault, InitRejectsOutOfRangeConfigs) {
  fault::FaultConfig bad_prob;
  bad_prob.mode = fault::Mode::kIndependent;
  bad_prob.independent_prob = 1.5;
  EXPECT_THROW(fault::init(bad_prob), std::invalid_argument);
  bad_prob.independent_prob = -0.1;
  EXPECT_THROW(fault::init(bad_prob), std::invalid_argument);

  fault::FaultConfig bad_run;
  bad_run.mode = fault::Mode::kRunLength;
  bad_run.run_length = 0;
  EXPECT_THROW(fault::init(bad_run), std::invalid_argument);
  bad_run.mode = fault::Mode::kUniformOverRun;
  EXPECT_THROW(fault::init(bad_run), std::invalid_argument);
  EXPECT_FALSE(fault::armed());  // a rejected init never arms
}

TEST(Fault, ParseModeNamesRoundTripAndRejectTypos) {
  EXPECT_EQ(fault::parse_mode("none"), fault::Mode::kNone);
  EXPECT_EQ(fault::parse_mode("independent"), fault::Mode::kIndependent);
  EXPECT_EQ(fault::parse_mode("run_length"), fault::Mode::kRunLength);
  EXPECT_EQ(fault::parse_mode("uniform"), fault::Mode::kUniformOverRun);
  for (const fault::Mode mode :
       {fault::Mode::kNone, fault::Mode::kIndependent, fault::Mode::kRunLength,
        fault::Mode::kUniformOverRun}) {
    EXPECT_EQ(fault::parse_mode(fault::to_string(mode)), mode);
  }
  try {
    fault::parse_mode("sometimes");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_length"), std::string::npos);
  }
}

TEST(FaultDeathTest, RunLengthPullsThePlugOnExactlyTheNthMatchedHit) {
  // The plug is an abrupt std::_Exit(42): assert via a death test that the
  // first matched hit survives and the second one kills the process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        fault::FaultConfig config;
        config.mode = fault::Mode::kRunLength;
        config.point = "unit.point";
        config.run_length = 2;
        fault::init(config);
        fault::ptp("ignored.point");  // filtered out: never matches
        fault::ptp("unit.point");     // matched hit 1: survives
        fault::ptp("unit.point");     // matched hit 2: plug pulled
        std::_Exit(0);                // not reached
      },
      ::testing::ExitedWithCode(fault::kPlugPulledExitCode),
      "pulling the plug at 'unit.point'");
}

// ---------------------------------------------------------------- json

TEST(Json, RendersNestedDocumentDeterministically) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("safelight");
  json.key("count").value(2);
  json.key("accuracy").value(0.51234567, 4);
  json.key("flag").value(true);
  json.key("missing").null_value();
  json.key("rows").begin_array();
  json.begin_object();
  json.key("id").value(std::uint64_t{7});
  json.end_object();
  json.end_array();
  json.key("empty").begin_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(std::move(json).str(),
            "{\n"
            "  \"name\": \"safelight\",\n"
            "  \"count\": 2,\n"
            "  \"accuracy\": 0.5123,\n"
            "  \"flag\": true,\n"
            "  \"missing\": null,\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"id\": 7\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": []\n"
            "}\n");
}

TEST(Json, EscapesSpecialCharacters) {
  JsonWriter json;
  json.begin_object();
  json.key("text").value(std::string("a\"b\\c\nd\te") + '\x01');
  json.end_object();
  EXPECT_NE(std::move(json).str().find("a\\\"b\\\\c\\nd\\te\\u0001"),
            std::string::npos);
}

TEST(Json, CompactModeEmitsSingleLineDocuments) {
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("type").value("task");
  json.key("id").value(std::uint64_t{3});
  json.key("scenarios").begin_array();
  json.value("hotspot/CONV+FC/f0.05/s1003");
  json.end_array();
  json.end_object();
  // One line + trailing '\n': exactly the NDJSON framing the distributed
  // protocol writes onto its pipes.
  EXPECT_EQ(std::move(json).str(),
            "{\"type\":\"task\",\"id\":3,"
            "\"scenarios\":[\"hotspot/CONV+FC/f0.05/s1003\"]}\n");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("name").value("a\"b\\c\nd");
  json.key("count").value(std::int64_t{-2});
  json.key("ratio").value(0.25, 6);
  json.key("on").value(true);
  json.key("off").value(false);
  json.key("gap").null_value();
  json.key("list").begin_array().value(std::uint64_t{1}).value(
      std::uint64_t{2});
  json.end_array();
  json.end_object();
  const JsonValue doc = JsonValue::parse(std::move(json).str());
  EXPECT_EQ(doc.at("name").as_string(), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(doc.at("count").as_number(), -2.0);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.25);
  EXPECT_TRUE(doc.at("on").as_bool());
  EXPECT_FALSE(doc.at("off").as_bool());
  EXPECT_EQ(doc.at("gap").type(), JsonValue::Type::kNull);
  ASSERT_EQ(doc.at("list").as_array().size(), 2u);
  EXPECT_EQ(doc.at("list").as_array()[1].as_uint(), 2u);
  EXPECT_TRUE(doc.has("name"));
  EXPECT_FALSE(doc.has("absent"));
}

TEST(Json, ParserRejectsMalformedDocumentsWithByteOffset) {
  const char* bad[] = {
      "",                       // empty
      "{",                      // truncated object
      "{\"a\":1,}",             // trailing comma
      "{\"a\":1}{",             // trailing garbage
      "{\"a\":1,\"a\":2}",      // duplicate key
      "[1 2]",                  // missing comma
      "\"unterminated",         // unterminated string
      "{\"a\":truf}",           // bad literal
      "nul",                    // bad literal
      "{\"a\":\"\\x\"}",        // bad escape
      "\"\\u12g4\"",            // bad \u digit
      "{\"k\":01e}",            // trailing junk after number
      "{1:2}",                  // non-string key
  };
  for (const char* text : bad) {
    EXPECT_THROW(JsonValue::parse(text), std::invalid_argument) << text;
  }
  try {
    JsonValue::parse("{\"a\":1,}");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(Json, ParserAccessorsRejectTypeMismatches) {
  const JsonValue doc = JsonValue::parse("{\"n\":1.5,\"neg\":-1}");
  EXPECT_THROW(doc.at("n").as_string(), std::invalid_argument);
  EXPECT_THROW(doc.at("n").as_bool(), std::invalid_argument);
  EXPECT_THROW(doc.at("n").as_array(), std::invalid_argument);
  EXPECT_THROW(doc.at("n").as_uint(), std::invalid_argument);   // 1.5
  EXPECT_THROW(doc.at("neg").as_uint(), std::invalid_argument); // negative
  EXPECT_THROW(doc.at("missing"), std::invalid_argument);
  EXPECT_THROW(doc.at("n").at("x"), std::invalid_argument);  // not an object
}

TEST(Json, ParserDecodesUnicodeEscapes) {
  const JsonValue doc = JsonValue::parse("\"\\u0041\\u00e9\\u20ac\"");
  EXPECT_EQ(doc.as_string(), "A\xC3\xA9\xE2\x82\xAC");  // A, é, €
}

TEST(Json, StructuralMisuseThrows) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter json;
    EXPECT_THROW(json.key("k"), std::logic_error);  // key outside object
  }
  {
    JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.end_object(), std::logic_error);  // mismatched end
    EXPECT_THROW(std::move(json).str(), std::logic_error);  // still open
  }
}

}  // namespace
}  // namespace safelight
