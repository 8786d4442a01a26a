/**
 * @file
 * Statistical validation of the sampled-replay engine (ctest label:
 * sample). A wrong estimator silently produces plausible-looking
 * numbers, so these tests pin it against ground truth from three
 * directions:
 *
 *  - Coverage: over fuzzed (workload, config, plan) trials the full-run
 *    miss ratio must fall inside the reported 95% CI at close to the
 *    nominal rate — and a deliberately-broken estimator (warmup
 *    disabled) must be caught by the same check, proving the assertion
 *    is not vacuously wide.
 *  - Determinism: sampled trace replay must produce bit-identical
 *    per-unit sums, estimates and JSON export at any --jobs value and
 *    any shard count.
 *  - Acceptance: on a large generated trace (default 100M records,
 *    BSIM_SAMPLING_ACCESSES scales it), sampled replay must be at least
 *    5x faster than full replay while its CI contains the full-run miss
 *    ratio.
 *
 * Knobs:
 *   BSIM_SAMPLING_ACCESSES  acceptance-trace length (default 100M;
 *                           speedup asserted only at >= 20M)
 *   BSIM_SAMPLE_SPEEDUP     required sampled/full speedup (default 5;
 *                           0 disables the assertion)
 *
 * Sanitized/coverage builds (BSIM_SANITIZED, BSIM_COVERAGE) scale the
 * acceptance trace down and report the speedup without enforcing it:
 * instrumentation skews the skip-ahead and simulate paths differently.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "sim/trace_replay.hh"
#include "workload/spec2k.hh"
#include "workload/trace_format.hh"

namespace bsim {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 0);
}

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const double d = std::strtod(v, &end);
    return end == v ? fallback : d;
}

class SamplingTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("bsim_sampling_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

/** Stream @p n data-side records of synthetic @p workload to BST2. */
void
writeWorkloadTrace(const std::string &path, const std::string &workload,
                   std::uint64_t n, std::uint64_t seed = kDefaultSeed)
{
    SpecWorkload wl = makeSpecWorkload(workload, seed);
    Bst2Writer writer(path);
    for (std::uint64_t i = 0; i < n; ++i)
        writer.append(wl.data->next());
}

TEST(SamplePlan, ParseAndUnitArithmetic)
{
    const SamplePlan p = parseSamplePlan("1000:8000:2000");
    EXPECT_EQ(p.unitLen, 1000u);
    EXPECT_EQ(p.period, 8000u);
    EXPECT_EQ(p.warmup, 2000u);
    EXPECT_EQ(p.toString(), "1000:8000:2000");

    // Warmup defaults to 0 when omitted.
    EXPECT_EQ(parseSamplePlan("10:20").warmup, 0u);

    // Unit k starts at k*P: a final partial period still contributes a
    // (possibly truncated) unit, an empty population contributes none.
    EXPECT_EQ(p.unitsFor(0), 0u);
    EXPECT_EQ(p.unitsFor(1), 1u);
    EXPECT_EQ(p.unitsFor(8000), 1u);
    EXPECT_EQ(p.unitsFor(8001), 2u);
    EXPECT_EQ(p.unitsFor(80000), 10u);

    EXPECT_EXIT(parseSamplePlan("bogus"), ::testing::ExitedWithCode(1),
                "--sample");
    EXPECT_EXIT(parseSamplePlan("0:100"), ::testing::ExitedWithCode(1),
                "--sample");
    EXPECT_EXIT(parseSamplePlan("100:50"), ::testing::ExitedWithCode(1),
                "--sample");
}

TEST(Sampling, WarmupIsExcludedFromMeasuredStats)
{
    // The measured counters must cover exactly the in-unit records:
    // warmup primes tags behind a stats snapshot and never leaks in.
    const SamplePlan plan{1000, 5000, 2000};
    const std::uint64_t n = 20'500; // 5 units, last truncated to 500
    const MissRateResult r = runMissRateSampled(
        "gcc", StreamSide::Data, CacheConfig::directMapped(4 * 1024), n,
        plan);
    ASSERT_TRUE(r.sampled.has_value());
    ASSERT_EQ(r.sampled->units.size(), 5u);
    EXPECT_EQ(r.sampled->records, n);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(r.sampled->units[k].unit, k);
        EXPECT_EQ(r.sampled->units[k].accesses, 1000u);
    }
    EXPECT_EQ(r.sampled->units[4].accesses, 500u);
    EXPECT_EQ(r.sampled->sampledRecords(), 4500u);
    EXPECT_EQ(r.stats.accesses, 4500u);
    EXPECT_EQ(r.stats.hits + r.stats.misses, r.stats.accesses);
}

/** One fuzzed coverage trial; returns whether the CI contained truth. */
bool
trialCovers(const std::string &workload, const CacheConfig &config,
            std::uint64_t accesses, const SamplePlan &plan,
            std::uint64_t seed)
{
    const double truth =
        runMissRate(workload, StreamSide::Data, config, accesses, seed)
            .stats.missRate();
    const MissRateResult s = runMissRateSampled(
        workload, StreamSide::Data, config, accesses, plan, seed);
    return s.sampled.has_value() &&
           s.sampled->estimate().contains(truth);
}

TEST(Sampling, CiCoversTruthAtExpectedRateAndCatchesBrokenWarmup)
{
    // Fuzzed (workload, config, plan, seed) trials. The nominal rate is
    // 95%; systematic sampling on autocorrelated streams plus residual
    // cold-start bias erodes that a little, so the floor is 80% — while
    // the SAME check must reject the broken estimator (W = 0, cold
    // caches measured directly) far more often, proving the interval is
    // not just wide enough to cover anything.
    const std::vector<std::string> workloads = {"gcc", "gzip", "mcf",
                                                "ammp", "applu"};
    Rng rng(0xc0ffee);
    const int trials = 40;
    int covered = 0;
    int covered_broken = 0;
    for (int t = 0; t < trials; ++t) {
        const std::string &w =
            workloads[rng.nextBounded(workloads.size())];
        CacheConfig cfg = CacheConfig::directMapped(
            1024ull << rng.nextBounded(3)); // 1/2/4 kB
        if (rng.nextBool(0.25))
            cfg = CacheConfig::setAssoc(4 * 1024, 2);
        else if (rng.nextBool(0.25))
            cfg = CacheConfig::bcache(4 * 1024, 4, 8);
        const std::uint64_t u = 500 + rng.nextBounded(1000);
        const SamplePlan plan{u, u * (4 + rng.nextBounded(4)),
                              8000 + rng.nextBounded(4000)};
        const SamplePlan broken{plan.unitLen, plan.period, 0};
        const std::uint64_t accesses = 60'000 + rng.nextBounded(40'000);
        const std::uint64_t seed = rng.next();
        covered += trialCovers(w, cfg, accesses, plan, seed);
        covered_broken += trialCovers(w, cfg, accesses, broken, seed);
    }
    std::printf("coverage: %d/%d with warmup, %d/%d broken (W=0)\n",
                covered, trials, covered_broken, trials);
    EXPECT_GE(covered, (trials * 8) / 10);
    // Non-vacuity: disabling warmup must be visibly caught.
    EXPECT_LE(covered_broken, trials / 2);
    EXPECT_LT(covered_broken, covered);
}

TEST_F(SamplingTest, TraceSampledCiCoversFullReplayTruth)
{
    const std::string p = path("cover.bst");
    writeWorkloadTrace(p, "gcc", 200'000);
    const CacheConfig cfg = CacheConfig::directMapped(4 * 1024);
    const double truth = runTraceReplay(p, cfg).stats.missRate();
    // 100 units x 500 records: enough strata that the systematic
    // sample is representative of the whole trace, with W = 8000 well
    // past the point where warmup saturates the 4 kB cache's state.
    const MissRateResult s =
        runTraceSampled(p, cfg, SamplePlan{500, 2000, 8000});
    ASSERT_TRUE(s.sampled.has_value());
    const SampleEstimate e = s.sampled->estimate();
    EXPECT_TRUE(e.contains(truth))
        << "truth " << truth << " outside [" << e.ciLo << ", " << e.ciHi
        << "]";
    EXPECT_EQ(s.sampled->units.size(), 100u);
    EXPECT_NEAR(e.sampledFraction, 0.25, 1e-9);
}

/** Exact equality of two per-unit sum lists. */
void
expectSameUnits(const SampledStats &got, const SampledStats &want)
{
    ASSERT_EQ(got.units.size(), want.units.size());
    for (std::size_t i = 0; i < want.units.size(); ++i) {
        EXPECT_EQ(got.units[i].unit, want.units[i].unit) << i;
        EXPECT_EQ(got.units[i].accesses, want.units[i].accesses) << i;
        EXPECT_EQ(got.units[i].misses, want.units[i].misses) << i;
    }
    EXPECT_EQ(got.records, want.records);
}

TEST_F(SamplingTest, ShardAndJobCountsAreBitIdentical)
{
    const std::string p = path("det.bst");
    writeWorkloadTrace(p, "gzip", 60'000);
    const CacheConfig cfg = CacheConfig::bcache(4 * 1024, 4, 8);
    const SamplePlan plan{1000, 5000, 1500}; // 12 units

    const MissRateResult serial = runTraceSampled(p, cfg, plan);
    ASSERT_TRUE(serial.sampled.has_value());
    const SampleEstimate se = serial.sampled->estimate();

    for (const unsigned shards : {1u, 2u, 3u, 4u, 5u, 7u}) {
        SweepOptions one;
        one.jobs = 1;
        SweepOptions four;
        four.jobs = 4;
        const TraceSweepResult a =
            runTraceSampledSharded(p, cfg, plan, shards, one);
        const TraceSweepResult b =
            runTraceSampledSharded(p, cfg, plan, shards, four);
        ASSERT_TRUE(a.sampled.has_value()) << shards << " shards";
        ASSERT_TRUE(b.sampled.has_value()) << shards << " shards";

        // Concatenated unit sums reproduce the single-pass list exactly
        // whatever the shard count, and the estimate rebuilt from them
        // is the same double bit for bit.
        expectSameUnits(*a.sampled, *serial.sampled);
        expectSameUnits(*b.sampled, *serial.sampled);
        const SampleEstimate ea = a.sampled->estimate();
        EXPECT_EQ(ea.value, se.value) << shards << " shards";
        EXPECT_EQ(ea.stderrValue, se.stderrValue) << shards << " shards";
        EXPECT_EQ(ea.ciLo, se.ciLo) << shards << " shards";
        EXPECT_EQ(ea.ciHi, se.ciHi) << shards << " shards";

        // Identical JSON export at --jobs 1 vs --jobs 4.
        EXPECT_EQ(toStatsJson(a, "trace:det.bst", cfg.label),
                  toStatsJson(b, "trace:det.bst", cfg.label))
            << shards << " shards";
        EXPECT_EQ(a.total.misses, serial.stats.misses);
    }
}

TEST_F(SamplingTest, AcceptanceSpeedupAndCiOnLargeTrace)
{
#if defined(BSIM_SANITIZED) || defined(BSIM_COVERAGE)
    const std::uint64_t n = envU64("BSIM_SAMPLING_ACCESSES", 4'000'000);
    const bool enforce_speedup = false;
#else
    const std::uint64_t n =
        envU64("BSIM_SAMPLING_ACCESSES", 100'000'000);
    const bool enforce_speedup = n >= 20'000'000;
#endif
    // U = P/40 measured, W = 3U warmup: ~10% of records simulated, so
    // the ideal speedup is ~10x against the 5x acceptance floor.
    const std::uint64_t period = std::max<std::uint64_t>(n / 25, 40);
    const SamplePlan plan{period / 40, period, 3 * (period / 40)};

    // Two alternating workload phases (length chosen to not divide the
    // sampling period) give the trace genuine across-unit variance: the
    // CI is honestly wide, and systematic sampling can't alias onto the
    // phase structure.
    const std::string p = path("accept.bst");
    {
        SpecWorkload a = makeSpecWorkload("gcc", kDefaultSeed);
        SpecWorkload b = makeSpecWorkload("ammp", kDefaultSeed);
        const std::uint64_t phase =
            std::max<std::uint64_t>(period * 5 / 6, 1);
        Bst2Writer writer(p);
        for (std::uint64_t i = 0; i < n; ++i)
            writer.append((i / phase) % 2 == 0 ? a.data->next()
                                               : b.data->next());
    }

    const CacheConfig cfg = CacheConfig::directMapped(16 * 1024);

    const auto t0 = Clock::now();
    const MissRateResult full = runTraceReplay(p, cfg);
    const auto t1 = Clock::now();
    const MissRateResult sampled = runTraceSampled(p, cfg, plan);
    const auto t2 = Clock::now();

    const double full_s =
        std::chrono::duration<double>(t1 - t0).count();
    const double sampled_s =
        std::chrono::duration<double>(t2 - t1).count();
    const double speedup =
        sampled_s > 0.0 ? full_s / sampled_s : 0.0;
    const double truth = full.stats.missRate();
    ASSERT_TRUE(sampled.sampled.has_value());
    const SampleEstimate e = sampled.sampled->estimate();

    std::printf("acceptance: %llu records, full %.3fs, sampled %.3fs "
                "(%.1fx), truth %.6f, estimate %.6f CI [%.6f, %.6f]\n",
                static_cast<unsigned long long>(n), full_s, sampled_s,
                speedup, truth, e.value, e.ciLo, e.ciHi);

    // The estimate must be honest at any scale.
    EXPECT_TRUE(e.contains(truth))
        << "truth " << truth << " outside [" << e.ciLo << ", " << e.ciHi
        << "]";

    // The speedup claim is enforced on full-sized uninstrumented runs
    // and reported otherwise (BSIM_SAMPLE_SPEEDUP=0 also disables it).
    const double floor = envDouble("BSIM_SAMPLE_SPEEDUP", 5.0);
    if (enforce_speedup && floor > 0.0) {
        EXPECT_GE(speedup, floor);
    }
}

} // namespace
} // namespace bsim
