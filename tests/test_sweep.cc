/** Unit tests for the parallel sweep engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "cache/cache_spec.hh"
#include "sim/sweep.hh"

namespace bsim {
namespace {

/**
 * A mixed B-Cache / set-assoc / victim job list over several workloads.
 * With @p seed set, each workload's four cells share one stream.
 */
std::vector<SweepJob>
mixedJobs(std::uint64_t accesses,
          std::optional<std::uint64_t> seed = std::nullopt)
{
    const std::vector<std::string> benches = {"gcc", "equake", "twolf",
                                              "gzip"};
    const std::vector<CacheConfig> configs = {
        CacheConfig::directMapped(16 * 1024),
        CacheConfig::setAssoc(16 * 1024, 4),
        CacheConfig::bcache(16 * 1024, 8, 8),
        CacheConfig::victim(16 * 1024, 16),
    };
    std::vector<SweepJob> jobs;
    for (const auto &b : benches)
        for (const auto &cfg : configs)
            jobs.push_back(SweepJob::missRate(b, StreamSide::Data, cfg,
                                              accesses, seed));
    return jobs;
}

/** Every counter that a bit-identical run must reproduce. */
void
expectIdentical(const MissRateResult &a, const MissRateResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.stats.accesses, b.stats.accesses);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.misses, b.stats.misses);
    EXPECT_EQ(a.stats.writebacks, b.stats.writebacks);
    EXPECT_EQ(a.stats.writethroughs, b.stats.writethroughs);
    EXPECT_EQ(a.stats.refills, b.stats.refills);
    for (const AccessType t :
         {AccessType::Read, AccessType::Write, AccessType::Fetch}) {
        EXPECT_EQ(a.stats.typeAccess(t), b.stats.typeAccess(t));
        EXPECT_EQ(a.stats.typeMiss(t), b.stats.typeMiss(t));
    }
    EXPECT_EQ(a.victimHits, b.victimHits);
    EXPECT_EQ(a.pd.has_value(), b.pd.has_value());
    if (a.pd && b.pd) {
        EXPECT_EQ(a.pd->pdHitCacheMiss, b.pd->pdHitCacheMiss);
        EXPECT_EQ(a.pd->pdMiss, b.pd->pdMiss);
    }
    EXPECT_EQ(a.balance.fhsPct, b.balance.fhsPct);
    EXPECT_EQ(a.balance.chPct, b.balance.chPct);
    EXPECT_EQ(a.balance.fmsPct, b.balance.fmsPct);
    EXPECT_EQ(a.balance.cmPct, b.balance.cmPct);
    EXPECT_EQ(a.balance.lasPct, b.balance.lasPct);
    EXPECT_EQ(a.balance.tcaPct, b.balance.tcaPct);
}

void
expectIdentical(const SweepOutcome &a, const SweepOutcome &b)
{
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_TRUE(a.miss.has_value());
    ASSERT_TRUE(b.miss.has_value());
    expectIdentical(*a.miss, *b.miss);
}

/** A swept cell against the standalone runMissRate call it stands for. */
void
expectMatchesStandalone(const SweepJob &job, const SweepOutcome &out)
{
    ASSERT_TRUE(out.ok()) << out.error;
    ASSERT_TRUE(out.miss.has_value());
    if (job.seed) {
        EXPECT_EQ(out.seed, *job.seed);
    }
    expectIdentical(runMissRate(job.workload, job.side, job.config,
                                job.length, out.seed),
                    *out.miss);
}

/**
 * One config per kind in the spec registry, plus the `+victim`
 * composition; fails if a registered kind is missing.
 */
std::vector<CacheConfig>
everyKind()
{
    std::vector<CacheConfig> configs;
    for (const char *spec :
         {"dm:16kB", "sa:16kB,4w", "victim:16kB,16e", "dm:16kB+victim:8",
          "bcache:16kB,mf=8,bas=8", "column:16kB", "skew:16kB",
          "hac:16kB", "xor:16kB", "pad:16kB,4w"})
        configs.push_back(parseCacheSpec(spec));
    for (const CacheSpecEntry &e : CacheFactory::instance().entries())
        EXPECT_TRUE(std::any_of(configs.begin(), configs.end(),
                                [&](const CacheConfig &c) {
                                    return c.kind == e.kind;
                                }))
            << "no fan-out coverage for '" << e.name << "'";
    return configs;
}

TEST(Sweep, ResultsInSubmissionOrder)
{
    const auto jobs = mixedJobs(20000);
    SweepOptions opt;
    opt.jobs = 3;
    const SweepRun run = runSweep(jobs, opt);
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(run.outcomes[i].index, i);
        ASSERT_TRUE(run.outcomes[i].ok()) << run.outcomes[i].error;
        EXPECT_EQ(run.outcomes[i].miss->workload, jobs[i].workload);
        EXPECT_EQ(run.outcomes[i].miss->config, jobs[i].config.label);
    }
}

TEST(Sweep, MultiThreadBitIdenticalToSingleThread)
{
    const auto jobs = mixedJobs(30000);
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 4;
    const SweepRun a = runSweep(jobs, serial);
    const SweepRun b = runSweep(jobs, parallel);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        expectIdentical(a.outcomes[i], b.outcomes[i]);
    EXPECT_EQ(a.summary.events, b.summary.events);
    EXPECT_EQ(b.summary.threads, 4u);
}

TEST(Sweep, ThrowingJobReportedWithoutDeadlock)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        20000));
    jobs.push_back(SweepJob::missRate(
        "no-such-bench", StreamSide::Data,
        CacheConfig::directMapped(16 * 1024), 20000));
    jobs.push_back(SweepJob::missRate(
        "twolf", StreamSide::Data, CacheConfig::bcache(16 * 1024, 8, 8),
        20000));
    jobs.push_back(SweepJob::missRate(
        "gzip", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        0)); // zero-length: also an error
    SweepOptions opt;
    opt.jobs = 2;
    const SweepRun run = runSweep(jobs, opt);
    ASSERT_EQ(run.outcomes.size(), 4u);
    EXPECT_TRUE(run.outcomes[0].ok());
    EXPECT_FALSE(run.outcomes[1].ok());
    EXPECT_NE(run.outcomes[1].error.find("no-such-bench"),
              std::string::npos);
    EXPECT_TRUE(run.outcomes[2].ok());
    EXPECT_FALSE(run.outcomes[3].ok());
    EXPECT_EQ(run.summary.failed, 2u);
    // Failed jobs contribute no simulated events.
    EXPECT_EQ(run.summary.events, 40000u);
}

TEST(Sweep, SeedDerivationIsPureAndPerJob)
{
    EXPECT_EQ(sweepSeed(7, 0), sweepSeed(7, 0));
    EXPECT_NE(sweepSeed(7, 0), sweepSeed(7, 1));
    EXPECT_NE(sweepSeed(7, 0), sweepSeed(8, 0));

    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        20000));
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        20000, /*seed=*/42));
    // Identical jobs with derived seeds still get a stream each.
    jobs.insert(jobs.end(), 3, jobs[0]);
    SweepOptions opt;
    opt.baseSeed = 1234;
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(run.outcomes[0].seed, sweepSeed(1234, 0));
    EXPECT_EQ(run.outcomes[1].seed, 42u);
    for (std::size_t i = 2; i < jobs.size(); ++i)
        EXPECT_EQ(run.outcomes[i].seed, sweepSeed(1234, i));
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectMatchesStandalone(jobs[i], run.outcomes[i]);
}

TEST(Sweep, ExplicitSeedMatchesSerialRunner)
{
    const CacheConfig cfg = CacheConfig::bcache(16 * 1024, 8, 8);
    const MissRateResult serial =
        runMissRate("equake", StreamSide::Data, cfg, 30000, 7);
    const SweepRun run = runSweep(
        {SweepJob::missRate("equake", StreamSide::Data, cfg, 30000, 7)});
    const MissRateResult &swept = missResult(run.outcomes[0]);
    EXPECT_EQ(serial.stats.misses, swept.stats.misses);
    EXPECT_EQ(serial.stats.hits, swept.stats.hits);
    EXPECT_EQ(serial.pd->pdMiss, swept.pd->pdMiss);
}

TEST(Sweep, TimedJobsRunTheFullHierarchy)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::timed(
        "gcc", CacheConfig::directMapped(16 * 1024), 30000, 7));
    jobs.push_back(SweepJob::timed(
        "equake", CacheConfig::bcache(16 * 1024, 8, 8), 30000, 7));
    SweepOptions opt;
    opt.jobs = 2;
    const SweepRun run = runSweep(jobs, opt);
    for (const auto &out : run.outcomes) {
        const TimedResult &r = timedResult(out);
        EXPECT_EQ(r.cpu.uops, 30000u);
        EXPECT_GT(r.ipc(), 0.0);
    }
    // Timed jobs reproduce the serial runner too.
    const TimedResult serial =
        runTimed("gcc", CacheConfig::directMapped(16 * 1024), 30000, 7);
    EXPECT_EQ(serial.cpu.cycles, run.outcomes[0].timed->cpu.cycles);
    EXPECT_EQ(run.summary.events, 60000u);
}

TEST(Sweep, ProgressHookSeesEveryJob)
{
    // Lone jobs (derived seeds) and shared-stream groups (one seed)
    // both report once per cell.
    for (const auto seed :
         {std::optional<std::uint64_t>{}, std::optional(kDefaultSeed)}) {
        const auto jobs = mixedJobs(20000, seed);
        std::size_t calls = 0;
        std::size_t last_done = 0;
        std::uint64_t last_events = 0;
        bool monotone = true;
        SweepOptions opt;
        opt.jobs = 4;
        opt.onProgress = [&](const SweepProgress &p) {
            ++calls;
            monotone = monotone && p.done == last_done + 1 &&
                       p.events == last_events + 20000;
            last_done = p.done;
            last_events = p.events;
            EXPECT_EQ(p.total, jobs.size());
        };
        const SweepRun run = runSweep(jobs, opt);
        EXPECT_EQ(calls, jobs.size());
        EXPECT_TRUE(monotone);
        EXPECT_EQ(last_done, jobs.size());
        EXPECT_EQ(last_events, 20000u * jobs.size());
        EXPECT_EQ(run.summary.events, 20000u * jobs.size());
        EXPECT_EQ(run.summary.jobs, jobs.size());
    }
}

TEST(SweepFanOut, EveryKindAndOffBatchLengthMatchStandalone)
{
    const std::vector<CacheConfig> configs = everyKind();
    std::vector<SweepJob> jobs;
    for (const std::uint64_t n : {1u, 1023u, 1025u, 40000u})
        for (const CacheConfig &cfg : configs)
            jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data,
                                              cfg, n, /*seed=*/7));
    SweepOptions opt;
    opt.jobs = 2;
    const SweepRun run = runSweep(jobs, opt);
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].config.label + " x " +
                     std::to_string(jobs[i].length));
        expectMatchesStandalone(jobs[i], run.outcomes[i]);
    }
    // The 40k cells really exercised the side counters: config 3 is
    // the `+victim` composition, config 4 the B-Cache.
    const std::size_t last_row = jobs.size() - configs.size();
    EXPECT_GT(run.outcomes[last_row + 3].miss->victimHits, 0u);
    const MissRateResult &bc = *run.outcomes[last_row + 4].miss;
    ASSERT_TRUE(bc.pd.has_value());
    EXPECT_GT(bc.pd->pdMiss, 0u);
}

TEST(SweepFanOut, NonAdjacentSameKeyJobsShareOneStream)
{
    const CacheConfig dm = parseCacheSpec("dm:16kB");
    const CacheConfig bc = parseCacheSpec("bcache:16kB,mf=8,bas=8");
    const CacheConfig sa = parseCacheSpec("sa:16kB,8w");
    std::vector<SweepJob> jobs = {
        SweepJob::missRate("twolf", StreamSide::Data, dm, 30000, 5),
        SweepJob::missRate("gzip", StreamSide::Inst, dm, 30000, 5),
        SweepJob::missRate("twolf", StreamSide::Data, bc, 30000, 5),
        SweepJob::missRate("gzip", StreamSide::Inst, sa, 30000, 5),
        // Same workload and seed, different side or length: no share.
        SweepJob::missRate("twolf", StreamSide::Inst, bc, 30000, 5),
        SweepJob::missRate("twolf", StreamSide::Data, sa, 20000, 5),
        SweepJob::missRate("twolf", StreamSide::Data, sa, 30000, 5),
    };
    SweepOptions opt;
    opt.jobs = 1;
    const SweepRun run = runSweep(jobs, opt);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectMatchesStandalone(jobs[i], run.outcomes[i]);
    // Cells of one group are charged an equal share of its wall time.
    EXPECT_GT(run.outcomes[0].seconds, 0.0);
    EXPECT_EQ(run.outcomes[0].seconds, run.outcomes[2].seconds);
    EXPECT_EQ(run.outcomes[0].seconds, run.outcomes[6].seconds);
    EXPECT_EQ(run.outcomes[1].seconds, run.outcomes[3].seconds);
}

TEST(SweepFanOut, UnknownWorkloadGroupFailsOnlyItsCells)
{
    const CacheConfig dm = parseCacheSpec("dm:16kB");
    const CacheConfig bc = parseCacheSpec("bcache:16kB,mf=8,bas=8");
    const std::vector<SweepJob> jobs = {
        SweepJob::missRate("gcc", StreamSide::Data, dm, 20000, 3),
        SweepJob::missRate("no-such-bench", StreamSide::Data, dm, 20000,
                           3),
        SweepJob::missRate("gcc", StreamSide::Data, bc, 20000, 3),
        SweepJob::missRate("no-such-bench", StreamSide::Data, bc, 20000,
                           3),
    };
    for (const unsigned threads : {1u, 2u}) {
        SweepOptions opt;
        opt.jobs = threads;
        const SweepRun run = runSweep(jobs, opt);
        expectMatchesStandalone(jobs[0], run.outcomes[0]);
        expectMatchesStandalone(jobs[2], run.outcomes[2]);
        for (const std::size_t i : {1u, 3u}) {
            EXPECT_EQ(run.outcomes[i].error,
                      "unknown workload 'no-such-bench'");
            EXPECT_EQ(run.outcomes[i].seed, 3u);
            EXPECT_EQ(run.outcomes[i].index, i);
        }
        EXPECT_EQ(run.summary.failed, 2u);
        EXPECT_EQ(run.summary.events, 40000u);
    }
}

TEST(SweepFanOut, OneWorkloadSplitIsBitIdenticalAtAnyThreadCount)
{
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg : figure4Configs(16 * 1024))
        jobs.push_back(SweepJob::missRate("wupwise", StreamSide::Data,
                                          cfg, 30000, kDefaultSeed));
    ASSERT_EQ(jobs.size(), 9u);
    SweepOptions serial;
    serial.jobs = 1;
    const SweepRun ref = runSweep(jobs, serial);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectMatchesStandalone(jobs[i], ref.outcomes[i]);
    for (const unsigned threads : {2u, 3u, 4u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        const SweepRun run = runSweep(jobs, opt);
        EXPECT_EQ(run.summary.threads, threads);
        ASSERT_EQ(run.outcomes.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdentical(ref.outcomes[i], run.outcomes[i]);
        EXPECT_EQ(run.summary.events, ref.summary.events);
    }
}

TEST(Sweep, DefaultJobsHonoursEnv)
{
    ::setenv("BSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("BSIM_JOBS", "garbage", 1);
    EXPECT_GE(defaultJobs(), 1u);
    ::unsetenv("BSIM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Sweep, ConsumeJobsFlagStripsArgv)
{
    char prog[] = "prog";
    char a1[] = "--jobs";
    char a2[] = "6";
    char a3[] = "twolf";
    char *argv[] = {prog, a1, a2, a3, nullptr};
    int argc = 4;
    EXPECT_EQ(consumeJobsFlag(argc, argv), 6u);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "twolf");

    char b1[] = "--jobs=2";
    char *argv2[] = {prog, b1, nullptr};
    int argc2 = 2;
    EXPECT_EQ(consumeJobsFlag(argc2, argv2), 2u);
    EXPECT_EQ(argc2, 1);

    char *argv3[] = {prog, a3, nullptr};
    int argc3 = 2;
    EXPECT_EQ(consumeJobsFlag(argc3, argv3), 0u);
    EXPECT_EQ(argc3, 2);
}

} // namespace
} // namespace bsim
