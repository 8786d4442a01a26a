/**
 * @file
 * CTest smoke target for the sweep engine: runs a tiny sweep on 2
 * worker threads on every build and checks the results arrive in
 * submission order and bit-identical to a 1-thread run. The first half
 * derives a seed per job, so every job runs alone; the second half pins
 * one seed, so each workload's cells share one stream (the grouped
 * path). Exits non-zero (failing the ctest) on any mismatch.
 */

#include <cstdio>

#include "sim/sweep.hh"

using namespace bsim;

int
main()
{
    const std::uint64_t n = 10000;
    std::vector<SweepJob> jobs;
    for (const std::optional<std::uint64_t> seed :
         {std::optional<std::uint64_t>{}, std::optional(kDefaultSeed)})
        for (const auto &b : {"gcc", "equake", "twolf", "gzip"}) {
            jobs.push_back(SweepJob::missRate(
                b, StreamSide::Data,
                CacheConfig::directMapped(16 * 1024), n, seed));
            jobs.push_back(SweepJob::missRate(
                b, StreamSide::Data,
                CacheConfig::bcache(16 * 1024, 8, 8), n, seed));
        }

    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions smoke;
    smoke.jobs = 2;
    const SweepRun a = runSweep(jobs, serial);
    const SweepRun b = runSweep(jobs, smoke);

    int rc = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const MissRateResult &ra = missResult(a.outcomes[i]);
        const MissRateResult &rb = missResult(b.outcomes[i]);
        if (rb.workload != jobs[i].workload ||
            rb.config != jobs[i].config.label) {
            std::fprintf(stderr, "job %zu out of order\n", i);
            rc = 1;
        }
        if (ra.stats.misses != rb.stats.misses ||
            ra.stats.hits != rb.stats.hits) {
            std::fprintf(stderr, "job %zu not bit-identical\n", i);
            rc = 1;
        }
        if (jobs[i].seed) {
            // A grouped cell must equal its standalone run.
            const MissRateResult alone =
                runMissRate(jobs[i].workload, jobs[i].side,
                            jobs[i].config, n, *jobs[i].seed);
            if (alone.stats.misses != rb.stats.misses ||
                alone.stats.hits != rb.stats.hits) {
                std::fprintf(stderr,
                             "job %zu differs from its standalone run\n",
                             i);
                rc = 1;
            }
        }
    }
    if (b.summary.failed != 0) {
        std::fprintf(stderr, "%zu jobs failed\n", b.summary.failed);
        rc = 1;
    }
    printSweepSummary(b.summary);
    return rc;
}
