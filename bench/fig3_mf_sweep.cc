/**
 * @file
 * Figure 3 reproduction: data-cache miss rate and PD hit rate (during
 * misses) of benchmark `wupwise` on a 16 kB B-Cache with BAS = 8 as the
 * memory-address mapping factor MF sweeps 2..512.
 *
 * Expected shape: the PD hit rate stays high while the conflicting
 * 512 kB-strided addresses share PI bits, then collapses once MF crosses
 * the stride (between 32 and 64), dragging the miss rate down with it.
 *
 * The nine MF points are independent, so they run on the parallel sweep
 * engine (`--jobs N` / BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "common/strings.hh"

using namespace bsim;

int
main(int argc, char **argv)
{
    bench::banner("fig3_mf_sweep",
                  "Figure 3 (wupwise D$ miss rate & PD hit rate vs MF)");
    const std::uint64_t n = defaultAccesses(2'000'000);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    std::vector<CacheConfig> configs;
    std::vector<SweepJob> jobs;
    for (std::uint32_t mf = 2; mf <= 512; mf *= 2) {
        configs.push_back(parseCacheSpec(
            strprintf("bcache:16kB,mf=%u,bas=8", mf)));
        jobs.push_back(SweepJob::missRate("wupwise", StreamSide::Data,
                                          configs.back(), n,
                                          kDefaultSeed));
    }
    const SweepRun run = runSweep(jobs, options);

    Table t({"MF", "PI-bits", "D$-miss%", "PD-hit-rate-on-miss%"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const MissRateResult &r = missResult(run.outcomes[i]);
        t.row()
            .cell(strprintf("MF%u", configs[i].mf))
            .cell(deriveLayout(configs[i].bcacheParams()).piBits)
            .cell(100.0 * r.missRate(), 3)
            .cell(100.0 * r.pd->pdHitRateOnMiss(), 1);
    }
    t.print("wupwise, 16kB B-Cache, BAS=8, LRU");
    printSweepSummary(run.summary);
    return 0;
}
