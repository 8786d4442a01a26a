/**
 * @file
 * Figure 5 reproduction: instruction-cache miss-rate reductions over the
 * 16 kB direct-mapped baseline for the fifteen benchmarks whose I$ miss
 * rate is non-trivial (Section 4.2 excludes the others).
 *
 * The 15 x 10 (workload, config) cells run on the parallel sweep engine
 * (`--jobs N` / BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("fig5_icache_reduction",
           "Figure 5 (I$ miss-rate reductions, 16 kB)");
    const std::uint64_t n = defaultAccesses(1'000'000);
    const auto configs = figure4Configs(16 * 1024);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);
    // --sample U:P[:W] / BSIM_SAMPLE: estimate the whole grid from
    // sampled units (EXPERIMENTS.md "Sampled replay" cookbook).
    const auto sample = consumeSampleFlag(argc, argv);

    const RowSweep sweep =
        runRows(spec2kIcacheReportedNames(), StreamSide::Inst, configs,
                16 * 1024, n, options, sample);

    printReductionTable("I$ reduction % (reported benchmarks)",
                        spec2kIcacheReportedNames(), configs,
                        sweep.rows);
    printSweepSummary(sweep.summary);
    return 0;
}
