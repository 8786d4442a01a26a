/**
 * @file
 * The bsim driver: one command-line front end that runs any cache spec
 * over any input — a named synthetic workload, a trace file (streamed
 * in O(chunk) memory via workload/trace_reader), a sharded parallel
 * trace replay on the sweep engine, or the timed OOO-core model — and
 * prints the standard statistics readout or JSON. The run itself is a
 * RunRequest (sim/run_request.hh) run by dispatchRun(), exactly as the
 * server runs one.
 *
 * bench/bsim.cc is the binary: it hands `--serve`/`--connect` to
 * src/serve and everything else to bsimMain(). docs/TRACES.md walks
 * through the trace-facing flags.
 *
 * Usage (see usage() in the .cc for the authoritative text):
 *   bsim [--cache SPEC] [--list-caches] [--config FILE]
 *        [--workload NAME] [--side data|inst] [--seed N]
 *        [--trace FILE] [--shards N] [--jobs N] [--batch N]
 *        [--accesses N] [--sample U:P:W] [--timed] [--json]
 *        [--stats-json F] [--heatmap F] [--interval N]
 *        [--trace-info FILE]
 */

#ifndef BSIM_SIM_BSIM_DRIVER_HH
#define BSIM_SIM_BSIM_DRIVER_HH

#include <functional>
#include <string>

#include "sim/run_request.hh"
#include "sim/sweep.hh"

namespace bsim {

/** Optional callbacks the host binary hangs on driver milestones. */
struct BsimHooks
{
    /**
     * Invoked after a sweep-backed run (--shards) with the config label
     * and the engine's aggregate metrics. bench/bsim.cc points this at
     * bench::reportSweepPerf so sharded replays land in the repo's
     * BENCH_perf.json trajectory.
     */
    std::function<void(const std::string &configLabel,
                       const SweepSummary &summary)>
        onSweepDone;
};

/** A parsed `bsim` command line. */
struct BsimArgs
{
    RunRequest run; ///< cache defaults to kDefaultCacheSpec
    StatsExport exports;
    bool json = false;
    bool timed = false;
    bool listCaches = false;
    std::string traceInfo; ///< --trace-info FILE
};

/**
 * Parse @p argv (flags after a `--config FILE` override it). Usage
 * errors print the usage text and exit(2); `--help` exits the same way.
 */
BsimArgs parseBsimArgs(int argc, char **argv);

/**
 * The driver entry point: parse @p argv, run, print. Returns the
 * process exit code (0 on success; usage errors exit(2) directly and
 * malformed inputs are bsim_fatal, matching the library's conventions).
 */
int bsimMain(int argc, char **argv, const BsimHooks &hooks = {});

} // namespace bsim

#endif // BSIM_SIM_BSIM_DRIVER_HH
