/**
 * @file
 * The benchmark's three workloads and the inputs they share with the
 * traced layer ladder (layers.hh):
 *
 *  - grid:   a Figure 4-shaped sweep (26 D-side SPEC2K workloads x six
 *            16 kB organisations) through runSweep — generator- and
 *            miss-path-bound;
 *  - replay: the real `bsim --cache C --trace T --json` process over a
 *            hit-heavy gcc instruction-fetch BST2 trace, for three
 *            organisations — hit-path-, Session- and decode-bound;
 *  - serve:  an in-process bsimd Server over socketpairs, driven by a
 *            closed loop of clients sending a fixed tiny/window/sampled
 *            request mix — per-request cost, RPC and scheduler.
 *
 * Every input is generated from the run seed in setup(); measure()
 * hands the program only those inputs and checks every output.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchmath.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace perfbench {

/** The run's command-line settings. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string workDir;    ///< run-private scratch dir in the checkout
    std::string bsimPath;   ///< the built `bsim` binary
    std::string digestPath; ///< committed reference digests (digests.txt)
};

/** End-to-end figures of one measured phase. */
struct Measured
{
    double maccPerS = 0.0;  ///< simulated accesses per host second
    double reqPerS = 0.0;   ///< operations completed per host second
    double peakRssMb = 0.0; ///< peak resident set of the simulating process
    std::vector<double> latencyMs; ///< one entry per operation
    /** Request classes with their own latency samples (serve only). */
    std::vector<std::pair<std::string, std::vector<double>>> classMs;
    std::uint64_t rateSamples = 0; ///< samples behind maccPerS
};

/** The SPEC2K workload behind every generated trace and ladder stream. */
inline constexpr const char *kStreamWorkload = "gcc";
/** The paper's B-Cache, as the grid, replay, serve and ladder run it. */
inline constexpr const char *kPaperBCache = "bcache:16kB,mf=8,bas=8";
/** The U:P:W plan of the served `sampled` class and sim.sampled_ms. */
inline constexpr const char *kServeSamplePlan = "1000:50000:2000";

/** What the traced layer ladder replays for a workload. */
struct LadderInputs
{
    bsim::StreamSide side = bsim::StreamSide::Data;
    std::uint64_t streamSeed = 0;
    /** BST2 trace the workload replays; empty = the ladder writes one. */
    std::string tracePath;
    std::uint64_t gridSeed = 0; ///< seed of the grid the ladder sweeps
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Generate the inputs from the seed and the correctness references. */
    virtual void setup(SpanRecorder &spans) = 0;
    /** Run for about @p seconds; each operation is counted in @p tally. */
    virtual Measured measure(double seconds, SpanRecorder &spans,
                             Tally &tally) = 0;
    virtual LadderInputs ladderInputs() const = 0;
    /** Informational lines printed after the metrics (not gated). */
    virtual std::vector<std::string> info() const { return {}; }
};

/** nullptr for an unknown workload name. */
std::unique_ptr<Workload> makeWorkload(const RunOptions &options);

// ---- pieces shared with the layer ladder ----

/** A pure 64-bit mix of (seed, salt), used to derive input seeds. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * The grid's jobs: every D-side SPEC2K workload x {DM baseline, 2/4/8-way
 * set-associative, DM + 16-entry victim, B-Cache MF=8 BAS=8}, 16 kB.
 */
std::vector<bsim::SweepJob> gridJobs(std::uint64_t seed);
/**
 * Seed of the grid's stream of SPEC2K workload @p name; every organisation
 * of that workload's row sees this stream.
 */
std::uint64_t gridStreamSeed(std::uint64_t seed, const std::string &name);
/** Grid worker threads: min(2, nproc). */
unsigned gridThreads();

/**
 * Write @p records accesses of one side of a synthetic SPEC2K workload
 * as a BST2 trace.
 */
void writeSyntheticTrace(const std::string &path, const std::string &name,
                         bsim::StreamSide side, std::uint64_t seed,
                         std::uint64_t records);

/** One served request class: a bsim-rpc-v1 payload and its size. */
struct RequestClass
{
    std::string name;
    std::string payload;
    std::uint64_t simulatedAccesses = 0;
};

/**
 * The serve mix's request classes against the trace registered as
 * kServeTraceName: tiny, window, sampled.
 */
std::vector<RequestClass> serveClasses(std::uint64_t seed,
                                       std::uint64_t trace_records);
inline constexpr const char *kServeTraceName = "data";

/** Canonical JSON of the counters a correctness check compares. */
std::string statsJson(const bsim::CacheStats &stats);
/** The "stats" object of a `bsim --json` report, re-serialized. */
std::string reportedStats(const std::string &bsim_json);

/** Wall time and resource use of one finished child process. */
struct ProcessRun
{
    int exitStatus = -1; ///< exit code, or -1 if it did not exit normally
    double wallMs = 0.0;
    double maxRssMb = 0.0;
    std::string out; ///< captured standard output
};

/**
 * Run @p argv to completion with standard output captured through
 * @p out_path and standard error discarded.
 */
ProcessRun runProcess(const std::vector<std::string> &argv,
                      const std::string &out_path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
