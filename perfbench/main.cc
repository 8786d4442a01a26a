/**
 * @file
 * perfbench: the layered benchmark's binary (built and invoked by
 * perfbench/run.py).
 *
 *   perfbench --workload grid|replay|serve --seed N --seconds S
 *             --trace 0|1 --root DIR --bsim PATH [--print-digest]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * runs the workload untraced and traced for half the time each, then
 * the layer ladder (layers.hh), and reports the per-layer metrics; its
 * spans go to DIR/.bench_out/spans-<workload>-<seed>.json. The last
 * line of standard output is the result object. Exit status 0 means
 * every output matched its reference.
 */

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "benchmath.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "host_probe.hh"
#include "layers.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Setups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

struct Args
{
    RunOptions run;
    bool trace = false;
    bool printDigest = false;
    std::string root;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--print-digest") {
            a->printDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (f == "--workload") {
            a->run.workload = v;
        } else if (f == "--seed") {
            a->run.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = !v.empty() && *end == '\0';
        } else if (f == "--seconds") {
            a->run.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = !v.empty() && *end == '\0' && a->run.seconds > 0;
        } else if (f == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a->trace = v == "1";
        } else if (f == "--root") {
            a->root = v;
        } else if (f == "--bsim") {
            a->run.bsimPath = v;
        } else {
            return false;
        }
    }
    return haveSeed && haveSeconds && !a->root.empty() &&
           !a->run.bsimPath.empty();
}

void
printMetric(const Metric &m)
{
    std::printf("metric %-28s %14.6g %-7s n=%" PRIu64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
}

std::vector<Metric>
endToEnd(const Measured &m, const std::vector<double> &setup)
{
    const std::uint64_t ops = m.latencyMs.size();
    return {
        {"setup_s", median(setup), "s", setup.size()},
        {"macc_per_s", m.maccPerS, "Macc/s", m.rateSamples},
        {"peak_rss_mb", m.peakRssMb, "MB", 1},
        {"req_per_s", m.reqPerS, "1/s", ops},
        {"p50_ms", percentile(m.latencyMs, 0.5), "ms", ops},
        {"p90_ms", percentile(m.latencyMs, 0.9), "ms", ops},
    };
}

/**
 * Per layer: self time summed over threads (concurrent spans each count)
 * and the share of the run's wall time inside the layer's spans (their
 * union, nested calls included).
 */
void
printSelfTimes(const std::vector<Span> &spans, double wall_s)
{
    std::printf("time by layer (traced run, %.3f s wall): self "
                "thread-seconds, share of wall inside the layer's spans\n",
                wall_s);
    const auto wall = layerWallTimes(spans);
    for (const auto &[layer, ns] : layerSelfTimes(spans))
        std::printf("  %-10s %9.3f thread-s  %6.2f%% of wall\n",
                    layer.c_str(), static_cast<double>(ns) * 1e-9,
                    static_cast<double>(wall.at(layer)) * 1e-9 / wall_s *
                        100.0);
}

std::string
resultLine(const Tally &tally, const std::vector<Metric> &metrics)
{
    bsim::JsonWriter j;
    j.beginObject()
        .kv("correct", tally.failed == 0)
        .kv("attempted", tally.attempted)
        .kv("failed", tally.failed);
    j.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        j.key(m.name).beginObject();
        j.key("value").raw(num);
        j.kv("unit", m.unit).endObject();
    }
    j.endObject().endObject();
    return j.str();
}

int
runBenchmark(const Args &a)
{
    const RunOptions &opt = a.run;
    auto workload = makeWorkload(opt);
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g "
                "trace=%d\n",
                opt.workload.c_str(), opt.seed, opt.seconds, a.trace);
    std::printf("host %s\n", toJson(probeHost()).c_str());

    SpanRecorder spans(a.trace);
    std::vector<double> setup;
    for (int i = 0; i < (a.trace || a.printDigest ? 1 : kSetupRepeats);
         ++i) {
        const auto t0 = Clock::now();
        workload->setup(spans);
        setup.push_back(secondsBetween(t0, Clock::now()));
    }
    if (a.printDigest) {
        for (const std::string &line : workload->info())
            std::printf("%s\n", line.c_str());
        return 0;
    }

    Tally tally;
    std::vector<Metric> metrics;
    if (!a.trace) {
        const Measured m = workload->measure(opt.seconds, spans, tally);
        metrics = endToEnd(m, setup);
        for (const Metric &x : metrics)
            printMetric(x);
        for (const auto &[cls, ms] : m.classMs) {
            printMetric({cls + "_p50_ms", percentile(ms, 0.5), "ms",
                         ms.size()});
            printMetric({cls + "_p90_ms", percentile(ms, 0.9), "ms",
                         ms.size()});
        }
    } else {
        SpanRecorder off(false);
        const Measured untraced =
            workload->measure(opt.seconds / 2, off, tally);
        const std::int64_t from = spans.now();
        const Measured traced =
            workload->measure(opt.seconds / 2, spans, tally);
        const std::int64_t to = spans.now();
        const std::vector<Span> phase = spans.spans();
        metrics = runLadder(workload->ladderInputs(), opt, spans, tally);
        metrics.push_back({"bench.trace_overhead_frac",
                           untraced.maccPerS / traced.maccPerS - 1.0,
                           "ratio", traced.rateSamples});
        metrics.push_back({"bench.uncovered_frac",
                           uncoveredFraction(phase, from, to), "ratio",
                           phase.size()});
        for (const Metric &x : metrics)
            printMetric(x);

        const std::vector<Span> all = spans.spans();
        printSelfTimes(all, static_cast<double>(spans.now()) * 1e-9);
        const std::string path = a.root + "/.bench_out/spans-" +
                                 opt.workload + "-" +
                                 std::to_string(opt.seed) + ".json";
        std::ofstream(path) << spansToJson(all) << "\n";
        std::printf("spans: %zu written to %s\n", all.size(), path.c_str());
    }
    std::printf("error_rate %.6g (%" PRIu64 " failed of %" PRIu64
                " attempted)\n",
                tally.errorRate(), tally.failed, tally.attempted);
    for (const std::string &line : workload->info())
        std::printf("%s\n", line.c_str());
    std::printf("%s\n", resultLine(tally, metrics).c_str());
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, &a) || !makeWorkload(a.run)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload grid|replay|serve "
                     "--seed N --seconds S --trace 0|1 --root DIR "
                     "--bsim PATH [--print-digest]\n");
        return 2;
    }
    // Library failures become exceptions (as in the server) so the run
    // can clean up and exit non-zero instead of dying mid-write.
    bsim::setFatalThrows(true);
    namespace fs = std::filesystem;
    a.run.workDir = a.root + "/.bench_out/" + a.run.workload + "-" +
                    std::to_string(a.run.seed) + "-" +
                    std::to_string(::getpid());
    a.run.digestPath = a.root + "/perfbench/digests.txt";
    fs::create_directories(a.run.workDir);
    int rc = 1;
    try {
        rc = runBenchmark(a);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    }
    std::fflush(stdout);
    std::error_code ec;
    fs::remove_all(a.run.workDir, ec);
    return rc;
}
