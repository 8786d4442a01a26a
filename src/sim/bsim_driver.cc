#include "sim/bsim_driver.hh"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "observe/export.hh"
#include "power/cacti_lite.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/trace_replay.hh"
#include "timing/storage_model.hh"
#include "workload/spec2k.hh"
#include "workload/trace_format.hh"
#include "workload/trace_reader.hh"

namespace bsim {

namespace {

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n", msg);
    std::fprintf(stderr,
                 "usage: bsim [--cache SPEC] [--list-caches]\n"
                 "  --cache SPEC     declarative cache spec, e.g. "
                 "bcache:16kB,mf=8,bas=8\n"
                 "                   (the default), sa:16kB,8w, "
                 "dm:16kB+victim:16\n"
                 "                   (--list-caches for the registered "
                 "grammar)\n"
                 "  [--workload NAME] [--side data|inst] [--seed N]\n"
                 "  [--trace FILE]   replay a trace (.bst, .din/text, "
                 "or either .gz);\n"
                 "                   streamed chunk by chunk, O(chunk) "
                 "memory\n"
                 "  [--shards N]     split the trace into N windows and "
                 "replay them\n"
                 "                   in parallel on the sweep engine "
                 "(cold cache per\n"
                 "                   shard; see docs/TRACES.md)\n"
                 "  [--jobs N]       sweep worker threads for --shards "
                 "(BSIM_JOBS)\n"
                 "  [--batch N]      accessBatch span length (BSIM_BATCH;"
                 " 0/1 =\n"
                 "                   per-access path)\n"
                 "  [--accesses N]   synthetic run length, or a cap on "
                 "trace replay\n"
                 "                   (traces default to the whole file)\n"
                 "  [--sample U:P:W] sampled run: measure U accesses "
                 "every P, after\n"
                 "                   W of functional warmup; reports a "
                 "miss-ratio\n"
                 "                   estimate with stderr and 95%% CI "
                 "(EXPERIMENTS.md\n"
                 "                   cookbook; not with --timed/"
                 "--heatmap/--interval)\n"
                 "  [--config FILE]  a JSON run request keyed by the run "
                 "flags --cache\n"
                 "                   to --sample above, without the "
                 "dashes, e.g.\n"
                 "                   {\"cache\":\"dm:16kB\",\"seed\":7}; "
                 "flags given AFTER\n"
                 "                   it override it (docs/SERVE.md §4)\n"
                 "  [--trace-info FILE]  print a trace's header/format "
                 "and exit\n"
                 "  [--timed]        OOO-core/Table-4 processor model "
                 "(workload-\n"
                 "                   driven only)\n"
                 "  [--stats-json F] write a bsim-stats-v1 document "
                 "(per-set\n"
                 "                   histograms, balance metrics, decoder"
                 " telemetry)\n"
                 "                   to F ('-' = stdout, suppresses the "
                 "report);\n"
                 "                   enables the observer\n"
                 "  [--heatmap F]    write the per-set access/miss/"
                 "eviction\n"
                 "                   histogram as CSV to F ('-' = stdout)"
                 "\n"
                 "  [--interval N]   windowed time-series every N "
                 "accesses;\n"
                 "                   embedded in --stats-json, or CSV to "
                 "stdout\n"
                 "  [--json]         compact JSON record instead of the "
                 "report\n"
                 "  --serve ...      run as bsimd, the bsim-rpc-v1 "
                 "simulation server\n"
                 "                   (bsim --serve --help; docs/SERVE.md)"
                 "\n"
                 "  --connect TARGET send one request to a running bsimd "
                 "and print\n"
                 "                   the response body (bsim --connect "
                 "--help)\n");
    std::exit(2);
}

/** The spec, or its actionable parse error as usage text. */
CacheConfig
specOrUsage(const std::string &spec)
{
    try {
        return parseCacheSpec(spec);
    } catch (const CacheSpecError &e) {
        usage(e.what());
    }
}

/** --trace-info: the header/probe readout, no records replayed. */
int
printTraceInfo(const std::string &path)
{
    const TraceInfo info = probeTrace(path);
    std::printf("trace    : %s\n", path.c_str());
    std::printf("format   : %s%s\n", info.format.c_str(),
                info.compressed ? " (gzip)" : "");
    if (info.recordCount == kUnknownRecordCount)
        std::printf("records  : unknown (text traces carry no header; "
                    "convert to .bst)\n");
    else
        std::printf("records  : %llu\n",
                    static_cast<unsigned long long>(info.recordCount));
    if (info.format == "BST2") {
        const Bst2Header h{info.recordCount, info.addrBits,
                           info.chunkLen, 0};
        std::printf("chunking : %u records/chunk, %llu chunks\n",
                    info.chunkLen,
                    static_cast<unsigned long long>(h.chunks()));
        std::printf("addr bits: %u\n", info.addrBits);
        std::printf("zero-copy: %s\n",
                    !info.compressed && kBst2RecordMatchesMemAccess
                        ? "yes (mmap spans feed accessBatch directly)"
                        : info.compressed
                              ? "no (gzip inflates into a chunk buffer)"
                              : "no (host layout differs; records are "
                                "converted per chunk)");
    }
    return 0;
}

/**
 * The human-readable estimate lines shared by all sampled drivers.
 * Every printer below takes @p out because a '-' export owns stdout:
 * the report then moves to stderr instead of being suppressed, so one
 * invocation can pipe clean JSON while a human still watches the run.
 */
void
printSampled(const SampledStats &s, std::FILE *out)
{
    const SampleEstimate e = s.estimate();
    std::fprintf(out,
                 "sample   : U=%llu P=%llu W=%llu over %llu records "
                 "(%llu units, %.4f%% measured)\n",
                 static_cast<unsigned long long>(s.plan.unitLen),
                 static_cast<unsigned long long>(s.plan.period),
                 static_cast<unsigned long long>(s.plan.warmup),
                 static_cast<unsigned long long>(s.records),
                 static_cast<unsigned long long>(e.units),
                 100.0 * e.sampledFraction);
    std::fprintf(out,
                 "estimate : miss ratio %.6f (stderr %.6f, 95%% CI "
                 "[%.6f, %.6f], MPKI %.2f)\n",
                 e.value, e.stderrValue, e.ciLo, e.ciHi,
                 1000.0 * e.value);
}

void
printMissRate(const MissRateResult &r, const CacheConfig &cfg,
              const std::string &driver_desc, std::FILE *out)
{
    std::fprintf(out, "config   : %s (%s, %s, %s)\n", cfg.label.c_str(),
                 sizeString(cfg.sizeBytes).c_str(),
                 replPolicyName(cfg.repl),
                 writePolicyName(cfg.writePolicy));
    std::fprintf(out, "driver   : %s\n", driver_desc.c_str());
    std::fprintf(out, "accesses : %llu\n",
                 static_cast<unsigned long long>(r.stats.accesses));
    std::fprintf(out, "miss rate: %.4f%%  (hits %llu, misses %llu)\n",
                 100.0 * r.missRate(),
                 static_cast<unsigned long long>(r.stats.hits),
                 static_cast<unsigned long long>(r.stats.misses));
    std::fprintf(out,
                 "traffic  : refills %llu, writebacks %llu, "
                 "writethroughs %llu\n",
                 static_cast<unsigned long long>(r.stats.refills),
                 static_cast<unsigned long long>(r.stats.writebacks),
                 static_cast<unsigned long long>(r.stats.writethroughs));
    if (r.pd)
        std::fprintf(out,
                     "PD       : hit-on-miss %.2f%%, predicted misses "
                     "%.2f%%\n",
                     100.0 * r.pd->pdHitRateOnMiss(),
                     100.0 * r.pd->missPredictionRate());
    if (r.victimHits)
        std::fprintf(out, "victim   : %llu buffer hits\n",
                     static_cast<unsigned long long>(r.victimHits));
    if (r.sampled) {
        printSampled(*r.sampled, out);
        return; // no balance: per-unit caches have no aggregate usage
    }
    std::fprintf(out, "balance  : %s\n", r.balance.toString().c_str());
}

void
printBCacheCosts(const CacheConfig &cfg, std::FILE *out)
{
    if (cfg.kind != CacheKind::BCache)
        return;
    const BCacheParams p = cfg.bcacheParams();
    std::fprintf(out, "layout   : %s\n",
                 deriveLayout(p).toString().c_str());
    std::fprintf(out, "area     : %+.2f%% vs same-sized direct-mapped\n",
                 areaOverheadPct(
                     conventionalStorage(p.sizeBytes, p.lineBytes, 1),
                     bcacheStorage(p)));
    std::fprintf(out, "energy   : %.1f pJ/access (DM baseline %.1f)\n",
                 CactiLite::bcache(p).total(), [&] {
                     CacheOrg o;
                     o.sizeBytes = p.sizeBytes;
                     o.lineBytes = p.lineBytes;
                     o.ways = 1;
                     return CactiLite::conventional(o).total();
                 }());
}

/** The --shards report: per-shard table, merged totals, engine summary. */
void
printSharded(const RunOutcome &o, std::FILE *out)
{
    const TraceSweepResult &res = *o.sharded;
    Table t({"shard", "window", "accesses", "misses", "miss%"});
    for (std::size_t i = 0; i < res.shards.size(); ++i) {
        const MissRateResult &s = res.shards[i];
        const std::size_t win = s.workload.find('[');
        std::string window = win == std::string::npos
                                 ? std::string("[whole file)")
                                 : s.workload.substr(win);
        // Sampled jobs own unit ranges, not record windows.
        if (s.sampled && !s.sampled->units.empty())
            window = "units[" +
                     std::to_string(s.sampled->units.front().unit) + "+" +
                     std::to_string(s.sampled->units.size()) + ")";
        t.row()
            .cell(std::uint64_t(i))
            .cell(window)
            .cell(s.stats.accesses)
            .cell(s.stats.misses)
            .cell(100.0 * s.missRate(), 4);
    }
    t.print((res.sampled ? "sharded sampled replay of "
                         : "sharded replay of ") +
                o.tracePath + " on " + o.config.label,
            out);
    std::fprintf(out, "merged   : %s\n", res.total.toString().c_str());
    if (res.sampled)
        printSampled(*res.sampled, out);
    if (res.victimHits)
        std::fprintf(out, "victim   : %llu buffer hits\n",
                     static_cast<unsigned long long>(res.victimHits));
    if (res.pd)
        std::fprintf(out,
                     "PD       : %llu hit-on-miss, %llu predicted "
                     "misses\n",
                     static_cast<unsigned long long>(
                         res.pd->pdHitCacheMiss),
                     static_cast<unsigned long long>(res.pd->pdMiss));
    printSweepSummary(res.summary, out);
}

/** --timed: the OOO-core model over a workload, report or JSON. */
int
runTimedModel(const BsimArgs &a)
{
    const RunRequest &run = a.run;
    if (!run.trace.empty())
        usage("--timed drives workloads, not traces");
    if (a.exports.wantsObserver())
        usage("--stats-json/--heatmap/--interval observe the "
              "standalone miss-rate drivers, not --timed");
    if (!isSpec2kName(run.workload))
        usage("unknown --workload");
    const CacheConfig cfg = specOrUsage(run.cache);
    const TimedResult tr =
        runTimed(run.workload, cfg,
                 run.accessesSet ? run.accesses : 1'000'000, run.seed);
    if (a.json) {
        std::printf("%s\n", toJson(tr).c_str());
        return 0;
    }
    std::printf("config   : %s\n", cfg.label.c_str());
    std::printf("workload : %s (%llu uops)\n", run.workload.c_str(),
                static_cast<unsigned long long>(tr.cpu.uops));
    std::printf("IPC      : %.3f  (%llu cycles)\n", tr.ipc(),
                static_cast<unsigned long long>(tr.cpu.cycles));
    std::printf("L1I      : %s\n", tr.l1i.toString().c_str());
    std::printf("L1D      : %s\n", tr.l1d.toString().c_str());
    std::printf("L2       : %s\n", tr.l2.toString().c_str());
    std::printf("stalls   : I$ %llu cyc, load-miss %llu cyc, "
                "mispredict %llu cyc (overlapping)\n",
                static_cast<unsigned long long>(tr.cpu.icacheStallCycles),
                static_cast<unsigned long long>(tr.cpu.loadMissCycles),
                static_cast<unsigned long long>(tr.cpu.mispredictCycles));
    return 0;
}

} // namespace

BsimArgs
parseBsimArgs(int argc, char **argv)
{
    BsimArgs a;
    a.run.cache = kDefaultCacheSpec;
    try {
        for (int i = 1; i < argc; ++i) {
            if (readRunFlag(argc, argv, i, a.run))
                continue;
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw UsageError(arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--config")
                readRunRequestFile(value(), a.run);
            else if (arg == "--list-caches")
                a.listCaches = true;
            else if (arg == "--trace-info")
                a.traceInfo = value();
            else if (arg == "--stats-json")
                a.exports.statsJsonPath = value();
            else if (arg == "--heatmap")
                a.exports.heatmapPath = value();
            else if (arg == "--interval")
                a.exports.interval = u64Flag(arg, value());
            else if (arg == "--json")
                a.json = true;
            else if (arg == "--timed")
                a.timed = true;
            else if (arg == "--help" || arg == "-h")
                usage();
            else
                throw UsageError("unknown flag '" + arg + "'");
        }
    } catch (const UsageError &e) {
        usage(e.what());
    }
    return a;
}

int
bsimMain(int argc, char **argv)
{
    const BsimArgs a = parseBsimArgs(argc, argv);
    if (a.listCaches) {
        std::fputs(listCacheSpecs().c_str(), stdout);
        return 0;
    }
    if (!a.traceInfo.empty())
        return printTraceInfo(a.traceInfo);

    const StatsExport &ex = a.exports;
    if (a.json && ex.claimsStdout())
        usage("--json and a '-' export both claim stdout");
    if (!a.run.sample.empty()) {
        if (a.timed)
            usage("--sample estimates miss ratios, not --timed runs");
        if (!ex.heatmapPath.empty() || ex.interval > 0)
            usage("--sample runs a fresh cache per unit, so there is "
                  "no aggregate state for --heatmap/--interval "
                  "(--stats-json still works: it carries the estimate)");
    }
    if (a.timed)
        return runTimedModel(a);

    const RunOutcome o = [&] {
        try {
            return dispatchRun(a.run, ex.observerConfig());
        } catch (const CacheSpecError &e) {
            usage(e.what());
        } catch (const UsageError &e) {
            usage(e.what());
        }
    }();

    if (!ex.statsJsonPath.empty())
        writeTextOutput(ex.statsJsonPath, statsBody(o) + "\n");
    const std::optional<ObserverReport> &observer =
        o.sharded ? o.sharded->observer : o.result.observer;
    if (observer)
        writeObserverExports(ex, *observer);

    if (a.json) {
        // json + a '-' export is rejected up front; stdout is ours.
        std::printf("%s\n", compactBody(o).c_str());
    } else {
        // A "-" export owns stdout; the human report moves to stderr.
        std::FILE *out = ex.claimsStdout() ? stderr : stdout;
        if (o.sharded) {
            printSharded(o, out);
        } else {
            printMissRate(o.result, o.config,
                          o.tracePath.empty()
                              ? a.run.workload + " (" + a.run.side + ")"
                              : o.tracePath,
                          out);
            printBCacheCosts(o.config, out);
        }
    }
    return 0;
}

} // namespace bsim
