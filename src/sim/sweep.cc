#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "sim/config.hh"
#include "sim/trace_replay.hh"

namespace bsim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Simulated events (accesses or uops) one outcome contributed. */
std::uint64_t
eventsOf(const SweepOutcome &out)
{
    if (out.miss)
        return out.miss->stats.accesses;
    if (out.timed)
        return out.timed->cpu.uops;
    if (out.customEvents)
        return *out.customEvents;
    return 0;
}

std::uint64_t
resolvedSeed(const SweepJob &job, std::size_t index,
             std::uint64_t base_seed)
{
    return job.seed ? *job.seed : sweepSeed(base_seed, index);
}

/** Throw unless a synthetic (MissRate/Timed) job names a real run. */
void
checkSynthetic(const SweepJob &job)
{
    if (!isSpec2kName(job.workload))
        throw std::invalid_argument("unknown workload '" + job.workload +
                                    "'");
    if (job.length == 0)
        throw std::invalid_argument("zero-length job for '" +
                                    job.workload + "'");
}

/** Run one job; every failure is captured in the outcome. */
SweepOutcome
runOne(const SweepJob &job, std::size_t index, std::uint64_t base_seed)
{
    SweepOutcome out;
    out.index = index;
    out.seed = resolvedSeed(job, index, base_seed);
    const auto start = Clock::now();
    try {
        // Custom jobs carry their own workload in the callable and
        // trace jobs theirs in the file; the spec2k name and length
        // checks only apply to the built-in synthetic runners.
        if (job.kind == SweepJob::Kind::MissRate ||
            job.kind == SweepJob::Kind::Timed)
            checkSynthetic(job);
        switch (job.kind) {
          case SweepJob::Kind::MissRate:
            if (job.sample)
                out.miss = runMissRateSampled(job.workload, job.side,
                                              job.config, job.length,
                                              *job.sample, out.seed);
            else
                out.miss = runMissRate(job.workload, job.side,
                                       job.config, job.length, out.seed);
            break;
          case SweepJob::Kind::Timed:
            out.timed = runTimed(job.workload, job.config, job.length,
                                 out.seed, job.hierarchy);
            break;
          case SweepJob::Kind::Custom:
            if (!job.custom)
                throw std::invalid_argument("custom job '" +
                                            job.workload +
                                            "' has no callable");
            out.customEvents = job.custom(out.seed);
            break;
          case SweepJob::Kind::Trace: {
            TraceReplayOptions opts;
            opts.maxAccesses = job.length;
            opts.batchLen = job.traceBatchLen;
            opts.observe = job.observe;
            opts.handle = job.traceHandle;
            if (job.sample)
                out.miss = runTraceSampled(job.tracePath, job.config,
                                           *job.sample, opts,
                                           job.sampleFirstUnit,
                                           job.sampleUnitCount);
            else
                out.miss = runTraceReplay(job.tracePath, job.config,
                                          job.shard, opts);
            break;
          }
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    out.seconds = secondsSince(start);
    return out;
}

/** One schedulable piece of work: job indices sharing one stream. */
using WorkUnit = std::vector<std::size_t>;

/**
 * Group every unsampled MissRate job by (workload, side, length,
 * resolved seed) — the jobs that would each generate the identical
 * stream — keeping every other job a unit of its own. Units are
 * ordered by their first job and list their jobs in submission order.
 * While there are fewer units than @p threads, the largest group is
 * halved, so a one-workload sweep still spreads over the pool.
 */
std::vector<WorkUnit>
planUnits(const std::vector<SweepJob> &jobs, std::uint64_t base_seed,
          unsigned threads)
{
    using Key = std::tuple<std::string, StreamSide, std::uint64_t,
                           std::uint64_t>;
    std::map<Key, std::size_t> unit_of;
    std::vector<WorkUnit> units;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        if (job.kind != SweepJob::Kind::MissRate || job.sample) {
            units.push_back({i});
            continue;
        }
        const Key key{job.workload, job.side, job.length,
                      resolvedSeed(job, i, base_seed)};
        const auto [it, fresh] = unit_of.try_emplace(key, units.size());
        if (fresh)
            units.emplace_back();
        units[it->second].push_back(i);
    }
    while (units.size() < threads) {
        const auto largest = std::max_element(
            units.begin(), units.end(),
            [](const WorkUnit &a, const WorkUnit &b) {
                return a.size() < b.size();
            });
        if (largest->size() < 2)
            break;
        const auto mid = largest->begin() +
                         static_cast<std::ptrdiff_t>(
                             (largest->size() + 1) / 2);
        WorkUnit tail(mid, largest->end());
        largest->erase(mid, largest->end());
        units.push_back(std::move(tail));
    }
    return units;
}

/**
 * Run one unit into @p outcomes. A group runs as one fan-out session
 * and each cell is charged an equal share of its wall time; a group
 * that throws is rerun one cell at a time, so each cell fails (or
 * succeeds) exactly as it would alone.
 */
void
runUnit(const std::vector<SweepJob> &jobs, const WorkUnit &unit,
        std::uint64_t base_seed, std::vector<SweepOutcome> &outcomes)
{
    if (unit.size() > 1) {
        const auto start = Clock::now();
        const SweepJob &lead = jobs[unit.front()];
        const std::uint64_t seed =
            resolvedSeed(lead, unit.front(), base_seed);
        std::vector<MissRateResult> results;
        try {
            checkSynthetic(lead);
            std::vector<CacheConfig> configs;
            configs.reserve(unit.size());
            for (const std::size_t i : unit)
                configs.push_back(jobs[i].config);
            results = runMissRateFanOut(lead.workload, lead.side, configs,
                                        lead.length, seed);
        } catch (...) {
            // Leaves `results` empty: the cells rerun one by one below.
        }
        if (!results.empty()) {
            const double share =
                secondsSince(start) / static_cast<double>(unit.size());
            for (std::size_t k = 0; k < unit.size(); ++k) {
                SweepOutcome &out = outcomes[unit[k]];
                out.index = unit[k];
                out.seed = seed;
                out.miss = std::move(results[k]);
                out.seconds = share;
            }
            return;
        }
    }
    for (const std::size_t i : unit)
        outcomes[i] = runOne(jobs[i], i, base_seed);
}

} // namespace

SweepJob
SweepJob::missRate(std::string workload, StreamSide side,
                   CacheConfig config, std::uint64_t accesses,
                   std::optional<std::uint64_t> seed)
{
    SweepJob j;
    j.kind = Kind::MissRate;
    j.workload = std::move(workload);
    j.side = side;
    j.config = std::move(config);
    j.length = accesses;
    j.seed = seed;
    return j;
}

SweepJob
SweepJob::timed(std::string workload, CacheConfig config,
                std::uint64_t uops, std::optional<std::uint64_t> seed,
                HierarchyParams hierarchy)
{
    SweepJob j;
    j.kind = Kind::Timed;
    j.workload = std::move(workload);
    j.config = std::move(config);
    j.length = uops;
    j.seed = seed;
    j.hierarchy = hierarchy;
    return j;
}

SweepJob
SweepJob::customJob(std::string label,
                    std::function<std::uint64_t(std::uint64_t)> fn,
                    std::optional<std::uint64_t> seed)
{
    SweepJob j;
    j.kind = Kind::Custom;
    j.workload = std::move(label);
    j.custom = std::move(fn);
    j.seed = seed;
    return j;
}

SweepJob
SweepJob::traceReplay(std::string path, TraceShard shard,
                      CacheConfig config, std::uint64_t max_accesses,
                      std::size_t batch_len, ObserverConfig observe)
{
    SweepJob j;
    j.kind = Kind::Trace;
    j.workload = "trace:" + path;
    j.config = std::move(config);
    j.length = max_accesses;
    j.tracePath = std::move(path);
    j.shard = shard;
    j.traceBatchLen = batch_len;
    j.observe = observe;
    return j;
}

SweepJob
SweepJob::traceSampled(std::string path, CacheConfig config,
                       SamplePlan plan, std::uint64_t first_unit,
                       std::uint64_t unit_count,
                       std::uint64_t max_accesses, std::size_t batch_len)
{
    SweepJob j;
    j.kind = Kind::Trace;
    j.workload = "trace:" + path + "#sample" + plan.toString();
    j.config = std::move(config);
    j.length = max_accesses;
    j.tracePath = std::move(path);
    j.traceBatchLen = batch_len;
    j.sample = plan;
    j.sampleFirstUnit = first_unit;
    j.sampleUnitCount = unit_count;
    return j;
}

std::uint64_t
sweepSeed(std::uint64_t base_seed, std::size_t job_index)
{
    // One splitmix64 step at position (job_index + 1) of the stream
    // seeded by base_seed; +1 keeps job 0 from echoing the bare base
    // seed's first output used elsewhere.
    std::uint64_t x = base_seed +
                      (static_cast<std::uint64_t>(job_index) + 1) *
                          0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
SweepSummary::eventsPerSecond() const
{
    return wallSeconds > 0.0 ? double(events) / wallSeconds : 0.0;
}

SweepRun
runSweep(const std::vector<SweepJob> &jobs, const SweepOptions &options)
{
    SweepRun run;
    run.outcomes.resize(jobs.size());

    const unsigned requested =
        options.jobs ? options.jobs : defaultJobs();
    const unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(std::max(requested, 1u), jobs.size()));

    const auto start = Clock::now();
    const std::vector<WorkUnit> units =
        planUnits(jobs, options.baseSeed, threads);
    std::atomic<std::size_t> next{0};
    std::mutex progress_mutex;
    std::size_t done = 0;
    std::uint64_t events = 0;

    auto worker = [&] {
        for (;;) {
            const std::size_t u =
                next.fetch_add(1, std::memory_order_relaxed);
            if (u >= units.size())
                return;
            runUnit(jobs, units[u], options.baseSeed, run.outcomes);

            std::lock_guard<std::mutex> lock(progress_mutex);
            for (const std::size_t i : units[u]) {
                ++done;
                events += eventsOf(run.outcomes[i]);
                if (options.onProgress) {
                    SweepProgress p;
                    p.done = done;
                    p.total = jobs.size();
                    p.events = events;
                    p.seconds = secondsSince(start);
                    options.onProgress(p);
                }
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    run.summary.jobs = jobs.size();
    run.summary.threads = std::max(threads, 1u);
    run.summary.events = events;
    run.summary.wallSeconds = secondsSince(start);
    for (const auto &out : run.outcomes)
        if (!out.ok())
            ++run.summary.failed;
    return run;
}

const MissRateResult &
missResult(const SweepOutcome &outcome)
{
    if (!outcome.ok())
        bsim_fatal("sweep job ", outcome.index, " failed: ",
                   outcome.error);
    if (!outcome.miss)
        bsim_fatal("sweep job ", outcome.index,
                   " is not a miss-rate job");
    return *outcome.miss;
}

const TimedResult &
timedResult(const SweepOutcome &outcome)
{
    if (!outcome.ok())
        bsim_fatal("sweep job ", outcome.index, " failed: ",
                   outcome.error);
    if (!outcome.timed)
        bsim_fatal("sweep job ", outcome.index, " is not a timed job");
    return *outcome.timed;
}

void
printSweepSummary(const SweepSummary &summary)
{
    printSweepSummary(summary, stdout);
}

void
printSweepSummary(const SweepSummary &summary, std::FILE *out)
{
    Table t({"jobs", "failed", "threads", "wall-s", "sim-events",
             "Mevents/s"});
    t.row()
        .cell(std::uint64_t(summary.jobs))
        .cell(std::uint64_t(summary.failed))
        .cell(summary.threads)
        .cell(summary.wallSeconds, 2)
        .cell(summary.events)
        .cell(summary.eventsPerSecond() / 1e6, 2);
    t.print("sweep engine", out);
}

} // namespace bsim
