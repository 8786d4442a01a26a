/**
 * @file
 * The unified experiment session: one object that owns the access
 * source (synthetic workload stream, trace window, or sampled trace),
 * the DUT built from a declarative CacheConfig (cache/cache_spec.hh),
 * the observer wiring, and the export sinks (human report suppression,
 * bsim-stats-v1 JSON, per-set heatmap CSV, interval series).
 *
 * Before this layer, runner.cc, trace_replay.cc and the bsim driver
 * each re-implemented DUT setup, the batched access loops, observer
 * attach/harvest and result assembly. They are now thin adapters over
 * Session; the run loops live here, once, and the bit-identity
 * contracts (batched == per-access, span boundaries don't matter,
 * sampled unit sums are pure functions of (source, config, plan, k))
 * are pinned against this single implementation.
 */

#ifndef BSIM_SIM_SESSION_HH
#define BSIM_SIM_SESSION_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "workload/trace_reader.hh"

namespace bsim {

/** Knobs for one trace-replay session (moved from trace_replay.hh). */
struct TraceReplayOptions
{
    /** Stop after this many accesses (0 = the whole window). */
    std::uint64_t maxAccesses = 0;
    /** Span clamp fed to accessBatch; 0 = defaultBatchLen(). */
    std::size_t batchLen = 0;
    /** Ride a StatsObserver along (observe/observer.hh). */
    ObserverConfig observe;
    /**
     * Shared open-trace handle (workload/trace_reader.hh). When set,
     * readers are opened from it — the serving layer's TraceRegistry
     * reuses one mmap across concurrent requests this way. The trace
     * path must match the handle's; results are bit-identical to the
     * per-request open (same bytes, same windows).
     */
    TraceHandlePtr handle;
};

/**
 * One experiment run: a source, one or more DUTs, their observers,
 * one result per DUT.
 *
 * A Session is single-shot — construct, then call run(), runAll() or
 * runSampled() exactly once (the source is consumed). Stream sources
 * are caller-owned and borrowed; trace sources are opened and owned by
 * the session.
 *
 * A session over several configs fans its source out: each batch is
 * pulled once and fed to every DUT in config order before the next is
 * pulled, so each DUT sees exactly the access sequence a one-config
 * session over the same source would feed it, and its result is
 * bit-identical to that run's.
 */
class Session
{
  public:
    /**
     * Session over a caller-owned access stream (synthetic workload or
     * any other AccessStream). @p accesses is the run length — streams
     * are unbounded, so it is also the sampled population.
     */
    Session(AccessStream &stream, const CacheConfig &config,
            std::uint64_t accesses, std::string label,
            const ObserverConfig &observe = {},
            std::size_t batch_len = 0);

    /**
     * Fan-out session over a caller-owned access stream: one DUT per
     * entry of @p configs (each with its own observer when @p observe
     * is enabled), all fed from one pass over @p stream.
     */
    Session(AccessStream &stream, std::vector<CacheConfig> configs,
            std::uint64_t accesses, std::string label,
            const ObserverConfig &observe = {},
            std::size_t batch_len = 0);

    /**
     * Session over one window of a trace file (options.maxAccesses 0 =
     * the whole window). The trace is opened lazily at run time, so
     * constructing a Session for a missing file only fails when run.
     */
    Session(std::string trace_path, const CacheConfig &config,
            const TraceShard &shard = {},
            const TraceReplayOptions &options = {});

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;

    /**
     * Full run: every record of the source window through the
     * session's one DUT — runAll() over a list of one.
     */
    MissRateResult run();

    /**
     * Full run of every DUT over one pass of the source; result i
     * belongs to config i.
     */
    std::vector<MissRateResult> runAll();

    /**
     * Sampled run (sim/sampling.hh): simulate only @p plan's units,
     * each from a cold cache with its warmup fenced off by a stats
     * snapshot. Seekable sources (traces) skip between units in O(1)
     * and accept a unit range [first_unit, first_unit + unit_count)
     * for sharding (unit_count 0 = through the last unit); stream
     * sources are consumed in one forward pass, discarding records
     * between units, and must run the full unit list. Needs a
     * one-config session.
     */
    MissRateResult runSampled(const SamplePlan &plan,
                              std::uint64_t first_unit = 0,
                              std::uint64_t unit_count = 0);

    /** The workload label results will carry. */
    const std::string &label() const { return label_; }

  private:
    MissRateResult finish(const CacheConfig &config, BaseCache &cache,
                          const StatsObserver *obs,
                          bool collect_aggregates) const;
    std::uint64_t sampledPopulation() const;

    std::vector<CacheConfig> configs_;
    std::string label_;
    ObserverConfig observe_;
    std::uint64_t maxAccesses_ = 0;
    std::size_t batchLen_ = 0;

    AccessStream *stream_ = nullptr; ///< borrowed; null for traces
    std::string tracePath_;          ///< non-empty for trace sources
    TraceShard shard_;
    TraceHandlePtr handle_;          ///< optional shared open trace
};

/**
 * The observer-driven export set shared by every driver path: the
 * bsim-stats-v1 document, the per-set heatmap CSV, and — when no JSON
 * document captures it — the interval series CSV on stdout. (Moved
 * from the bsim driver so any harness can reuse the sink wiring.)
 */
struct StatsExport
{
    std::string statsJsonPath; ///< empty = off; "-" = stdout
    std::string heatmapPath;   ///< empty = off; "-" = stdout
    std::uint64_t interval = 0;

    bool
    wantsObserver() const
    {
        return !statsJsonPath.empty() || !heatmapPath.empty() ||
               interval > 0;
    }

    ObserverConfig
    observerConfig() const
    {
        ObserverConfig c;
        c.enabled = wantsObserver();
        c.intervalLen = interval;
        return c;
    }

    /**
     * A "-" export owns stdout: the human-readable report is
     * suppressed so the emitted document stays machine-parseable.
     */
    bool
    claimsStdout() const
    {
        return statsJsonPath == "-" || heatmapPath == "-";
    }
};

/** Write @p text to @p path, with "-" meaning stdout. */
void writeTextOutput(const std::string &path, const std::string &text);

/** Emit the heatmap/interval CSV exports for one observed run. */
void writeObserverExports(const StatsExport &ex,
                          const ObserverReport &rep);

/**
 * Compose a two-level hierarchy from a declarative HierarchySpec: both
 * L1 slots built from spec.l1, the shared L2 and memory from
 * spec.params (defaults = kTable4Hierarchy).
 */
CacheHierarchy makeHierarchy(const HierarchySpec &spec);

} // namespace bsim

#endif // BSIM_SIM_SESSION_HH
