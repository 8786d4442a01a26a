/**
 * @file
 * Experiment runners shared by the benchmark harnesses and the examples:
 * standalone miss-rate runs over one address stream, and full timed runs
 * (OOO core + two-level hierarchy) that also collect the activity counts
 * the energy model consumes.
 */

#ifndef BSIM_SIM_RUNNER_HH
#define BSIM_SIM_RUNNER_HH

#include <optional>
#include <vector>

#include "bcache/balance.hh"
#include "bcache/bcache.hh"
#include "cpu/ooo_core.hh"
#include "observe/observer.hh"
#include "power/energy_model.hh"
#include "sim/config.hh"
#include "sim/sampling.hh"
#include "workload/spec2k.hh"

namespace bsim {

/** Which of a workload's streams to run. */
enum class StreamSide : std::uint8_t { Inst, Data };

/** Workload seed behind every table in EXPERIMENTS.md. */
inline constexpr std::uint64_t kDefaultSeed = 0xb5eedULL;

/** Result of a standalone miss-rate run. */
struct MissRateResult
{
    std::string workload;
    std::string config;
    CacheStats stats;
    std::optional<PdStats> pd;       ///< B-Cache runs only
    std::uint64_t victimHits = 0;    ///< victim runs only
    BalanceReport balance;           ///< Table 7 classification
    /** Collected when the run was observed (ObserverConfig::enabled). */
    std::optional<ObserverReport> observer;
    /**
     * Present for sampled runs (sim/sampling.hh): the per-unit sums and
     * plan behind the estimate. `stats` then holds the measured-unit
     * counters only (warmup excluded), so stats.missRate() equals the
     * point estimate; balance/pd/victimHits are not collected (each unit
     * runs its own short-lived cache).
     */
    std::optional<SampledStats> sampled;

    double missRate() const { return stats.missRate(); }
};

/**
 * Run @p accesses of one side of a workload through a standalone cache
 * (misses are counted but not forwarded). When @p observe is enabled a
 * StatsObserver rides along and its report (with the B-Cache decoder
 * occupancy snapshot, if applicable) lands in MissRateResult::observer.
 */
MissRateResult runMissRate(const std::string &workload_name,
                           StreamSide side, const CacheConfig &config,
                           std::uint64_t accesses,
                           std::uint64_t seed = kDefaultSeed,
                           const ObserverConfig &observe = {});

/** As above but over an explicit stream (trace replay etc.). */
MissRateResult runMissRateOn(AccessStream &stream,
                             const CacheConfig &config,
                             std::uint64_t accesses,
                             const std::string &workload_label,
                             const ObserverConfig &observe = {});

/**
 * Fan-out runMissRate(): build the workload once and feed each batch
 * of its stream to one DUT per entry of @p configs. Result i is
 * bit-identical to runMissRate(workload_name, side, configs[i],
 * accesses, seed, observe); only the generator work is shared.
 */
std::vector<MissRateResult> runMissRateFanOut(
    const std::string &workload_name, StreamSide side,
    const std::vector<CacheConfig> &configs, std::uint64_t accesses,
    std::uint64_t seed = kDefaultSeed, const ObserverConfig &observe = {});

/**
 * Sampled variant of runMissRate(): treat the first @p accesses of the
 * stream as the population and simulate only @p plan's units (warmup
 * included, unmeasured), each from a cold cache. The stream is consumed
 * in one forward pass — records between units are generated and
 * discarded, so the win over a full run is the cache-model cost, not the
 * generator cost (trace files additionally skip the discarded records
 * entirely; see runTraceSampled). When a warmup window would reach back
 * into the previous unit it is clamped to start after it.
 */
MissRateResult runMissRateSampled(const std::string &workload_name,
                                  StreamSide side,
                                  const CacheConfig &config,
                                  std::uint64_t accesses,
                                  const SamplePlan &plan,
                                  std::uint64_t seed = kDefaultSeed);

/** Result of a timed run. */
struct TimedResult
{
    std::string workload;
    std::string config;
    CpuResult cpu;
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    ActivityCounts activity;
    double ipc() const { return cpu.ipc(); }
};

/**
 * Run @p uops through the OOO core (paper Table 4 processor) with both L1
 * caches built from @p config, a shared 256 kB L2 and 100-cycle memory.
 */
TimedResult runTimed(const std::string &workload_name,
                     const CacheConfig &config, std::uint64_t uops,
                     std::uint64_t seed = kDefaultSeed,
                     const HierarchyParams &hierarchy_params = {});

/** Per-event energy rates for @p config (CactiLite + paper methodology). */
EnergyRates energyRatesFor(const CacheConfig &config,
                           PicoJoules static_per_cycle = 0);

/** Environment-tunable run lengths (BSIM_ACCESSES / BSIM_UOPS). */
std::uint64_t defaultAccesses(std::uint64_t fallback = 2'000'000);
std::uint64_t defaultUops(std::uint64_t fallback = 1'000'000);

/**
 * Attach a StatsObserver to @p cache for the duration of a run. Returns
 * null (and attaches nothing) when @p observe is disabled. Shared by
 * runMissRateOn() and runTraceReplay().
 */
std::unique_ptr<StatsObserver> attachObserver(
    BaseCache &cache, const ObserverConfig &observe);

/**
 * Harvest the attached observer's report at end of run, folding in the
 * B-Cache decoder occupancy snapshot; nullopt when @p obs is null.
 */
std::optional<ObserverReport> harvestObserver(const StatsObserver *obs,
                                              BaseCache &cache);

/** Batch length runMissRateOn() feeds through MemLevel::accessBatch. */
inline constexpr std::size_t kDefaultBatchLen = 1024;

/**
 * Environment-tunable batch length (BSIM_BATCH): 0 or 1 selects the
 * per-access path (the two are bit-identical; the knob exists for
 * debugging and for the self-relative perf gate).
 */
std::size_t defaultBatchLen();

} // namespace bsim

#endif // BSIM_SIM_RUNNER_HH
