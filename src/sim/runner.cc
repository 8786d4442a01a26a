#include "sim/runner.hh"

#include <cstdlib>

#include "cache/victim_cache.hh"
#include "common/logging.hh"
#include "power/cacti_lite.hh"
#include "sim/session.hh"

namespace bsim {

namespace {

std::uint64_t
envCount(const char *var, std::uint64_t fallback)
{
    const char *v = std::getenv(var);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end == v || n == 0) {
        bsim_warn("ignoring bad ", var, "='", v, "'");
        return fallback;
    }
    return n;
}

} // namespace

std::uint64_t
defaultAccesses(std::uint64_t fallback)
{
    return envCount("BSIM_ACCESSES", fallback);
}

std::size_t
defaultBatchLen()
{
    // BSIM_BATCH=0 (or 1) falls back to the per-access path; any other
    // value is the batch length. Unlike envCount, 0 is meaningful here.
    const char *v = std::getenv("BSIM_BATCH");
    if (!v || !*v)
        return kDefaultBatchLen;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end == v || *end) {
        bsim_warn("ignoring bad BSIM_BATCH='", v, "'");
        return kDefaultBatchLen;
    }
    return static_cast<std::size_t>(n);
}

std::uint64_t
defaultUops(std::uint64_t fallback)
{
    return envCount("BSIM_UOPS", fallback);
}

std::unique_ptr<StatsObserver>
attachObserver(BaseCache &cache, const ObserverConfig &observe)
{
    if (!observe.enabled)
        return nullptr;
    auto obs = std::make_unique<StatsObserver>(
        cache.setUsage().usage().size(), observe);
    cache.setCacheObserver(obs.get());
    return obs;
}

std::optional<ObserverReport>
harvestObserver(const StatsObserver *obs, BaseCache &cache)
{
    if (!obs)
        return std::nullopt;
    ObserverReport rep = obs->report();
    if (auto *bc = dynamic_cast<BCache *>(&cache))
        rep.pdOccupancy = bc->groupOccupancy();
    return rep;
}

MissRateResult
runMissRateOn(AccessStream &stream, const CacheConfig &config,
              std::uint64_t accesses, const std::string &workload_label,
              const ObserverConfig &observe)
{
    return Session(stream, config, accesses, workload_label, observe)
        .run();
}

MissRateResult
runMissRateSampledOn(AccessStream &stream, const CacheConfig &config,
                     std::uint64_t accesses, const SamplePlan &plan,
                     const std::string &workload_label)
{
    return Session(stream, config, accesses, workload_label)
        .runSampled(plan);
}

MissRateResult
runMissRateSampled(const std::string &workload_name, StreamSide side,
                   const CacheConfig &config, std::uint64_t accesses,
                   const SamplePlan &plan, std::uint64_t seed)
{
    SpecWorkload wl = makeSpecWorkload(workload_name, seed);
    AccessStream &stream =
        side == StreamSide::Inst ? *wl.inst : *wl.data;
    return runMissRateSampledOn(stream, config, accesses, plan,
                                workload_name);
}

MissRateResult
runMissRate(const std::string &workload_name, StreamSide side,
            const CacheConfig &config, std::uint64_t accesses,
            std::uint64_t seed, const ObserverConfig &observe)
{
    return std::move(runMissRateFanOut(workload_name, side, {config},
                                       accesses, seed, observe)
                         .front());
}

std::vector<MissRateResult>
runMissRateFanOut(const std::string &workload_name, StreamSide side,
                  const std::vector<CacheConfig> &configs,
                  std::uint64_t accesses, std::uint64_t seed,
                  const ObserverConfig &observe)
{
    SpecWorkload wl = makeSpecWorkload(workload_name, seed);
    AccessStream &stream =
        side == StreamSide::Inst ? *wl.inst : *wl.data;
    return Session(stream, configs, accesses, workload_name, observe)
        .runAll();
}

TimedResult
runTimed(const std::string &workload_name, const CacheConfig &config,
         std::uint64_t uops, std::uint64_t seed,
         const HierarchyParams &hierarchy_params)
{
    CacheHierarchy hier(hierarchy_params);
    hier.setL1I(config.build("L1I", 1, nullptr));
    hier.setL1D(config.build("L1D", 1, nullptr));

    SpecWorkload wl = makeSpecWorkload(workload_name, seed);
    SyntheticProgram program(std::move(wl), seed ^ 0xc0ffee);
    OooCore core(CoreParams{}, hier);
    const CpuResult cpu = core.run(program, uops);

    TimedResult r;
    r.workload = workload_name;
    r.config = config.label;
    r.cpu = cpu;
    r.l1i = hier.l1i().stats();
    r.l1d = hier.l1d().stats();
    r.l2 = hier.l2().stats();

    ActivityCounts &a = r.activity;
    a.l1iAccesses = r.l1i.accesses;
    a.l1iMisses = r.l1i.misses;
    a.l1dAccesses = r.l1d.accesses;
    a.l1dMisses = r.l1d.misses;
    a.l2Accesses = r.l2.accesses + r.l1i.writebacks + r.l1d.writebacks;
    a.l2Misses = r.l2.misses;
    a.offchipAccesses = hier.memory().totalAccesses();
    a.cycles = cpu.cycles;
    if (auto *vi = dynamic_cast<VictimCache *>(&hier.l1i()))
        a.victimProbes += vi->victimProbes();
    if (auto *vd = dynamic_cast<VictimCache *>(&hier.l1d()))
        a.victimProbes += vd->victimProbes();
    if (auto *bi = dynamic_cast<BCache *>(&hier.l1i()))
        a.pdPredictedMisses += bi->pdStats().pdMiss;
    if (auto *bd = dynamic_cast<BCache *>(&hier.l1d()))
        a.pdPredictedMisses += bd->pdStats().pdMiss;
    return r;
}

EnergyRates
energyRatesFor(const CacheConfig &config, PicoJoules static_per_cycle)
{
    // The baseline L1 anchors the off-chip energy (100x, Section 6.2).
    CacheOrg base_org;
    base_org.sizeBytes = config.sizeBytes;
    base_org.lineBytes = config.lineBytes;
    base_org.ways = 1;
    const PicoJoules base_l1 =
        CactiLite::conventional(base_org).total();

    EnergyRates r;
    switch (config.kind) {
      case CacheKind::SetAssoc: {
        CacheOrg org = base_org;
        org.ways = config.ways;
        r.l1iAccess = r.l1dAccess = CactiLite::conventional(org).total();
        break;
      }
      case CacheKind::XorDm:
        // The XOR stage is a handful of gates; per-access energy is the
        // direct-mapped array's.
        r.l1iAccess = r.l1dAccess = base_l1;
        break;
      case CacheKind::Victim:
        r.l1iAccess = r.l1dAccess = base_l1;
        r.victimProbe = CactiLite::victimBufferProbeEnergy(
            config.victimEntries, config.lineBytes);
        break;
      case CacheKind::BCache: {
        const CacheEnergyBreakdown e =
            CactiLite::bcache(config.bcacheParams());
        r.l1iAccess = r.l1dAccess = e.total();
        // A PD-predicted miss skips the SRAM array reads; only the CAM
        // search and decode energy is spent.
        r.pdMissRefund = e.tagSense + e.tagBitWordline + e.dataSense +
                         e.dataBitWordline + e.dataOther;
        break;
      }
      case CacheKind::ColumnAssoc:
      case CacheKind::Skewed:
      case CacheKind::PartialMatch: {
        CacheOrg org = base_org;
        org.ways = config.kind == CacheKind::ColumnAssoc ? 1
                                                         : config.ways;
        r.l1iAccess = r.l1dAccess = CactiLite::conventional(org).total();
        break;
      }
      case CacheKind::Hac: {
        CacheOrg org = base_org;
        org.ways = static_cast<std::uint32_t>(config.hacSubarrayBytes /
                                              config.lineBytes);
        // CAM tag search replaces the tag read; approximate with the
        // conventional organisation plus a full-tag CAM search.
        CacheEnergyBreakdown e = CactiLite::conventional(org);
        e.camSearch = CactiLite::camSearchEnergy(26, org.ways);
        r.l1iAccess = r.l1dAccess = e.total();
        break;
      }
    }

    CacheOrg l2_org;
    l2_org.sizeBytes = kTable4Hierarchy.l2SizeBytes;
    l2_org.lineBytes = kTable4Hierarchy.l2LineBytes;
    l2_org.ways = kTable4Hierarchy.l2Ways;
    l2_org.dataSubarrays = 16;
    l2_org.tagSubarrays = 16;
    r.l2Access = CactiLite::conventional(l2_org).total();
    r.l2Refill = 0.5 * r.l2Access;
    r.l1Refill = 0.5 * r.l1dAccess;
    r.offchipAccess = 100.0 * base_l1;
    r.staticPerCycle = static_per_cycle;
    return r;
}

} // namespace bsim
