#include "sim/session.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "cache/victim_cache.hh"
#include "common/logging.hh"
#include "observe/export.hh"

namespace bsim {

namespace {

std::string
replayLabel(const std::string &path, const TraceShard &shard)
{
    if (shard.firstRecord == 0 &&
        shard.recordCount == kUnknownRecordCount)
        return "trace:" + path;
    const std::string count =
        shard.recordCount == kUnknownRecordCount
            ? std::string("rest")
            : std::to_string(shard.recordCount);
    return "trace:" + path + "[" + std::to_string(shard.firstRecord) +
           "+" + count + ")";
}

} // namespace

Session::Session(AccessStream &stream, const CacheConfig &config,
                 std::uint64_t accesses, std::string label,
                 const ObserverConfig &observe, std::size_t batch_len)
    : Session(stream, std::vector<CacheConfig>{config}, accesses,
              std::move(label), observe, batch_len)
{
}

Session::Session(AccessStream &stream, std::vector<CacheConfig> configs,
                 std::uint64_t accesses, std::string label,
                 const ObserverConfig &observe, std::size_t batch_len)
    : configs_(std::move(configs)),
      label_(std::move(label)),
      observe_(observe),
      maxAccesses_(accesses),
      batchLen_(batch_len),
      stream_(&stream)
{
    bsim_assert(!configs_.empty());
}

Session::Session(std::string trace_path, const CacheConfig &config,
                 const TraceShard &shard,
                 const TraceReplayOptions &options)
    : configs_{config},
      label_(replayLabel(trace_path, shard)),
      observe_(options.observe),
      maxAccesses_(options.maxAccesses),
      batchLen_(options.batchLen),
      tracePath_(std::move(trace_path)),
      shard_(shard),
      handle_(options.handle)
{
    if (handle_)
        bsim_assert(handle_->path() == tracePath_);
}

MissRateResult
Session::finish(const CacheConfig &config, BaseCache &cache,
                const StatsObserver *obs, bool collect_aggregates) const
{
    MissRateResult r;
    r.workload = label_;
    r.config = config.label;
    r.stats = cache.stats();
    if (!collect_aggregates)
        return r; // sampled: per-unit caches, no aggregate state
    r.balance = analyzeBalance(cache.setUsage());
    if (auto *bc = dynamic_cast<BCache *>(&cache))
        r.pd = bc->pdStats();
    if (auto *vc = dynamic_cast<VictimCache *>(&cache))
        r.victimHits = vc->victimHits();
    r.observer = harvestObserver(obs, cache);
    return r;
}

MissRateResult
Session::run()
{
    bsim_assert(configs_.size() == 1);
    return std::move(runAll().front());
}

std::vector<MissRateResult>
Session::runAll()
{
    std::vector<std::unique_ptr<BaseCache>> duts;
    std::vector<std::unique_ptr<StatsObserver>> observers;
    for (const CacheConfig &c : configs_) {
        duts.push_back(c.build(c.label, 1, nullptr));
        observers.push_back(attachObserver(*duts.back(), observe_));
    }
    const std::size_t batch_len =
        batchLen_ ? batchLen_ : defaultBatchLen();
    std::vector<AccessOutcome> outs(std::max<std::size_t>(batch_len, 1));

    // Every record goes to each DUT in config order before the next
    // one is pulled: a DUT's sequence never depends on its neighbours.
    auto feed_one = [&](const MemAccess &a) {
        for (auto &d : duts)
            d->access(a);
    };
    auto feed = [&](std::span<const MemAccess> s) {
        for (auto &d : duts)
            d->accessBatch(s, outs.data());
    };

    if (stream_) {
        AccessStream &stream = *stream_;
        const std::uint64_t accesses = maxAccesses_;
        if (batch_len <= 1) {
            for (std::uint64_t i = 0; i < accesses; ++i)
                feed_one(stream.next());
        } else if (stream.hasSpanBatches()) {
            // Zero-copy hot loop for trace-backed streams: the stream
            // hands out views of its own chunk buffer (the mmap itself
            // for uncompressed BST2), which go straight into
            // accessBatch with no per-record copy. Batch boundaries
            // differ from the copying path (spans stop at chunk edges)
            // but results are bit-identical — the accessBatch contract
            // (verify/batch_equiv) is boundary-independent. An empty
            // span means the bounded, non-cycling trace ran out before
            // @p accesses; the run ends there.
            for (std::uint64_t left = accesses; left > 0;) {
                const std::span<const MemAccess> s = stream.nextSpan(
                    static_cast<std::size_t>(
                        std::min<std::uint64_t>(batch_len, left)));
                if (s.empty())
                    break;
                feed(s);
                left -= s.size();
            }
        } else {
            // Hot loop of every miss-rate experiment: stream and cache
            // both work in fixed-size batches (bit-identical to the
            // per-access path — see MemLevel::accessBatch). A fan-out
            // session reuses each batch for every DUT while it is
            // still in the host's cache.
            std::vector<MemAccess> reqs(batch_len);
            for (std::uint64_t left = accesses; left > 0;) {
                const std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(batch_len, left));
                stream.nextBatch(reqs.data(), n);
                feed({reqs.data(), n});
                left -= n;
            }
        }
    } else {
        TraceReaderPtr reader = handle_
                                    ? openTraceReader(handle_, shard_)
                                    : openTraceReader(tracePath_, shard_);
        // Per-access path (BSIM_BATCH=0/1): still streamed one chunk
        // at a time, just replayed record by record. The batched path
        // takes spans straight from the reader's chunk buffer (the
        // mmap itself for uncompressed BST2), so nothing is copied per
        // record on the way into accessBatch.
        const std::size_t chunk = batch_len <= 1 ? 65536 : batch_len;
        std::uint64_t left =
            maxAccesses_ ? maxAccesses_ : ~std::uint64_t{0};
        while (left > 0) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, chunk));
            // Re-clamp what actually came back: nextSpan() promises at
            // most `want` records, but `left -= size` is an unsigned
            // subtraction that would wrap past maxAccesses if a reader
            // ever over-delivered, so don't let a buggy reader turn a
            // bounded replay into a (near-)unbounded one. The clamp
            // also keeps an over-delivering reader from overrunning
            // `outs`.
            std::span<const MemAccess> s = reader->nextSpan(want);
            s = s.first(std::min(s.size(), want));
            if (s.empty())
                break;
            if (batch_len <= 1)
                for (const MemAccess &a : s)
                    feed_one(a);
            else
                feed(s);
            left -= s.size();
        }
    }

    std::vector<MissRateResult> results;
    results.reserve(duts.size());
    for (std::size_t i = 0; i < duts.size(); ++i)
        results.push_back(
            finish(configs_[i], *duts[i], observers[i].get(), true));
    return results;
}

std::uint64_t
Session::sampledPopulation() const
{
    if (stream_) {
        if (maxAccesses_ == 0)
            bsim_fatal(
                "sampled run needs a nonzero population (accesses)");
        return maxAccesses_;
    }
    const TraceInfo info =
        handle_ ? handle_->info() : probeTrace(tracePath_);
    if (info.recordCount == kUnknownRecordCount)
        bsim_fatal("cannot sample text trace '", tracePath_,
                   "': the record count is unknown without a full "
                   "scan; convert it to .bst first (docs/TRACES.md)");
    std::uint64_t records = info.recordCount;
    if (maxAccesses_)
        records = std::min(records, maxAccesses_);
    return records;
}

MissRateResult
Session::runSampled(const SamplePlan &plan, std::uint64_t first_unit,
                    std::uint64_t unit_count)
{
    bsim_assert(configs_.size() == 1);
    const CacheConfig &config = configs_.front();
    if (observe_.enabled)
        bsim_fatal("sampled replay cannot ride an observer: each unit "
                   "runs its own short-lived cache, so there is no "
                   "aggregate per-set state to observe");
    const std::uint64_t records = sampledPopulation();
    const std::uint64_t n_units = plan.unitsFor(records);
    const std::size_t batch_len = std::max<std::size_t>(
        batchLen_ ? batchLen_ : defaultBatchLen(), 1);
    std::vector<AccessOutcome> outs(batch_len);

    SampledStats sampled;
    sampled.plan = plan;
    sampled.records = records;
    CacheStats total;

    if (stream_) {
        if (first_unit != 0 || unit_count != 0)
            bsim_fatal("sampled unit ranges need a seekable trace "
                       "source; streams run the full unit list");
        AccessStream &stream = *stream_;
        sampled.units.reserve(static_cast<std::size_t>(n_units));
        std::vector<MemAccess> reqs(batch_len);

        // One forward pass: streams cannot seek, so records between
        // units are pulled and discarded (generation cost only);
        // warmup and measured records are fed through the batched hot
        // path.
        std::uint64_t pos = 0;
        auto pump = [&](std::uint64_t n, BaseCache *cache) {
            while (n > 0) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, batch_len));
                std::size_t got = want;
                if (stream.hasSpanBatches()) {
                    std::span<const MemAccess> s = stream.nextSpan(want);
                    s = s.first(std::min(s.size(), want));
                    if (s.empty())
                        bsim_fatal("stream '", label_,
                                   "' exhausted at record ", pos,
                                   " of a declared ", records,
                                   "-record population");
                    if (cache)
                        cache->accessBatch(s, outs.data());
                    got = s.size();
                } else {
                    stream.nextBatch(reqs.data(), want);
                    if (cache)
                        cache->accessBatch({reqs.data(), want},
                                           outs.data());
                }
                pos += got;
                n -= got;
            }
        };

        for (std::uint64_t k = 0; k < n_units; ++k) {
            const std::uint64_t s0 = k * plan.period;
            const std::uint64_t e =
                std::min(s0 + plan.unitLen, records);
            // Clamp the warmup window so it never reaches back into
            // records already consumed (the previous unit, or the
            // stream start).
            const std::uint64_t w0 =
                std::max(s0 >= plan.warmup ? s0 - plan.warmup : 0, pos);
            pump(w0 - pos, nullptr);
            auto cache = config.build(config.label, 1, nullptr);
            pump(s0 - pos, cache.get());
            const CacheStats after_warmup = cache->stats();
            pump(e - pos, cache.get());
            CacheStats delta = cache->stats();
            delta -= after_warmup;
            total += delta;
            sampled.units.push_back({k, delta.accesses, delta.misses});
        }
    } else {
        const std::uint64_t u0 = std::min(first_unit, n_units);
        const std::uint64_t u1 =
            unit_count == 0 ? n_units
                            : std::min(u0 + unit_count, n_units);
        sampled.units.reserve(static_cast<std::size_t>(u1 - u0));
        TraceReaderPtr reader = handle_ ? openTraceReader(handle_)
                                        : openTraceReader(tracePath_);

        auto pump = [&](BaseCache &cache, std::uint64_t n) {
            while (n > 0) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, batch_len));
                // Same defensive clamp as the full replay loop.
                std::span<const MemAccess> s = reader->nextSpan(want);
                s = s.first(std::min(s.size(), want));
                if (s.empty())
                    bsim_fatal("trace '", tracePath_,
                               "' ended at record ", reader->position(),
                               " inside a sampling unit");
                cache.accessBatch(s, outs.data());
                n -= s.size();
            }
        };

        for (std::uint64_t k = u0; k < u1; ++k) {
            // Unit k measures [k*P, min(k*P + U, records)), warmed up
            // from a cold cache over the W records before it.
            // Simulating every unit independently is what makes a
            // unit's sums a pure function of (trace, config, plan, k)
            // — the bit-identity contract sharding relies on.
            const std::uint64_t start = k * plan.period;
            const std::uint64_t end =
                std::min(start + plan.unitLen, records);
            const std::uint64_t warm_start =
                start >= plan.warmup ? start - plan.warmup : 0;
            reader->skipTo(warm_start);
            auto cache = config.build(config.label, 1, nullptr);
            pump(*cache, start - warm_start);
            const CacheStats after_warmup = cache->stats();
            pump(*cache, end - start);
            CacheStats delta = cache->stats();
            delta -= after_warmup;
            total += delta;
            sampled.units.push_back({k, delta.accesses, delta.misses});
        }
    }

    MissRateResult r;
    r.workload = label_;
    r.config = config.label;
    r.stats = total;
    r.sampled = std::move(sampled);
    return r;
}

void
writeTextOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        bsim_fatal("cannot write '", path, "'");
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

void
writeObserverExports(const StatsExport &ex, const ObserverReport &rep)
{
    if (!ex.heatmapPath.empty())
        writeTextOutput(ex.heatmapPath, heatmapCsv(rep));
    // The interval series rides inside --stats-json when one is being
    // written; --interval alone dumps it as CSV on stdout.
    if (ex.interval > 0 && ex.statsJsonPath.empty())
        std::fputs(intervalCsv(rep).c_str(), stdout);
}

CacheHierarchy
makeHierarchy(const HierarchySpec &spec)
{
    CacheHierarchy hier(spec.params);
    hier.setL1I(spec.l1.build("L1I", spec.params.l1HitLatency, nullptr));
    hier.setL1D(spec.l1.build("L1D", spec.params.l1HitLatency, nullptr));
    return hier;
}

} // namespace bsim
