#include "layers.hh"

#include <sys/socket.h>

#include <algorithm>
#include <optional>
#include <span>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "observe/export.hh"
#include "serve/client.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "sim/session.hh"
#include "workload/spec2k.hh"
#include "workload/trace_reader.hh"

namespace perfbench {

using namespace bsim;

namespace {

/** Records the engine probes run over (prebuilt spans). */
constexpr std::size_t kLadderAccesses = 1'000'000;
/** Records of the trace the ladder writes when a workload has none. */
constexpr std::uint64_t kProbeTraceRecords = 2'000'000;
constexpr std::size_t kBatch = kDefaultBatchLen;
constexpr int kRepeats = 3;
/** Repeats of the probes that subtract two timings. */
constexpr int kPaired = 5;

struct Variant
{
    const char *name;
    const char *spec;
};
constexpr Variant kVariants[] = {{"dm", "dm:16kB"},
                                 {"sa8", "sa:16kB,8w"},
                                 {"victim", "dm:16kB+victim:16"},
                                 {"bcache", kPaperBCache}};
constexpr std::size_t kBCache = 3; ///< index of the paper's B-Cache

/** Call @p f @p n times; each call's wall time in seconds. */
template <typename F>
std::vector<double>
timeEach(int n, F &&f)
{
    std::vector<double> s;
    for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        f();
        s.push_back(secondsBetween(t0, Clock::now()));
    }
    return s;
}

/** Feed @p recs through @p cache in kBatch spans; seconds taken. */
double
timeEngine(BaseCache &cache, const std::vector<MemAccess> &recs)
{
    std::vector<AccessOutcome> out(kBatch);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < recs.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, recs.size() - i);
        cache.accessBatch(std::span<const MemAccess>(recs.data() + i, n),
                          out.data());
    }
    return secondsBetween(t0, Clock::now());
}

class Ladder
{
  public:
    Ladder(const LadderInputs &in, const RunOptions &opt,
           SpanRecorder &spans, Tally &tally)
        : in_(in), opt_(opt), spans_(spans), tally_(tally),
          root_(spans.begin("bench.ladder"))
    {
    }
    ~Ladder() { spans_.end(root_); }
    Ladder(const Ladder &) = delete;
    Ladder &operator=(const Ladder &) = delete;

    std::vector<Metric>
    run()
    {
        workloadLayer();
        cacheAndObserveLayers();
        simLayer();
        bsimLayer();
        serveLayer();
        return std::move(metrics_);
    }

  private:
    void
    add(const std::string &name, double value, const char *unit,
        std::uint64_t samples)
    {
        metrics_.push_back({name, value, unit, samples});
    }

    /** A span under the ladder's root, closed by the returned guard. */
    ScopedSpan
    span(const std::string &name)
    {
        return ScopedSpan(spans_, name, root_);
    }

    AccessStream &
    streamOf(SpecWorkload &w) const
    {
        return in_.side == StreamSide::Inst ? *w.inst : *w.data;
    }

    void
    workloadLayer()
    {
        constexpr int kMakes = 20;
        const auto make = timeEach(kMakes, [&] {
            auto s = span("workload.makeSpecWorkload");
            makeSpecWorkload(kStreamWorkload, in_.streamSeed);
        });
        add("workload.make_us", median(make) * 1e6, "us", kMakes);

        std::vector<MemAccess> buf(kLadderAccesses);
        std::vector<double> gen;
        for (int r = 0; r < kRepeats; ++r) {
            SpecWorkload w = makeSpecWorkload(kStreamWorkload, in_.streamSeed);
            AccessStream &stream = streamOf(w);
            auto s = span("workload.nextBatch");
            gen.push_back(timeEach(1, [&] {
                for (std::size_t i = 0; i < buf.size(); i += kBatch)
                    stream.nextBatch(buf.data() + i,
                                     std::min(kBatch, buf.size() - i));
            })[0]);
        }
        add("workload.gen_macc_per_s",
            static_cast<double>(kLadderAccesses) / median(gen) / 1e6,
            "Macc/s", kRepeats);

        trace_ = in_.tracePath;
        if (trace_.empty()) {
            trace_ = opt_.workDir + "/ladder_probe.bst";
            auto s = span("workload.writeTrace");
            writeSyntheticTrace(trace_, kStreamWorkload, in_.side,
                                in_.streamSeed, kProbeTraceRecords);
        }
        const auto open = timeEach(5, [&] {
            auto s = span("workload.openTraceReader");
            openTraceReader(trace_);
        });
        add("workload.trace_open_ms", median(open) * 1e3, "ms", 5);

        const std::uint64_t records = probeTrace(trace_).recordCount;
        std::vector<double> decode;
        for (int r = 0; r < kRepeats; ++r)
            decode.push_back(timeDecode(records));
        add("workload.decode_macc_per_s",
            static_cast<double>(records) / median(decode) / 1e6, "Macc/s",
            kRepeats);

        // The engine probes' prebuilt spans: the head of the trace.
        TraceReaderPtr reader = openTraceReader(trace_);
        recs_.clear();
        while (recs_.size() < kLadderAccesses) {
            const auto sp =
                reader->nextSpan(kLadderAccesses - recs_.size());
            if (sp.empty())
                break;
            recs_.insert(recs_.end(), sp.begin(), sp.end());
        }
    }

    void
    cacheAndObserveLayers()
    {
        const CacheConfig bc = parseCacheSpec(kVariants[kBCache].spec);
        constexpr int kBuilds = 50;
        const auto build = timeEach(kBuilds, [&] {
            auto s = span("cache.build");
            bc.build(bc.label);
        });
        add("cache.build_us", median(build) * 1e6, "us", kBuilds);

        for (const Variant &v : kVariants) {
            const CacheConfig cfg = parseCacheSpec(v.spec);
            std::vector<double> t;
            double hitRatio = 0.0;
            for (int r = 0; r < kRepeats; ++r) {
                auto cache = cfg.build(cfg.label);
                auto s = span(std::string("cache.accessBatch.") + v.name);
                t.push_back(timeEngine(*cache, recs_));
                hitRatio = static_cast<double>(cache->stats().hits) /
                           static_cast<double>(cache->stats().accesses);
            }
            add(std::string("cache.") + v.name + ".macc_per_s",
                static_cast<double>(recs_.size()) / median(t) / 1e6,
                "Macc/s", kRepeats);
            add(std::string("cache.") + v.name + ".hit_ratio", hitRatio,
                "ratio", 1);
        }

        // Observer cost: the same B-Cache run with and without a
        // StatsObserver attached, interleaved.
        ObserverConfig oc;
        oc.enabled = true;
        std::vector<double> ratio;
        std::optional<ObserverReport> report;
        for (int r = 0; r < kPaired; ++r) {
            auto plain = bc.build(bc.label);
            double tPlain = 0.0, tObs = 0.0;
            {
                auto s = span("cache.accessBatch.bcache");
                tPlain = timeEngine(*plain, recs_);
            }
            auto cache = bc.build(bc.label);
            auto obs = attachObserver(*cache, oc);
            {
                auto s = span("observe.accessBatch");
                tObs = timeEngine(*cache, recs_);
            }
            ratio.push_back(tObs / tPlain - 1.0);
            report = harvestObserver(obs.get(), *cache);
        }
        add("observe.overhead_frac", median(ratio), "ratio", kPaired);

        constexpr int kExports = 10;
        std::size_t bytes = 0;
        const auto exp = timeEach(kExports, [&] {
            auto s = span("observe.writeJson");
            JsonWriter j;
            if (report)
                writeJson(j, *report);
            bytes = j.str().size();
        });
        add("observe.export_us", median(exp) * 1e6, "us", kExports);
        add("observe.body_bytes", static_cast<double>(bytes), "bytes", 1);
    }

    /** Seconds to read the first @p n records of the trace. */
    double
    timeDecode(std::size_t n)
    {
        TraceReaderPtr reader = openTraceReader(trace_);
        auto s = span("workload.nextSpan");
        const auto t0 = Clock::now();
        Addr sum = 0;
        for (std::size_t done = 0; done < n;) {
            const auto sp = reader->nextSpan(n - done);
            if (sp.empty())
                break;
            for (const MemAccess &a : sp)
                sum += a.addr;
            done += sp.size();
        }
        checksum_ += sum;
        return secondsBetween(t0, Clock::now());
    }

    /**
     * Seconds for an in-process B-Cache Session over recs_; its counters
     * go to @p stats when given.
     */
    double
    timeSession(const CacheConfig &bc, std::string *stats = nullptr)
    {
        TraceReplayOptions ro;
        ro.maxAccesses = recs_.size();
        auto s = span("sim.Session.run");
        const auto t0 = Clock::now();
        const MissRateResult r = Session(trace_, bc, TraceShard{}, ro).run();
        const double sec = secondsBetween(t0, Clock::now());
        if (stats)
            *stats = statsJson(r.stats);
        return sec;
    }

    void
    simLayer()
    {
        // Session::run minus its source (decode) and engine time, with
        // the three measured back to back in each repeat.
        const CacheConfig bc = parseCacheSpec(kVariants[kBCache].spec);
        std::vector<double> selfFrac;
        for (int r = 0; r < kPaired; ++r) {
            const double decode = timeDecode(recs_.size());
            auto cache = bc.build(bc.label);
            double engine = 0.0;
            {
                auto s = span("cache.accessBatch.bcache");
                engine = timeEngine(*cache, recs_);
            }
            const double session = timeSession(bc);
            selfFrac.push_back((session - decode - engine) / session);
        }
        add("sim.session_self_frac", median(selfFrac), "ratio", kPaired);

        const SamplePlan plan = parseSamplePlan(kServeSamplePlan);
        std::uint64_t units = 0;
        const auto sampled = timeEach(kRepeats, [&] {
            auto s = span("sim.Session.runSampled");
            const MissRateResult r = Session(trace_, bc).runSampled(plan);
            units = r.sampled ? r.sampled->units.size() : 0;
        });
        tally_.record(units > 0);
        add("sim.sampled_ms", median(sampled) * 1e3, "ms", kRepeats);
        add("sim.sampled_units", static_cast<double>(units), "count", 1);

        SweepOptions so;
        so.jobs = gridThreads();
        SweepRun run;
        {
            auto s = span("sim.runSweep");
            run = runSweep(gridJobs(in_.gridSeed), so);
        }
        tally_.record(run.summary.failed == 0);
        double busy = 0.0, longest = 0.0;
        for (const SweepOutcome &o : run.outcomes) {
            busy += o.seconds;
            longest = std::max(longest, o.seconds);
        }
        add("sim.sweep_efficiency",
            busy / (run.summary.wallSeconds * run.summary.threads),
            "ratio", run.outcomes.size());
        add("sim.sweep_job_max_s", longest, "s", run.outcomes.size());
    }

    void
    bsimLayer()
    {
        std::vector<double> start, overhead;
        for (int r = 0; r < kPaired; ++r) {
            ProcessRun p;
            {
                auto s = span("bsim.process");
                p = runProcess({opt_.bsimPath, "--list-caches"},
                               opt_.workDir + "/bsim.out");
            }
            tally_.record(p.exitStatus == 0 && !p.out.empty());
            start.push_back(p.wallMs);
        }
        add("bsim.startup_ms", median(start), "ms", kPaired);
        // The process replaying recs_ minus the same replay in-process;
        // the process must report the in-process counters.
        const CacheConfig bc = parseCacheSpec(kVariants[kBCache].spec);
        for (int r = 0; r < kPaired; ++r) {
            std::string expected;
            const double inProcessMs = timeSession(bc, &expected) * 1e3;
            ProcessRun p;
            {
                auto s = span("bsim.process");
                p = runProcess({opt_.bsimPath, "--cache",
                                kVariants[kBCache].spec, "--trace", trace_,
                                "--accesses", std::to_string(recs_.size()),
                                "--json"},
                               opt_.workDir + "/bsim.out");
            }
            tally_.record(p.exitStatus == 0 &&
                          reportedStats(p.out) == expected);
            overhead.push_back(p.wallMs - inProcessMs);
        }
        add("bsim.overhead_ms", median(overhead), "ms", kPaired);
    }

    void
    serveLayer()
    {
        const std::uint64_t records = probeTrace(trace_).recordCount;
        const std::vector<RequestClass> classes =
            serveClasses(opt_.seed, records);

        constexpr int kParses = 100;
        std::vector<serve::RpcRequest> reqs;
        std::vector<double> parse;
        {
            auto s = span("serve.parseRpcRequest");
            for (const RequestClass &c : classes) {
                const auto t = timeEach(kParses, [&] {
                    serve::parseRpcRequest(c.payload, nullptr);
                });
                parse.insert(parse.end(), t.begin(), t.end());
                const auto req = serve::parseRpcRequest(c.payload, nullptr);
                if (!req)
                    bsim_fatal("perfbench: bad request payload ", c.payload);
                reqs.push_back(*req);
            }
        }
        add("serve.parse_us", median(parse) * 1e6, "us", parse.size());

        // The same request in-process and over the RPC to a one-worker
        // server from one closed-loop client, alternating: the client
        // latency minus the body time is the RPC + scheduler cost.
        serve::TraceRegistry registry(false);
        registry.add(kServeTraceName, trace_);
        serve::ServerOptions so;
        so.workers = 1;
        so.queueCapacity = 2;
        so.allowTracePaths = false;
        so.traces = {{kServeTraceName, trace_}};
        serve::Server server(so);
        int sp[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0)
            bsim_fatal("perfbench: socketpair failed");
        // Joins on every exit path, after the client below has closed
        // its end.
        std::jthread conn([&server, fd = sp[0]] {
            server.serveConnection(fd);
        });
        {
            serve::RpcClient client(sp[1]);
            std::uint32_t group = 1;
            const int n[] = {30, 10, 10};
            for (std::size_t k = 0; k < classes.size(); ++k) {
                const RequestClass &c = classes[k];
                // One untimed round first: opens the trace handles. Every
                // body and reply must then match its first body.
                const std::string ref = serve::runStatsBody(reqs[k], registry);
                const auto replyOk = [&ref](const std::string &reply) {
                    const serve::RpcResult r = serve::decodeResult(reply);
                    return r.ok && r.body == ref;
                };
                tally_.record(replyOk(client.call(c.payload)));
                std::vector<double> body, call;
                for (int r = 0; r < n[k]; ++r) {
                    std::string b, reply;
                    body.push_back(timeEach(1, [&] {
                        auto s = span("serve.runStatsBody." + c.name);
                        b = serve::runStatsBody(reqs[k], registry);
                    })[0]);
                    call.push_back(timeEach(1, [&] {
                        ScopedSpan s(spans_, "serve.call." + c.name, root_,
                                     group++);
                        reply = client.call(c.payload);
                    })[0]);
                    tally_.record(b == ref);
                    tally_.record(replyOk(reply));
                }
                add("serve.body_ms." + c.name, median(body) * 1e3, "ms",
                    n[k]);
                add("serve.overhead_ms." + c.name,
                    (median(call) - median(body)) * 1e3, "ms", n[k]);
            }
        }
    }

    const LadderInputs &in_;
    const RunOptions &opt_;
    SpanRecorder &spans_;
    Tally &tally_;
    const std::uint32_t root_;
    std::vector<Metric> metrics_;

    std::string trace_;
    std::vector<MemAccess> recs_;
    Addr checksum_ = 0; ///< keeps the decode loop's reads alive
};

} // namespace

std::vector<Metric>
runLadder(const LadderInputs &in, const RunOptions &options,
          SpanRecorder &spans, Tally &tally)
{
    return Ladder(in, options, spans, tally).run();
}

} // namespace perfbench
