#include "workloads.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/session.hh"
#include "workload/spec2k.hh"
#include "workload/trace_format.hh"

extern char **environ;

namespace perfbench {

using namespace bsim;

namespace {

/** Accesses per grid cell. */
constexpr std::uint64_t kGridCellAccesses = 200'000;
/** Records in the replay trace (16 bytes each: 128 MB). */
constexpr std::uint64_t kReplayRecords = 8'000'000;
/** Records in the serve data trace. */
constexpr std::uint64_t kServeRecords = 2'000'000;

double
peakRssSelfMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** FNV-1a 64 over the values fed to it. */
class Fnv1a
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            byte((v >> (8 * b)) & 0xff);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint64_t c)
    {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The digest committed in digests.txt for (@p workload, @p seed). */
std::optional<std::uint64_t>
committedDigest(const std::string &path, const std::string &workload,
                std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, hex;
        std::uint64_t s = 0;
        if (ls >> w >> s >> hex && w == workload && s == seed)
            return std::stoull(hex, nullptr, 16);
    }
    return std::nullopt;
}

/**
 * A workload's set-up references, digested, and the digest committed for
 * its seed. A mismatch fails every operation checked against them.
 */
struct ReferenceDigest
{
    std::uint64_t value = 0;
    std::optional<std::uint64_t> committed;

    ReferenceDigest() = default;
    ReferenceDigest(const RunOptions &o, std::uint64_t v)
        : value(v),
          committed(committedDigest(o.digestPath, o.workload, o.seed))
    {
    }

    /** False only when a digest is committed and differs. */
    bool matches() const { return !committed || *committed == value; }

    std::string
    describe(const std::string &workload) const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s reference digest %016" PRIx64 " (committed: %s)",
                      workload.c_str(), value,
                      committed ? (matches() ? "match" : "MISMATCH")
                                : "none for this seed");
        return buf;
    }
};

// ---------------------------------------------------------------- grid

const std::vector<std::string> &
gridSpecs()
{
    // Column order matters: DM baseline first, the paper's B-Cache last.
    static const std::vector<std::string> v = {
        "dm:16kB",    "sa:16kB,2w",        "sa:16kB,4w",
        "sa:16kB,8w", "dm:16kB+victim:16", kPaperBCache};
    return v;
}

struct CellCounters
{
    std::uint64_t hits = 0, misses = 0, writebacks = 0;
    bool operator==(const CellCounters &) const = default;
};

std::uint64_t
gridDigest(const std::vector<CellCounters> &cells)
{
    Fnv1a h;
    for (const CellCounters &c : cells) {
        h.u64(c.hits);
        h.u64(c.misses);
        h.u64(c.writebacks);
    }
    return h.value();
}

/** Digest of a list of reference strings, in order. */
std::uint64_t
stringsDigest(const std::vector<std::string> &refs)
{
    Fnv1a h;
    for (const std::string &r : refs)
        h.str(r);
    return h.value();
}

class GridWorkload : public Workload
{
  public:
    explicit GridWorkload(const RunOptions &o) : opt_(o) {}

    void
    setup(SpanRecorder &spans) override
    {
        ScopedSpan s(spans, "bench.grid.setup");
        jobs_ = gridJobs(opt_.seed);
        // The reference pass: warms the process and yields the counters
        // every measured pass must reproduce.
        SweepRun run;
        {
            ScopedSpan r(spans, "sim.runSweep", s.id());
            run = runSweep(jobs_, sweepOptions());
        }
        reference_.clear();
        referenceOk_ = run.summary.failed == 0;
        for (const SweepOutcome &o : run.outcomes) {
            if (!o.ok()) {
                reference_.emplace_back();
                continue;
            }
            const CacheStats &st = o.miss->stats;
            reference_.push_back({st.hits, st.misses, st.writebacks});
            referenceOk_ = referenceOk_ &&
                           st.hits + st.misses == kGridCellAccesses;
        }
        digest_ = ReferenceDigest(opt_, gridDigest(reference_));
        reduction_ = bcacheReductionOverDm(run);
    }

    Measured
    measure(double seconds, SpanRecorder &spans, Tally &tally) override
    {
        // A wrong reference (failed job, bad sums, digest mismatch)
        // fails every cell checked against it.
        const bool refGood = referenceOk_ && digest_.matches();
        Measured m;
        std::vector<double> passRates;
        std::uint64_t cells = 0;
        double wall = 0.0;
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(seconds);
        do {
            const std::uint32_t pass = spans.begin("bench.grid.pass");
            const auto t0 = Clock::now();
            SweepRun run;
            {
                ScopedSpan r(spans, "sim.runSweep", pass);
                run = runSweep(jobs_, sweepOptions());
            }
            const double passS = secondsBetween(t0, Clock::now());
            {
                ScopedSpan c(spans, "bench.check", pass);
                for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
                    const SweepOutcome &o = run.outcomes[i];
                    bool ok = refGood && o.ok();
                    if (ok) {
                        const CacheStats &st = o.miss->stats;
                        ok = CellCounters{st.hits, st.misses,
                                          st.writebacks} == reference_[i];
                    }
                    tally.record(ok);
                    m.latencyMs.push_back(o.seconds * 1e3);
                }
            }
            spans.end(pass);
            cells += run.outcomes.size();
            wall += passS;
            passRates.push_back(static_cast<double>(run.outcomes.size()) *
                                kGridCellAccesses / passS / 1e6);
        } while (Clock::now() < deadline);
        m.maccPerS = median(passRates);
        m.rateSamples = passRates.size();
        m.reqPerS = static_cast<double>(cells) / wall;
        m.peakRssMb = peakRssSelfMb();
        return m;
    }

    LadderInputs
    ladderInputs() const override
    {
        LadderInputs in;
        // The grid's own gcc data stream.
        in.side = StreamSide::Data;
        in.streamSeed = gridStreamSeed(opt_.seed, kStreamWorkload);
        in.gridSeed = opt_.seed;
        return in;
    }

    std::vector<std::string>
    info() const override
    {
        char buf[256];
        std::vector<std::string> out = {digest_.describe("grid")};
        std::snprintf(buf, sizeof buf,
                      "figure-4 mean B-Cache (MF=8, BAS=8) miss-rate "
                      "reduction over DM: %.2f%% (simulated, "
                      "informational)",
                      reduction_ * 100.0);
        out.push_back(buf);
        return out;
    }

  private:
    static SweepOptions
    sweepOptions()
    {
        SweepOptions o;
        o.jobs = gridThreads();
        return o;
    }

    /** Mean over workloads of (DM misses - B-Cache misses) / DM misses. */
    static double
    bcacheReductionOverDm(const SweepRun &run)
    {
        const std::size_t stride = gridSpecs().size();
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t b = 0; b + stride <= run.outcomes.size();
             b += stride) {
            const SweepOutcome &dm = run.outcomes[b];
            const SweepOutcome &bc = run.outcomes[b + stride - 1];
            if (!dm.ok() || !bc.ok() || dm.miss->stats.misses == 0)
                continue;
            sum += 1.0 - static_cast<double>(bc.miss->stats.misses) /
                             static_cast<double>(dm.miss->stats.misses);
            ++n;
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

    RunOptions opt_;
    std::vector<SweepJob> jobs_;
    std::vector<CellCounters> reference_;
    bool referenceOk_ = false;
    ReferenceDigest digest_;
    double reduction_ = 0.0;
};

// -------------------------------------------------------------- replay

const std::vector<std::string> &
replaySpecs()
{
    static const std::vector<std::string> v = {"dm:16kB", "sa:16kB,8w",
                                               kPaperBCache};
    return v;
}

class ReplayWorkload : public Workload
{
  public:
    explicit ReplayWorkload(const RunOptions &o)
        : opt_(o), trace_(o.workDir + "/replay_inst.bst")
    {
    }

    void
    setup(SpanRecorder &spans) override
    {
        ScopedSpan s(spans, "bench.replay.setup");
        {
            ScopedSpan w(spans, "workload.writeTrace", s.id());
            writeSyntheticTrace(trace_, kStreamWorkload, StreamSide::Inst,
                                deriveSeed(opt_.seed, 1), kReplayRecords);
        }
        // In-process references; reading the trace here also leaves it
        // in the page cache for the timed processes.
        expected_.clear();
        for (const std::string &spec : replaySpecs()) {
            ScopedSpan r(spans, "sim.Session.run", s.id());
            Session session(trace_, parseCacheSpec(spec));
            expected_.push_back(statsJson(session.run().stats));
        }
        digest_ = ReferenceDigest(opt_, stringsDigest(expected_));
    }

    Measured
    measure(double seconds, SpanRecorder &spans, Tally &tally) override
    {
        Measured m;
        std::vector<double> roundRates, rss;
        std::uint64_t processes = 0;
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration<double>(seconds);
        do {
            double roundMs = 0.0;
            for (std::size_t c = 0; c < replaySpecs().size(); ++c) {
                ProcessRun p;
                {
                    ScopedSpan b(spans, "bsim.process");
                    p = runProcess({opt_.bsimPath, "--cache",
                                    replaySpecs()[c], "--trace", trace_,
                                    "--json"},
                                   opt_.workDir + "/bsim.out");
                }
                ScopedSpan chk(spans, "bench.check");
                tally.record(p.exitStatus == 0 && digest_.matches() &&
                             reportedStats(p.out) == expected_[c]);
                m.latencyMs.push_back(p.wallMs);
                rss.push_back(p.maxRssMb);
                roundMs += p.wallMs;
                ++processes;
            }
            roundRates.push_back(static_cast<double>(kReplayRecords) *
                                 replaySpecs().size() / roundMs / 1e3);
        } while (Clock::now() < deadline);
        m.maccPerS = median(roundRates);
        m.rateSamples = roundRates.size();
        m.reqPerS = static_cast<double>(processes) /
                    secondsBetween(start, Clock::now());
        m.peakRssMb = median(rss);
        return m;
    }

    LadderInputs
    ladderInputs() const override
    {
        LadderInputs in;
        in.side = StreamSide::Inst;
        in.streamSeed = deriveSeed(opt_.seed, 1);
        in.tracePath = trace_;
        in.gridSeed = opt_.seed;
        return in;
    }

    std::vector<std::string>
    info() const override
    {
        return {digest_.describe("replay")};
    }

  private:
    RunOptions opt_;
    std::string trace_;
    std::vector<std::string> expected_;
    ReferenceDigest digest_;
};

// --------------------------------------------------------------- serve

/**
 * Client-side order of request classes: one of each in turn. No record of
 * production bsimd traffic exists to weight the classes by, so the mix is
 * the neutral 1:1:1.
 */
constexpr int kServePattern[] = {0, 1, 2};

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(const RunOptions &o)
        : opt_(o), trace_(o.workDir + "/serve_data.bst")
    {
    }

    void
    setup(SpanRecorder &spans) override
    {
        ScopedSpan s(spans, "bench.serve.setup");
        {
            ScopedSpan w(spans, "workload.writeTrace", s.id());
            writeSyntheticTrace(trace_, kStreamWorkload, StreamSide::Data,
                                deriveSeed(opt_.seed, 2), kServeRecords);
        }
        classes_ = serveClasses(opt_.seed, kServeRecords);
        expected_.clear();
        serve::TraceRegistry registry(false);
        registry.add(kServeTraceName, trace_);
        for (const RequestClass &c : classes_) {
            ScopedSpan b(spans, "serve.runStatsBody", s.id());
            const auto req = serve::parseRpcRequest(c.payload, nullptr);
            if (!req)
                bsim_fatal("perfbench: bad request payload ", c.payload);
            expected_.push_back(serve::runStatsBody(*req, registry));
        }
        // Trace bodies name the trace's run-private path; the digest
        // covers them with that path replaced by a fixed token.
        std::vector<std::string> portable = expected_;
        for (std::string &body : portable)
            for (std::size_t at; (at = body.find(trace_)) != std::string::npos;)
                body.replace(at, trace_.size(), "<trace>");
        digest_ = ReferenceDigest(opt_, stringsDigest(portable));
    }

    Measured
    measure(double seconds, SpanRecorder &spans, Tally &tally) override
    {
        const unsigned nproc =
            std::max(1u, std::thread::hardware_concurrency());
        // Clients + scheduler workers <= nproc; a closed loop holds at
        // most one request per client, so two slots each never refuse.
        const unsigned clients = nproc >= 4 ? 2 : 1;
        serve::ServerOptions so;
        so.workers = std::max(1u, std::min(2u, nproc - clients));
        so.queueCapacity = 2 * clients;
        so.allowTracePaths = false;
        so.traces = {{kServeTraceName, trace_}};
        serve::Server server(so);

        struct ClientLog
        {
            Tally tally;
            std::vector<std::pair<int, double>> ms; ///< (class, latency)
            std::uint64_t accesses = 0;
        };
        std::vector<ClientLog> logs(clients);
        std::vector<std::array<int, 2>> pairs(clients);
        for (auto &sp : pairs)
            if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp.data()) != 0)
                bsim_fatal("perfbench: socketpair failed");
        // jthreads join on every exit path; clients finish first, and
        // closing their ends lets the server-side threads return.
        std::vector<std::jthread> serverSide, clientSide;
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration<double>(seconds);
        std::atomic<std::uint32_t> nextGroup{1};
        for (unsigned c = 0; c < clients; ++c) {
            const auto &sp = pairs[c];
            serverSide.emplace_back(
                [&server, fd = sp[0]] { server.serveConnection(fd); });
            clientSide.emplace_back([&, fd = sp[1], c] {
                serve::RpcClient client(fd);
                ClientLog &log = logs[c];
                for (std::size_t i = c;; ++i) {
                    if (Clock::now() >= deadline)
                        break;
                    const int k = kServePattern[i % std::size(kServePattern)];
                    bool ok = false;
                    const auto t0 = Clock::now();
                    try {
                        ScopedSpan call(spans, "serve.call", 0,
                                        nextGroup.fetch_add(1));
                        const serve::RpcResult r = serve::decodeResult(
                            client.call(classes_[k].payload));
                        ok = r.ok && digest_.matches() &&
                             r.body == expected_[k];
                    } catch (const std::exception &) {
                        log.tally.record(false);
                        break; // the connection is gone
                    }
                    log.ms.emplace_back(
                        k, secondsBetween(t0, Clock::now()) * 1e3);
                    log.tally.record(ok);
                    if (ok)
                        log.accesses += classes_[k].simulatedAccesses;
                }
            });
        }
        for (auto &t : clientSide)
            t.join();
        const double wall = secondsBetween(start, Clock::now());
        for (auto &t : serverSide)
            t.join();

        Measured m;
        m.classMs.resize(classes_.size());
        for (std::size_t k = 0; k < classes_.size(); ++k)
            m.classMs[k].first = classes_[k].name;
        std::uint64_t accesses = 0, completed = 0;
        for (const ClientLog &log : logs) {
            tally.attempted += log.tally.attempted;
            tally.failed += log.tally.failed;
            accesses += log.accesses;
            completed += log.ms.size();
            for (const auto &[k, ms] : log.ms) {
                m.latencyMs.push_back(ms);
                m.classMs[k].second.push_back(ms);
            }
        }
        m.maccPerS = static_cast<double>(accesses) / wall / 1e6;
        m.rateSamples = completed;
        m.reqPerS = static_cast<double>(completed) / wall;
        m.peakRssMb = peakRssSelfMb();
        return m;
    }

    LadderInputs
    ladderInputs() const override
    {
        LadderInputs in;
        in.side = StreamSide::Data;
        in.streamSeed = deriveSeed(opt_.seed, 2);
        in.tracePath = trace_;
        in.gridSeed = opt_.seed;
        return in;
    }

    std::vector<std::string>
    info() const override
    {
        return {digest_.describe("serve")};
    }

  private:
    RunOptions opt_;
    std::string trace_;
    std::vector<RequestClass> classes_;
    std::vector<std::string> expected_;
    ReferenceDigest digest_;
};

} // namespace

// ------------------------------------------------------- shared pieces

std::unique_ptr<Workload>
makeWorkload(const RunOptions &options)
{
    if (options.workload == "grid")
        return std::make_unique<GridWorkload>(options);
    if (options.workload == "replay")
        return std::make_unique<ReplayWorkload>(options);
    if (options.workload == "serve")
        return std::make_unique<ServeWorkload>(options);
    return nullptr;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // Kept below 2^53 so the seed survives a JSON number round trip.
    return sweepSeed(seed, salt) & ((1ULL << 53) - 1);
}

std::uint64_t
gridStreamSeed(std::uint64_t seed, const std::string &name)
{
    const auto &names = spec2kNames();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end())
        bsim_fatal("perfbench: no SPEC2K workload '", name, "'");
    return deriveSeed(seed, 100 + (it - names.begin()));
}

unsigned
gridThreads()
{
    // Two, leaving half of the reference host's four vCPUs to the rest
    // of the machine: in one 5-seed trial there the run-to-run spread
    // was 9% with four workers and 3% with two.
    return std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<SweepJob>
gridJobs(std::uint64_t seed)
{
    std::vector<CacheConfig> configs;
    for (const std::string &spec : gridSpecs())
        configs.push_back(parseCacheSpec(spec));
    std::vector<SweepJob> jobs;
    for (const std::string &name : spec2kNames()) {
        const std::uint64_t s = gridStreamSeed(seed, name);
        for (const CacheConfig &cfg : configs)
            jobs.push_back(SweepJob::missRate(name, StreamSide::Data, cfg,
                                              kGridCellAccesses, s));
    }
    return jobs;
}

void
writeSyntheticTrace(const std::string &path, const std::string &name,
                    StreamSide side, std::uint64_t seed,
                    std::uint64_t records)
{
    SpecWorkload w = makeSpecWorkload(name, seed);
    AccessStream &stream = side == StreamSide::Inst ? *w.inst : *w.data;
    std::vector<MemAccess> buf(1 << 16);
    Bst2Writer out(path);
    for (std::uint64_t left = records; left > 0;) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(left, buf.size()));
        stream.nextBatch(buf.data(), n);
        out.append(std::span<const MemAccess>(buf.data(), n));
        left -= n;
    }
    out.finish();
}

std::vector<RequestClass>
serveClasses(std::uint64_t seed, std::uint64_t trace_records)
{
    std::vector<RequestClass> out;
    {
        JsonWriter j;
        j.beginObject()
            .kv("op", "run")
            .kv("cache", kPaperBCache)
            .kv("workload", kStreamWorkload)
            .kv("accesses", std::uint64_t(1000))
            .kv("seed", deriveSeed(seed, 3))
            .endObject();
        out.push_back({"tiny", j.str(), 1000});
    }
    {
        JsonWriter j;
        j.beginObject()
            .kv("op", "run")
            .kv("cache", kPaperBCache)
            .kv("trace", kServeTraceName)
            .kv("accesses", std::uint64_t(50'000))
            .endObject();
        out.push_back({"window", j.str(), 50'000});
    }
    {
        const SamplePlan plan = parseSamplePlan(kServeSamplePlan);
        JsonWriter j;
        j.beginObject()
            .kv("op", "run")
            .kv("cache", kPaperBCache)
            .kv("trace", kServeTraceName)
            .kv("sample", plan.toString())
            .kv("stats", false)
            .endObject();
        // Unit 0 has no history to warm from; every later unit replays
        // its full warmup window (P - U >= W).
        const std::uint64_t units = plan.unitsFor(trace_records);
        out.push_back({"sampled", j.str(),
                       units * plan.unitLen +
                           (units ? units - 1 : 0) * plan.warmup});
    }
    return out;
}

std::string
statsJson(const CacheStats &stats)
{
    JsonWriter j;
    writeJson(j, stats);
    return j.str();
}

std::string
reportedStats(const std::string &bsim_json)
{
    const auto doc = parseJson(bsim_json);
    const JsonValue *stats = doc ? doc->find("stats") : nullptr;
    return stats ? stats->dump() : std::string();
}

ProcessRun
runProcess(const std::vector<std::string> &argv,
           const std::string &out_path)
{
    ProcessRun r;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    const auto t0 = Clock::now();
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        return r;
    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            return r;
    }
    r.wallMs = secondsBetween(t0, Clock::now()) * 1e3;
    r.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    r.exitStatus = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::ifstream in(out_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    r.out = ss.str();
    return r;
}

} // namespace perfbench
