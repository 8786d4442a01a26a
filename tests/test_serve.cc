/**
 * @file
 * The serving layer's test suite (ctest -L serve): frame-codec fuzzing
 * (truncated, oversized, garbage, byte-at-a-time), request parsing and
 * envelope schema checks, scheduler backpressure/drain/deadline
 * semantics, trace-registry handle sharing, and the concurrency
 * contract — many clients hammering one in-process Server over
 * socketpairs must each get responses byte-identical to a serial
 * runStatsBody() of the same request (single, sharded and sampled).
 * The live-binary half of the contract (bsimd vs the one-shot CLI) is
 * scripts/check_serve_e2e.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/frame.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/request.hh"
#include "serve/rpc.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "serve/trace_registry.hh"
#include "workload/trace_format.hh"

using namespace bsim;
using namespace bsim::serve;
using namespace std::chrono_literals;

namespace {

std::string
tracePath(const char *name)
{
    return std::string(BSIM_TRACES_DIR) + "/" + name;
}

// ---------------------------------------------------------------- frame

TEST(Frame, RoundTripSingleAndBackToBack)
{
    const std::string a = R"({"op":"ping"})";
    const std::string b(1000, 'x');
    FrameDecoder d;
    const std::string wire = encodeFrame(a) + encodeFrame(b);
    d.feed(wire.data(), wire.size());
    std::string out;
    ASSERT_EQ(FrameStatus::Frame, d.next(&out));
    EXPECT_EQ(a, out);
    ASSERT_EQ(FrameStatus::Frame, d.next(&out));
    EXPECT_EQ(b, out);
    EXPECT_EQ(FrameStatus::NeedMore, d.next(&out));
    EXPECT_EQ(0u, d.buffered());
}

TEST(Frame, ByteAtATime)
{
    const std::string payload = "fragmentation-proof";
    const std::string wire = encodeFrame(payload);
    FrameDecoder d;
    std::string out;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        d.feed(wire.data() + i, 1);
        ASSERT_EQ(FrameStatus::NeedMore, d.next(&out))
            << "premature frame after byte " << i;
    }
    d.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(FrameStatus::Frame, d.next(&out));
    EXPECT_EQ(payload, out);
}

TEST(Frame, TruncatedHeaderAndPayloadNeedMore)
{
    const std::string wire = encodeFrame("hello");
    std::string out;
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        FrameDecoder d;
        d.feed(wire.data(), cut);
        EXPECT_EQ(FrameStatus::NeedMore, d.next(&out))
            << "cut at " << cut;
    }
}

TEST(Frame, BadMagicIsSticky)
{
    FrameDecoder d;
    d.feed("GARBAGE-", 8);
    std::string out;
    EXPECT_EQ(FrameStatus::BadMagic, d.next(&out));
    // Even a valid frame afterwards cannot resynchronize the stream.
    const std::string wire = encodeFrame("x");
    d.feed(wire.data(), wire.size());
    EXPECT_EQ(FrameStatus::BadMagic, d.next(&out));
}

TEST(Frame, OversizedIsSticky)
{
    FrameDecoder d(16); // tiny limit
    const std::string wire = encodeFrame(std::string(17, 'y'));
    d.feed(wire.data(), wire.size());
    std::string out;
    EXPECT_EQ(FrameStatus::Oversized, d.next(&out));
    const std::string ok = encodeFrame("ok");
    d.feed(ok.data(), ok.size());
    EXPECT_EQ(FrameStatus::Oversized, d.next(&out));
}

TEST(Frame, LimitIsInclusive)
{
    FrameDecoder d(4);
    const std::string wire = encodeFrame("abcd");
    d.feed(wire.data(), wire.size());
    std::string out;
    EXPECT_EQ(FrameStatus::Frame, d.next(&out));
    EXPECT_EQ("abcd", out);
}

TEST(Frame, FuzzRandomSplitsDecodeIdentically)
{
    std::mt19937 rng(0xb5c2);
    for (int trial = 0; trial < 50; ++trial) {
        // A stream of 1..5 frames with random payloads...
        std::vector<std::string> payloads;
        std::string wire;
        const unsigned n = 1 + rng() % 5;
        for (unsigned i = 0; i < n; ++i) {
            std::string p(rng() % 300, '\0');
            for (char &c : p)
                c = static_cast<char>(rng());
            payloads.push_back(p);
            wire += encodeFrame(p);
        }
        // ... fed in random fragments must reproduce every payload.
        FrameDecoder d;
        std::size_t off = 0;
        std::vector<std::string> got;
        std::string out;
        while (off < wire.size()) {
            const std::size_t len =
                std::min<std::size_t>(1 + rng() % 37,
                                      wire.size() - off);
            d.feed(wire.data() + off, len);
            off += len;
            while (d.next(&out) == FrameStatus::Frame)
                got.push_back(out);
        }
        ASSERT_EQ(payloads, got) << "trial " << trial;
    }
}

TEST(Frame, FuzzGarbageNeverCrashes)
{
    std::mt19937 rng(0x9e37);
    for (int trial = 0; trial < 200; ++trial) {
        FrameDecoder d(1024);
        std::string junk(rng() % 200, '\0');
        for (char &c : junk)
            c = static_cast<char>(rng());
        d.feed(junk.data(), junk.size());
        std::string out;
        // Drain until quiescent; any status is fine, crashing is not.
        for (int i = 0; i < 8; ++i)
            if (d.next(&out) != FrameStatus::Frame)
                break;
    }
}

// ------------------------------------------------------------------ rpc

TEST(Rpc, ParsesFullRunRequest)
{
    std::string err;
    const auto req = parseRpcRequest(
        R"({"op":"run","cache":"dm:16kB","trace":"gcc","sample":"50:200:50",)"
        R"("shards":3,"jobs":2,"accesses":5000,"seed":7,"batch":64,)"
        R"("stats":false,"deadline_ms":250})",
        &err);
    ASSERT_TRUE(req) << err;
    EXPECT_EQ(RpcRequest::Op::Run, req->op);
    EXPECT_EQ("dm:16kB", req->cache);
    EXPECT_EQ("gcc", req->trace);
    EXPECT_EQ("50:200:50", req->sample);
    EXPECT_EQ(3u, req->shards);
    EXPECT_EQ(2u, req->jobs);
    EXPECT_EQ(5000u, req->accesses);
    EXPECT_TRUE(req->accessesSet);
    EXPECT_EQ(7u, req->seed);
    EXPECT_EQ(64u, req->batch);
    EXPECT_FALSE(req->stats);
    EXPECT_EQ(250u, req->deadlineMs);
}

TEST(Rpc, RejectsMalformedRequests)
{
    std::string err;
    EXPECT_FALSE(parseRpcRequest("not json", &err));
    EXPECT_FALSE(parseRpcRequest(R"({"op":"run"})", &err))
        << "run without cache must fail";
    EXPECT_FALSE(parseRpcRequest(
        R"({"op":"run","cache":"dm:16kB","bogus":1})", &err))
        << "unknown fields must fail: " << err;
    EXPECT_FALSE(parseRpcRequest(
        R"({"op":"teleport","cache":"dm:16kB"})", &err));
    EXPECT_FALSE(parseRpcRequest(
        R"({"op":"run","cache":"dm:16kB","shards":-1})", &err));
    EXPECT_FALSE(parseRpcRequest(
        R"({"op":"run","cache":"dm:16kB","side":"sideways"})", &err));
}

TEST(Rpc, JobsAndShardsStopAtUintMax)
{
    std::string err;
    const auto max = parseRpcRequest(
        R"({"op":"run","cache":"dm:4kB","trace":"t",)"
        R"("shards":4294967295,"jobs":4294967295})",
        &err);
    ASSERT_TRUE(max) << err;
    EXPECT_EQ(4294967295u, max->shards);
    EXPECT_EQ(4294967295u, max->jobs);
    for (const char *field : {"shards", "jobs"})
        for (const char *n : {"4294967296", "4294967297"}) {
            const std::string payload =
                std::string(R"({"op":"run","cache":"dm:4kB","trace":"t",")") +
                field + "\":" + n + "}";
            EXPECT_FALSE(parseRpcRequest(payload, &err)) << payload;
            EXPECT_EQ("field '" + std::string(field) +
                          "' must be at most 4294967295",
                      err);
        }
}

TEST(Rpc, EnvelopesEmbedBodiesVerbatim)
{
    // Key order and number lexemes must survive the round trip — the
    // crux of the byte-identity contract.
    const std::string body =
        R"({"z":1,"a":0.5000,"n":[1e3,2],"s":"x"})";
    const std::string env = okEnvelope(body);
    std::string err;
    EXPECT_TRUE(validateRpcEnvelope(env, &err)) << err;
    const RpcResult r = decodeResult(env);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(body, r.body);

    const std::string bad =
        errorEnvelope(RpcErrorCode::Overloaded, "queue \"full\"");
    EXPECT_TRUE(validateRpcEnvelope(bad, &err)) << err;
    const RpcResult e = decodeResult(bad);
    EXPECT_FALSE(e.ok);
    EXPECT_EQ("overloaded", e.errorCode);
    EXPECT_EQ("queue \"full\"", e.errorMessage);
}

// -------------------------------------------------------------- registry

TEST(TraceRegistryTest, SharesOneHandlePerTrace)
{
    setFatalThrows(true);
    TraceRegistry reg;
    reg.add("conflict", tracePath("conflict_dm.bst"));
    const TraceHandlePtr a = reg.get("conflict");
    const TraceHandlePtr b = reg.get("conflict");
    ASSERT_TRUE(a);
    EXPECT_EQ(a.get(), b.get()) << "second get must reuse the handle";
    EXPECT_EQ(1u, reg.openCount());
}

TEST(TraceRegistryTest, UnknownNamesRespectPathPolicy)
{
    setFatalThrows(true);
    TraceRegistry closed(/*allow_paths=*/false);
    EXPECT_EQ(nullptr, closed.get("not-registered"));

    TraceRegistry open(/*allow_paths=*/true);
    EXPECT_THROW(open.get("no/such/file.bst"), FatalError);
}

/** A scratch directory removed at scope exit. */
class TempDir
{
  public:
    TempDir()
        : dir_(std::filesystem::temp_directory_path() /
               ("bsim_serve_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++)))
    {
        std::filesystem::create_directories(dir_);
    }
    ~TempDir() { std::filesystem::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

  private:
    static inline int counter_ = 0;
    std::filesystem::path dir_;
};

/** A BST2 trace of @p n mixed records in chunks of @p chunk_len. */
void
writeMixedTrace(const std::string &path, std::size_t n,
                std::uint32_t chunk_len)
{
    std::vector<MemAccess> records;
    std::mt19937_64 rng(17);
    for (std::size_t i = 0; i < n; ++i)
        records.push_back({(rng() % 4096) * 32,
                           i % 5 == 2 ? AccessType::Write
                                      : AccessType::Read});
    writeBst2Trace(path, records, chunk_len);
}

/** Overwrite record @p record's type byte in place (same file size). */
void
corruptRecord(const std::string &path, std::uint64_t record,
              std::uint32_t chunk_len)
{
    const std::uint64_t chunk = record / chunk_len;
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long off = long(
        kBst2HeaderBytes +
        chunk * (kBst2ChunkHeaderBytes + chunk_len * kBst2RecordBytes) +
        kBst2ChunkHeaderBytes + (record % chunk_len) * kBst2RecordBytes +
        8);
    std::fseek(f, off, SEEK_SET);
    std::fputc(0x77, f);
    std::fclose(f);
}

TEST(TraceRegistryTest, RewrittenTraceIsReopenedAndRevalidated)
{
    setFatalThrows(true);
    TempDir tmp;
    const std::string p = tmp.path("t.bst");
    writeMixedTrace(p, 20000, 1024);
    TraceRegistry reg(/*allow_paths=*/false);
    reg.add("t", p);

    RpcRequest req;
    req.cache = "dm:4kB";
    req.trace = "t";
    req.sample = "200:2000:400";
    RpcResult r = decodeResult(runRequest(req, reg, nullptr));
    ASSERT_TRUE(r.ok) << r.errorMessage;
    const TraceHandlePtr before = reg.get("t");
    EXPECT_EQ(before.get(), reg.get("t").get())
        << "an unchanged file keeps its handle";
    EXPECT_GT(before->payloadValidations(), 0u);

    // Rewrite a chunk the handle has already validated, in place and at
    // the same size, then move the mtime on explicitly so the change is
    // visible at any timestamp granularity.
    corruptRecord(p, 2000 + 300, 1024);
    std::filesystem::last_write_time(
        p, std::filesystem::last_write_time(p) + std::chrono::seconds(10));

    r = decodeResult(runRequest(req, reg, nullptr));
    EXPECT_FALSE(r.ok) << "a rewritten file must not reuse old verdicts";
    EXPECT_EQ("bad-request", r.errorCode);
    EXPECT_NE(r.errorMessage.find("malformed BST2 trace"),
              std::string::npos)
        << r.errorMessage;
    EXPECT_NE(before.get(), reg.get("t").get());
    EXPECT_EQ(1u, reg.openCount());
}

// ------------------------------------------------------------- scheduler

TEST(SchedulerTest, FullQueueRejectsAsOverloaded)
{
    Scheduler::Options opts;
    opts.workers = 1;
    opts.queueCapacity = 2;
    Scheduler s(opts);

    std::promise<void> gate;
    std::shared_future<void> open(gate.get_future());
    std::vector<std::future<std::string>> results(4);

    // One request occupies the worker...
    ASSERT_EQ(Scheduler::Admit::Accepted,
              s.submit([open] { open.wait(); return "w"; },
                       &results[0]));
    while (s.metrics().inFlight == 0)
        std::this_thread::sleep_for(1ms);
    // ... two fill the queue ...
    ASSERT_EQ(Scheduler::Admit::Accepted,
              s.submit([] { return std::string("a"); }, &results[1]));
    ASSERT_EQ(Scheduler::Admit::Accepted,
              s.submit([] { return std::string("b"); }, &results[2]));
    // ... and the next is refused, not dropped or blocked.
    EXPECT_EQ(Scheduler::Admit::Overloaded,
              s.submit([] { return std::string("c"); }, &results[3]));

    gate.set_value();
    EXPECT_EQ("w", results[0].get());
    EXPECT_EQ("a", results[1].get());
    EXPECT_EQ("b", results[2].get());
    const Scheduler::Metrics m = s.metrics();
    EXPECT_EQ(1u, m.rejectedOverload);
    EXPECT_EQ(3u, m.accepted);
}

TEST(SchedulerTest, DrainCompletesAdmittedWorkAndRefusesNew)
{
    Scheduler::Options opts;
    opts.workers = 2;
    opts.queueCapacity = 16;
    Scheduler s(opts);

    std::atomic<int> ran{0};
    std::vector<std::future<std::string>> results(6);
    for (int i = 0; i < 6; ++i)
        ASSERT_EQ(Scheduler::Admit::Accepted,
                  s.submit(
                      [&ran] {
                          std::this_thread::sleep_for(5ms);
                          ++ran;
                          return std::string("done");
                      },
                      &results[i]));

    s.beginDrain();
    std::future<std::string> refused;
    EXPECT_EQ(Scheduler::Admit::Draining,
              s.submit([] { return std::string("no"); }, &refused));

    for (auto &f : results)
        EXPECT_EQ("done", f.get());
    s.awaitIdle();
    EXPECT_EQ(6, ran.load());
    EXPECT_EQ(1u, s.metrics().rejectedDraining);
}

TEST(SchedulerTest, QueuedDeadlineExpiresWithoutRunning)
{
    Scheduler::Options opts;
    opts.workers = 1;
    opts.queueCapacity = 4;
    Scheduler s(opts);

    std::promise<void> gate;
    std::shared_future<void> open(gate.get_future());
    std::future<std::string> blocker, expired;
    ASSERT_EQ(Scheduler::Admit::Accepted,
              s.submit([open] { open.wait(); return "w"; }, &blocker));
    while (s.metrics().inFlight == 0)
        std::this_thread::sleep_for(1ms);

    std::atomic<bool> bodyRan{false};
    ASSERT_EQ(Scheduler::Admit::Accepted,
              s.submit(
                  [&bodyRan] {
                      bodyRan = true;
                      return std::string("ran");
                  },
                  [] { return std::string("expired"); },
                  Scheduler::Clock::now() + 20ms, &expired));

    std::this_thread::sleep_for(60ms); // let the deadline lapse queued
    gate.set_value();
    EXPECT_EQ("w", blocker.get());
    EXPECT_EQ("expired", expired.get());
    EXPECT_FALSE(bodyRan.load());
    EXPECT_EQ(1u, s.metrics().expiredDeadline);
}

// ------------------------------------------------- request + concurrency

RpcRequest
conflictRequest()
{
    RpcRequest req;
    req.cache = "bcache:16kB,mf=8,bas=8";
    req.trace = tracePath("conflict_dm.bst");
    return req;
}

TEST(Request, TypedErrorsForBadSpecAndUnknownTrace)
{
    setFatalThrows(true);
    TraceRegistry reg(/*allow_paths=*/false);
    Scheduler::Options so;
    Scheduler sched(so);

    RpcRequest bad = conflictRequest();
    bad.cache = "warp:9";
    RpcResult r = decodeResult(runRequest(bad, reg, &sched));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ("bad-request", r.errorCode);

    RpcRequest missing = conflictRequest();
    r = decodeResult(runRequest(missing, reg, &sched));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ("unknown-trace", r.errorCode)
        << "path fallback is off, so the path must not resolve";

    RpcRequest shardless;
    shardless.cache = "dm:16kB";
    shardless.shards = 4; // shards without a trace
    r = decodeResult(runRequest(shardless, reg, &sched));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ("bad-request", r.errorCode);
}

TEST(Request, SecondSampledRunOverAHandleValidatesNothing)
{
    setFatalThrows(true);
    TempDir tmp;
    writeMixedTrace(tmp.path("s.bst"), 60000, 1024); // 59 chunks
    TraceRegistry reg(/*allow_paths=*/false);
    reg.add("s", tmp.path("s.bst"));

    RpcRequest req;
    req.cache = "bcache:8kB,mf=8,bas=8";
    req.trace = "s";
    req.sample = "500:6000:1000";
    const std::string first = runStatsBody(req, reg);
    const std::uint64_t after_first = reg.get("s")->payloadValidations();
    EXPECT_GT(after_first, 0u);
    EXPECT_LT(after_first, 59u) << "skipped chunks are never validated";

    const std::string second = runStatsBody(req, reg);
    EXPECT_EQ(first, second);
    EXPECT_EQ(after_first, reg.get("s")->payloadValidations())
        << "the second request re-validated chunks the first had passed";
}

TEST(Request, CorruptRegisteredTraceIsBadRequestEveryTime)
{
    setFatalThrows(true);
    TempDir tmp;
    writeMixedTrace(tmp.path("c.bst"), 20000, 1024);
    corruptRecord(tmp.path("c.bst"), 6100, 1024); // inside unit 3
    TraceRegistry reg(/*allow_paths=*/false);
    reg.add("c", tmp.path("c.bst"));

    RpcRequest req;
    req.cache = "dm:4kB";
    req.trace = "c";
    req.sample = "200:2000:400";
    std::string message;
    for (int i = 0; i < 2; ++i) {
        const RpcResult r = decodeResult(runRequest(req, reg, nullptr));
        ASSERT_FALSE(r.ok) << "request " << i;
        EXPECT_EQ("bad-request", r.errorCode) << "request " << i;
        if (i == 0)
            message = r.errorMessage;
        EXPECT_EQ(message, r.errorMessage) << "request " << i;
    }
    EXPECT_NE(message.find("record 6100 has a bad type"),
              std::string::npos)
        << message;
}

/**
 * The tentpole acceptance: >= 4 concurrent clients against one
 * in-process server, mixing single, sharded and sampled requests, every
 * response byte-identical to a serial runStatsBody() of the same
 * request — replay through shared mmap handles and the scheduler must
 * be invisible in the output.
 */
TEST(ServerConcurrency, FourClientsBitIdenticalToSerial)
{
    setFatalThrows(true);

    std::vector<RpcRequest> kinds(4, conflictRequest());
    kinds[1].shards = 3;
    kinds[1].jobs = 2;
    kinds[2].sample = "50:200:50";
    kinds[3].shards = 2;
    kinds[3].sample = "50:200:50";

    // Serial ground truth, computed outside any server.
    std::vector<std::string> expected;
    {
        TraceRegistry reg;
        for (const RpcRequest &r : kinds)
            expected.push_back(runStatsBody(r, reg));
    }

    ServerOptions so;
    so.workers = 4;
    so.queueCapacity = 64;
    Server server(so);

    const int kClients = 4, kRounds = 3;
    std::vector<std::thread> serverSide, clientSide;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        int sp[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
        serverSide.emplace_back(
            [&server, fd = sp[0]] { server.serveConnection(fd); });
        clientSide.emplace_back([&, fd = sp[1], c] {
            RpcClient client(fd);
            const std::string payload = encodeRpcRequest(kinds[c]);
            for (int round = 0; round < kRounds; ++round) {
                const RpcResult r = decodeResult(client.call(payload));
                if (!r.ok) {
                    failures[c] = r.errorCode + ": " + r.errorMessage;
                    return;
                }
                if (r.body != expected[c]) {
                    failures[c] = "body diverged from serial run";
                    return;
                }
            }
        });
    }
    for (auto &t : clientSide)
        t.join();
    for (auto &t : serverSide)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ("", failures[c]) << "client " << c;
}

/**
 * The backpressure acceptance: a 100-request burst against a 2-slot
 * queue completes with only `ok` and typed `overloaded` responses — no
 * hangs, no silent drops, no other failure class.
 */
TEST(ServerConcurrency, BurstAgainstTinyQueueNeverDrops)
{
    setFatalThrows(true);

    ServerOptions so;
    so.workers = 1;
    so.queueCapacity = 2;
    Server server(so);

    const int kClients = 10, kPerClient = 10;
    std::atomic<int> okCount{0}, overloadedCount{0}, otherCount{0};
    std::vector<std::thread> serverSide, clientSide;
    for (int c = 0; c < kClients; ++c) {
        int sp[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
        serverSide.emplace_back(
            [&server, fd = sp[0]] { server.serveConnection(fd); });
        clientSide.emplace_back([&, fd = sp[1]] {
            RpcClient client(fd);
            const std::string req =
                R"({"op":"run","cache":"dm:4kB","workload":"gcc",)"
                R"("accesses":2000,"stats":false})";
            for (int r = 0; r < kPerClient; ++r) {
                const RpcResult res = decodeResult(client.call(req));
                if (res.ok)
                    ++okCount;
                else if (res.errorCode == "overloaded")
                    ++overloadedCount;
                else
                    ++otherCount;
            }
        });
    }
    for (auto &t : clientSide)
        t.join();
    for (auto &t : serverSide)
        t.join();

    EXPECT_EQ(kClients * kPerClient,
              okCount.load() + overloadedCount.load());
    EXPECT_EQ(0, otherCount.load());
    EXPECT_GT(okCount.load(), 0);
    const Scheduler::Metrics m = server.scheduler().metrics();
    EXPECT_EQ(static_cast<std::uint64_t>(okCount.load()), m.completed);
    EXPECT_EQ(static_cast<std::uint64_t>(overloadedCount.load()),
              m.rejectedOverload);
}

/** Drain answers new work `shutting-down` while serving nothing stale. */
TEST(ServerLifecycle, DrainRefusesNewWorkOverTheWire)
{
    setFatalThrows(true);
    ServerOptions so;
    Server server(so);

    int sp[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
    std::thread srv([&server, fd = sp[0]] { server.serveConnection(fd); });
    RpcClient client(sp[1]);

    RpcResult r = decodeResult(client.call(R"({"op":"ping"})"));
    EXPECT_TRUE(r.ok);

    server.beginDrain();
    // Two correct outcomes, depending on whether the request lands
    // before the connection notices the drain at an idle point: a typed
    // `shutting-down` refusal, or the drain closing the idle connection
    // (surfaced as a FatalError from the client). Silently running the
    // work would be the only wrong answer.
    try {
        r = decodeResult(client.call(
            R"({"op":"run","cache":"dm:4kB","workload":"gcc",)"
            R"("accesses":1000,"stats":false})"));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ("shutting-down", r.errorCode);
    } catch (const FatalError &) {
        // connection already drained away — equally refused
    }
    srv.join(); // drain closes the connection after the response
}

/** Wire and `--connect` counts: UINT_MAX runs, anything past is refused. */
TEST(ServerLifecycle, CountsPastUintMaxAreTypedBadRequests)
{
    setFatalThrows(true);
    ServerOptions so;
    Server server(so);
    int sp[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
    std::thread srv([&server, fd = sp[0]] { server.serveConnection(fd); });
    {
        RpcClient client(sp[1]);
        const std::string run =
            R"({"op":"run","cache":"dm:4kB","stats":false,"trace":")" +
            tracePath("conflict_dm.bst") + "\",";
        RpcResult r = decodeResult(
            client.call(run + R"("shards":4294967295,"jobs":4294967295})"));
        EXPECT_TRUE(r.ok) << r.errorMessage;
        for (const char *field : {"shards", "jobs"})
            for (const char *n : {"4294967296", "4294967297"}) {
                r = decodeResult(client.call(run + "\"" + field + "\":" +
                                             n + "}"));
                EXPECT_FALSE(r.ok) << field << "=" << n;
                EXPECT_EQ("bad-request", r.errorCode) << field << "=" << n;
            }
    }
    srv.join();
}

/** Runs @p cli_main over @p args with stdout captured into @p out. */
int
runCli(int (*cli_main)(int, char **), std::vector<std::string> args,
       std::string *out = nullptr)
{
    args.insert(args.begin(), "bsim");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    ::testing::internal::CaptureStdout();
    const int rc = cli_main(static_cast<int>(args.size()), argv.data());
    const std::string captured = ::testing::internal::GetCapturedStdout();
    if (out)
        *out = captured;
    return rc;
}

int
runConnect(std::vector<std::string> args, std::string *out = nullptr)
{
    return runCli(connectMain, std::move(args), out);
}

TEST(ConnectFlags, JobsAndShardsAcceptUintMaxAndRejectPastIt)
{
    setFatalThrows(true);
    TempDir tmp;
    const std::string sock = tmp.path("bsimd.sock");
    const std::vector<std::string> base = {
        "--connect", sock, "--cache", "dm:4kB", "--trace",
        tracePath("conflict_dm.bst")};
    // Refused while parsing flags, before any connection is made.
    for (const char *flag : {"--jobs", "--shards"})
        for (const char *n : {"4294967296", "4294967297"}) {
            std::vector<std::string> args = base;
            args.insert(args.end(), {flag, n});
            EXPECT_EXIT(runConnect(args), ::testing::ExitedWithCode(2),
                        std::string("bad ") + flag + " value '" + n + "'");
        }

    ServerOptions so;
    so.unixPath = sock;
    so.workers = 1;
    Server server(so);
    std::thread srv([&server] { server.run(); });
    while (!std::filesystem::exists(sock))
        std::this_thread::sleep_for(1ms);
    std::vector<std::string> args = base;
    args.insert(args.end(),
                {"--jobs", "4294967295", "--shards", "4294967295"});
    std::string out;
    EXPECT_EQ(0, runConnect(args, &out));
    RpcRequest same;
    same.cache = "dm:4kB";
    same.trace = tracePath("conflict_dm.bst");
    same.shards = same.jobs = 4294967295u;
    TraceRegistry reg;
    EXPECT_EQ(runStatsBody(same, reg) + "\n", out);
    server.beginDrain();
    srv.join();
}

/** A seed past 2^53 reaches the server exactly, not through a double. */
TEST(ConnectFlags, SeedPast2To53IsByteIdenticalToRunStatsBody)
{
    setFatalThrows(true);
    TempDir tmp;
    const std::string sock = tmp.path("bsimd.sock");
    ServerOptions so;
    so.unixPath = sock;
    so.workers = 1;
    Server server(so);
    std::thread srv([&server] { server.run(); });
    while (!std::filesystem::exists(sock))
        std::this_thread::sleep_for(1ms);

    std::string out;
    EXPECT_EQ(0, runConnect({"--connect", sock, "--cache", "dm:4kB",
                             "--accesses", "5000", "--seed",
                             "12345678901234567"},
                            &out));
    RpcRequest req;
    req.cache = "dm:4kB";
    req.accesses = 5000;
    req.accessesSet = true;
    req.seed = 12345678901234567u;
    TraceRegistry reg;
    const std::string exact = runStatsBody(req, reg);
    EXPECT_EQ(exact + "\n", out);
    // The double nearest that seed is the next integer, another run.
    req.seed = 12345678901234568u;
    EXPECT_NE(exact, runStatsBody(req, reg));

    {
        RpcClient client = RpcClient::connectUnix(sock);
        for (const char *n : {"1.5", "-1", "18446744073709551616"}) {
            const RpcResult r = decodeResult(client.call(
                std::string(R"({"op":"run","cache":"dm:4kB","seed":)") + n +
                "}"));
            EXPECT_FALSE(r.ok) << n;
            EXPECT_EQ("bad-request", r.errorCode) << n;
        }
    }
    server.beginDrain();
    srv.join();
}

TEST(ConnectFlags, PortsOutsideOneTo65535AreRefusedBeforeConnecting)
{
    for (const char *target :
         {":0", ":65536", ":99999", "127.0.0.1:70000",
          ":18446744073709551616"})
        EXPECT_EXIT(runConnect({"--connect", target, "--ping"}),
                    ::testing::ExitedWithCode(2), "bad --connect port")
            << target;

    // In range: parsed into host and port; nothing is connected.
    const auto parse = [](std::string target) {
        std::string prog = "bsim", flag = "--connect", op = "--ping";
        char *argv[] = {prog.data(), flag.data(), target.data(), op.data(),
                        nullptr};
        return parseConnectArgs(4, argv);
    };
    const ConnectArgs low = parse(":1");
    EXPECT_EQ("127.0.0.1", low.host);
    EXPECT_EQ(1, low.port);
    const ConnectArgs high = parse("10.0.0.7:65535");
    EXPECT_EQ("10.0.0.7", high.host);
    EXPECT_EQ(65535, high.port);
    EXPECT_EQ(0, parse("/tmp/bsimd.sock").port);
}

/**
 * Bad numbers exit 2 and name the flag. No case gives --socket/--tcp,
 * so no Server is ever built, whatever a broken parser would read.
 */
TEST(ServeFlags, BadNumbersExitTwoNamingTheFlag)
{
    const std::pair<const char *, const char *> cases[] = {
        {"--workers", "-1"},       {"--workers", "abc"},
        {"--workers", "4294967296"}, {"--workers", "257"},
        {"--queue", "-1"},
        {"--queue", "8x"},         {"--max-frame", "1x"},
        {"--max-frame", "-1"},     {"--idle-timeout-ms", "soon"},
    };
    for (const auto &[flag, value] : cases)
        EXPECT_EXIT(runCli(serveMain, {flag, value}),
                    ::testing::ExitedWithCode(2),
                    std::string("bad ") + flag + " value '" + value + "'")
            << flag << " " << value;
}

/** Malformed and oversized frames get typed errors, then a close. */
TEST(ServerLifecycle, FramingErrorsAreTypedThenFatal)
{
    setFatalThrows(true);
    ServerOptions so;
    Server server(so);

    { // garbage magic
        int sp[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
        std::thread srv(
            [&server, fd = sp[0]] { server.serveConnection(fd); });
        const char junk[] = "NOTBRPC!";
        ASSERT_EQ(static_cast<ssize_t>(sizeof junk),
                  ::write(sp[1], junk, sizeof junk));
        // The decoder on our side still parses the error frame.
        FrameDecoder dec;
        char buf[4096];
        std::string payload;
        for (;;) {
            const ssize_t n = ::read(sp[1], buf, sizeof buf);
            ASSERT_GT(n, 0) << "connection closed before the error";
            dec.feed(buf, static_cast<std::size_t>(n));
            if (dec.next(&payload) == FrameStatus::Frame)
                break;
        }
        const RpcResult r = decodeResult(payload);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ("malformed-frame", r.errorCode);
        srv.join(); // server closes after a framing error
        ::close(sp[1]);
    }

    { // oversized declaration
        ServerOptions tiny;
        tiny.maxFramePayload = 64;
        Server small(tiny);
        int sp[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
        std::thread srv(
            [&small, fd = sp[0]] { small.serveConnection(fd); });
        const std::string big = encodeFrame(std::string(65, 'z'));
        ASSERT_EQ(static_cast<ssize_t>(big.size()),
                  ::write(sp[1], big.data(), big.size()));
        FrameDecoder dec;
        char buf[4096];
        std::string payload;
        for (;;) {
            const ssize_t n = ::read(sp[1], buf, sizeof buf);
            ASSERT_GT(n, 0) << "connection closed before the error";
            dec.feed(buf, static_cast<std::size_t>(n));
            if (dec.next(&payload) == FrameStatus::Frame)
                break;
        }
        const RpcResult r = decodeResult(payload);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ("oversized", r.errorCode);
        srv.join();
        ::close(sp[1]);
    }
}

} // namespace
