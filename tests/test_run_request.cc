/**
 * @file
 * The one run description (sim/run_request.hh) as every front end
 * reads it: each run field must come out the same from a `bsim` flag, a
 * `bsim --connect` flag (and the payload that client sends), a wire key
 * and a `--config` experiment file. Also the experiment file's own
 * rules, the exact reading of wire integers from their lexemes, and
 * the `batch` field reaching the DUT of a synthetic-workload run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_spec.hh"
#include "cache/set_assoc_cache.hh"
#include "serve/client.hh"
#include "serve/rpc.hh"
#include "sim/bsim_driver.hh"

namespace bsim {
namespace {

/** argv over @p args (which must outlive it), after a "bsim" argv[0]. */
std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    args.insert(args.begin(), "bsim");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return argv;
}

RunRequest
bsimRun(std::vector<std::string> args)
{
    std::vector<char *> argv = argvOf(args);
    return parseBsimArgs(static_cast<int>(args.size()), argv.data()).run;
}

/** A file under the temp dir, removed on destruction. */
class ConfigFile
{
  public:
    explicit ConfigFile(const std::string &text)
        : path_((std::filesystem::temp_directory_path() /
                 ("bsim_run_request_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter_++) + ".json"))
                    .string())
    {
        std::ofstream(path_) << text;
    }
    ~ConfigFile() { std::filesystem::remove(path_); }
    const std::string &path() const { return path_; }

  private:
    static inline int counter_ = 0;
    std::string path_;
};

/** One run field: its key, a non-default value and what that sets. */
struct FieldCase
{
    std::string key, value;
    bool number;
    std::function<void(RunRequest &)> expect;
};

TEST(RunRequestParity, EveryFieldReadsTheSameFromEveryFrontEnd)
{
    const FieldCase cases[] = {
        {"cache", "sa:16kB,4w", false,
         [](RunRequest &r) { r.cache = "sa:16kB,4w"; }},
        {"trace", "gcc.bst", false,
         [](RunRequest &r) { r.trace = "gcc.bst"; }},
        {"workload", "vpr", false, [](RunRequest &r) { r.workload = "vpr"; }},
        {"side", "inst", false, [](RunRequest &r) { r.side = "inst"; }},
        {"seed", "12345678901234567", true,
         [](RunRequest &r) { r.seed = 12345678901234567u; }},
        {"sample", "50:200:50", false,
         [](RunRequest &r) { r.sample = "50:200:50"; }},
        {"shards", "3", true, [](RunRequest &r) { r.shards = 3; }},
        {"jobs", "4294967295", true,
         [](RunRequest &r) { r.jobs = 4294967295u; }},
        {"accesses", "18446744073709551615", true,
         [](RunRequest &r) {
             r.accesses = std::numeric_limits<std::uint64_t>::max();
             r.accessesSet = true;
         }},
        {"batch", "64", true, [](RunRequest &r) { r.batch = 64; }},
    };
    for (const FieldCase &c : cases) {
        SCOPED_TRACE(c.key);
        RunRequest want;
        want.cache = "dm:4kB";
        c.expect(want);
        const std::string flag = "--" + c.key;
        const std::string member =
            "\"" + c.key +
            "\":" + (c.number ? c.value : "\"" + c.value + "\"");

        EXPECT_EQ(want, bsimRun({"--cache", "dm:4kB", flag, c.value}));

        std::vector<std::string> args = {"--connect", "/no/bsimd.sock",
                                         "--cache", "dm:4kB", flag, c.value};
        std::vector<char *> argv = argvOf(args);
        const serve::RpcRequest connect =
            serve::parseConnectArgs(static_cast<int>(args.size()), argv.data())
                .request;
        EXPECT_EQ(want, static_cast<const RunRequest &>(connect));
        std::string err;
        const auto sent =
            serve::parseRpcRequest(serve::encodeRpcRequest(connect), &err);
        ASSERT_TRUE(sent) << err;
        EXPECT_EQ(connect, *sent);

        const auto wire = serve::parseRpcRequest(
            R"({"op":"run","cache":"dm:4kB",)" + member + "}", &err);
        ASSERT_TRUE(wire) << err;
        EXPECT_EQ(want, static_cast<const RunRequest &>(*wire));

        const ConfigFile config(R"({"cache":"dm:4kB",)" + member + "}");
        EXPECT_EQ(want, bsimRun({"--config", config.path()}));
    }
}

// ------------------------------------------------- the experiment file

TEST(ExperimentFile, FullBCacheSpec)
{
    const ConfigFile config(R"({
        "cache": "bcache:32kB,mf=16,bas=4,repl=random,wp=wt",
        "workload": "equake", "side": "inst", "accesses": 123456,
        "seed": 99, "batch": 32
    })");
    EXPECT_EQ(bsimRun({"--cache", "bcache:32kB,mf=16,bas=4,repl=random,wp=wt",
                       "--workload", "equake", "--side", "inst",
                       "--accesses", "123456", "--seed", "99", "--batch",
                       "32"}),
              bsimRun({"--config", config.path()}));
}

TEST(ExperimentFile, DefaultsWhenSparse)
{
    const ConfigFile config(R"({"cache":"dm:16kB"})");
    RunRequest want;
    want.cache = "dm:16kB";
    EXPECT_EQ(want, bsimRun({"--config", config.path()}));
    const ConfigFile empty("{}"); // bsim's default cache stays
    EXPECT_EQ(kDefaultCacheSpec, bsimRun({"--config", empty.path()}).cache);
}

TEST(ExperimentFile, TracePathOverride)
{
    const ConfigFile config(R"({"trace":"/tmp/foo.bst"})");
    // The file overrides flags before it; flags after it override it.
    EXPECT_EQ("/tmp/foo.bst",
              bsimRun({"--trace", "/tmp/bar.bst", "--config", config.path()})
                  .trace);
    EXPECT_EQ("/tmp/bar.bst",
              bsimRun({"--config", config.path(), "--trace", "/tmp/bar.bst"})
                  .trace);
}

/** bsimMain's stdout for @p args. */
std::string
bsimStdout(std::vector<std::string> args)
{
    std::vector<char *> argv = argvOf(args);
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(0, bsimMain(static_cast<int>(args.size()), argv.data()));
    return ::testing::internal::GetCapturedStdout();
}

TEST(ExperimentFile, SpecRunsEndToEnd)
{
    const ConfigFile config(R"({"cache":"bcache:16kB,mf=8,bas=8",)"
                            R"("workload":"vpr","accesses":20000})");
    const std::string fromFile =
        bsimStdout({"--config", config.path(), "--json"});
    EXPECT_NE(std::string::npos, fromFile.find("\"accesses\":20000"));
    EXPECT_EQ(bsimStdout({"--cache", "bcache:16kB,mf=8,bas=8", "--workload",
                          "vpr", "--accesses", "20000", "--json"}),
              fromFile);
}

TEST(ExperimentFileDeathTest, Malformed)
{
    const std::pair<const char *, const char *> cases[] = {
        {R"({"cache":)", "not valid JSON"},
        {R"(["dm:16kB"])", "must be a JSON object"},
        {R"({"cache":16})", "field 'cache' must be a string"},
        {R"({"seed":"7"})", "field 'seed' must be a non-negative integer"},
        {R"({"side":"sideways"})", "field 'side' must be 'data' or 'inst'"},
        {R"({"jobs":4294967296})", "field 'jobs' must be at most 4294967295"},
        // Unknown keys, and the keys only the wire has.
        {R"({"kind":"bcache"})", "unknown field 'kind'"},
        {R"({"op":"run"})", "unknown field 'op'"},
        {R"({"stats":false})", "unknown field 'stats'"},
        {R"({"deadline_ms":5})", "unknown field 'deadline_ms'"},
    };
    for (const auto &[text, message] : cases) {
        const ConfigFile config(text);
        EXPECT_EXIT(bsimRun({"--config", config.path()}),
                    ::testing::ExitedWithCode(2), message)
            << text;
    }
}

TEST(ExperimentFileDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(bsimRun({"--config", "/nonexistent/run.json"}),
                ::testing::ExitedWithCode(2),
                "--config /nonexistent/run.json: cannot open");
}

// ----------------------------------------------------- wire integers

TEST(WireIntegers, Uint64MaxSeedIsAcceptedAsOnTheCommandLine)
{
    std::string err;
    const auto req = serve::parseRpcRequest(
        R"({"op":"run","cache":"dm:4kB","seed":18446744073709551615})", &err);
    ASSERT_TRUE(req) << err;
    EXPECT_EQ(std::numeric_limits<std::uint64_t>::max(), req->seed);
    EXPECT_EQ(req->seed, bsimRun({"--seed", "18446744073709551615"}).seed);
}

TEST(WireIntegers, NonIntegerNegativeAndOverRangeLexemesAreRefused)
{
    for (const std::string key :
         {"seed", "accesses", "batch", "deadline_ms", "shards", "jobs"})
        for (const char *n :
             {"1.5", "1.0", "1e3", "-1", "-0", "18446744073709551616"}) {
            std::string err;
            const std::string payload =
                R"({"op":"run","cache":"dm:4kB",")" + key + "\":" + n + "}";
            EXPECT_FALSE(serve::parseRpcRequest(payload, &err)) << payload;
            EXPECT_EQ("field '" + key + "' must be a non-negative integer",
                      err);
        }
}

// ------------------------------------------------------ batch length

/** accessBatch calls made by every "countbatch" DUT. */
std::uint64_t gBatchCalls = 0;

/** A direct-mapped cache that counts its accessBatch calls. */
class BatchCountingCache : public SetAssocCache
{
  public:
    using SetAssocCache::SetAssocCache;

    void
    accessBatch(std::span<const MemAccess> reqs,
                AccessOutcome *out) override
    {
        ++gBatchCalls;
        SetAssocCache::accessBatch(reqs, out);
    }
};

/** A kind no built-in grammar uses. */
constexpr auto kCountBatchKind = static_cast<CacheKind>(0xff);

BSIM_REGISTER_CACHE_SPEC(
    regCountBatch,
    {"countbatch",
     {},
     "countbatch:<size>",
     "test-only direct-mapped cache counting its accessBatch calls",
     kCountBatchKind,
     [](std::uint64_t size, SpecParams &p) {
         p.finish("");
         CacheConfig c = CacheConfig::directMapped(size);
         c.kind = kCountBatchKind;
         c.label = "countbatch";
         return c;
     },
     [](const CacheConfig &) { return std::string(); },
     [](const CacheConfig &c, const std::string &name, Cycles hit_latency,
        MemLevel *next) -> std::unique_ptr<BaseCache> {
         return std::make_unique<BatchCountingCache>(
             name, CacheGeometry(c.sizeBytes, c.lineBytes, 1),
             hit_latency, next);
     }})

TEST(RunRequestBatch, WorkloadRunsFeedTheDutInBatchSizedSpans)
{
    for (const char *sample : {"", "500:5000:500"}) {
        RunRequest req;
        req.cache = "countbatch:16kB";
        req.accesses = 20000;
        req.accessesSet = true;
        req.sample = sample;
        auto run = [&](std::uint64_t batch, std::uint64_t *calls) {
            req.batch = batch;
            gBatchCalls = 0;
            const std::string body = statsBody(dispatchRun(req, {}));
            *calls = gBatchCalls;
            return body;
        };
        std::uint64_t one = 0, big = 0, unset = 0, byDefault = 0;
        const std::string body = run(1, &one);
        EXPECT_EQ(body, run(4096, &big)) << sample;
        EXPECT_NE(one, big) << sample;
        // 0 still means defaultBatchLen().
        EXPECT_EQ(body, run(0, &unset)) << sample;
        EXPECT_EQ(body, run(defaultBatchLen(), &byDefault)) << sample;
        EXPECT_EQ(unset, byDefault) << sample;
    }
}

} // namespace
} // namespace bsim
