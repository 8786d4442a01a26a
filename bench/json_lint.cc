/**
 * @file
 * The one schema lint for bsim's JSON documents, driven by
 * scripts/check_json.sh and the `check_stats_json` and `check_rpc_json`
 * ctests. Each document names
 * its own schema: a "bsim-rpc" key marks a bsim-rpc-v1 response
 * envelope (checked by serve::validateRpcEnvelope, src/serve/rpc.hh),
 * anything else must be a bsim-stats-v1 document carrying "schema"
 * (checked by bench::validateStatsJson, bench/bench_json.hh).
 *
 * Usage:
 *   json_lint FILE...     lint each file (one document per file)
 *   json_lint --selftest [stats|rpc]
 *                         exercise both validators (or the one named) on
 *                         built-in good and bad documents, no file I/O
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.hh"
#include "common/json.hh"
#include "serve/rpc.hh"

using namespace bsim;
using namespace bsim::serve;

namespace {

/**
 * Validate @p text against the schema its version key names; @p schema
 * receives that schema's name.
 */
bool
lintDocument(const std::string &text, std::string *error,
             const char **schema)
{
    const auto doc = parseJson(text);
    if (doc && doc->isObject() && doc->find("bsim-rpc")) {
        *schema = "bsim-rpc-v1";
        return validateRpcEnvelope(text, error);
    }
    *schema = "bsim-stats-v1";
    return bench::validateStatsJson(text, error);
}

int
lintFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    const char *schema = nullptr;
    if (!lintDocument(ss.str(), &err, &schema)) {
        std::fprintf(stderr, "%s: %s: %s\n", path.c_str(), schema,
                     err.c_str());
        return 1;
    }
    std::printf("%s: %s -- ok\n", path.c_str(), schema);
    return 0;
}

const char *kGoodStats =
    R"("stats":{"accesses":10,"hits":8,"misses":2,"missRate":0.2,)"
    R"("readAccesses":5,"readMisses":1,"writeAccesses":5,)"
    R"("writeMisses":1,"fetchAccesses":0,"fetchMisses":0,)"
    R"("writebacks":1,"writethroughs":0,"refills":2})";

const char *kGoodBalance =
    R"("balance":{"frequentHitSetsPct":1,"hitsInFrequentHitSetsPct":2,)"
    R"("frequentMissSetsPct":3,"missesInFrequentMissSetsPct":4,)"
    R"("lessAccessedSetsPct":5,"accessesInLessAccessedSetsPct":6})";

const char *kGoodSample =
    R"("sample":{"unitLen":100,"period":1000,"warmup":200,)"
    R"("records":5000,"units":5,"sampledFraction":0.1,)"
    R"("estimate":0.2,"stderr":0.01,"ci95lo":0.18,"ci95hi":0.22,)"
    R"("mpki":200})";

const char *kGoodObserver =
    R"("observer":{"perSet":{"lines":2,"accesses":[6,4],"hits":[5,3],)"
    R"("misses":[1,1],"installs":[1,1]},"balanceMetrics":{"maxRefs":6,)"
    R"("meanRefs":5,"maxOverMean":1.2,"cov":0.2,"gini":0.1},)"
    R"("writebacks":1,"intervals":{"length":5,"samples":[{"accesses":5,)"
    R"("misses":1,"writebacks":0,"pdReprograms":0}]},"pd":{)"
    R"("reprograms":1,"reprogramsPerGroup":[1],"occupancyPerGroup":[2]}})";

/** @p doc with the first @p from replaced by @p to. */
std::string
edit(std::string doc, const std::string &from, const std::string &to)
{
    return doc.replace(doc.find(from), from.size(), to);
}

/**
 * Run the built-in cases: the bsim-stats-v1 table when @p only is
 * "stats", the bsim-rpc-v1 table when it is "rpc", both when empty.
 */
int
selftest(const std::string &only)
{
    struct Case
    {
        std::string name;
        std::string text;
        bool valid;
    };
    const std::string head =
        R"({"schema":"bsim-stats-v1","driver":"trace",)"
        R"("workload":"trace:t.bst","config":"dm-16kB",)";
    const std::string run = head + kGoodStats + "," + kGoodBalance + "}";
    const std::string observed = head + kGoodStats + "," + kGoodBalance +
                                 "," + kGoodObserver + "}";
    const std::string sharded =
        R"({"schema":"bsim-stats-v1","driver":"sharded",)"
        R"("workload":"trace:t.bst","config":"dm-16kB",)" +
        std::string(kGoodStats);
    const std::vector<Case> stats = {
        {"minimal run",
         head + kGoodStats + "," + kGoodBalance + "}", true},
        {"observed run",
         head + kGoodStats + "," + kGoodBalance + "," + kGoodObserver +
             "}",
         true},
        {"sharded",
         R"({"schema":"bsim-stats-v1","driver":"sharded",)"
         R"("workload":"trace:t.bst","config":"dm-16kB",)" +
             std::string(kGoodStats) + R"(,"shards":[)" + head +
             kGoodStats + "," + kGoodBalance + "}]}",
         true},
        {"not json", "{", false},
        {"wrong schema",
         R"({"schema":"bsim-stats-v2","driver":"trace",)"
         R"("workload":"w","config":"c",)" +
             std::string(kGoodStats) + "," + kGoodBalance + "}",
         false},
        {"bad driver",
         R"({"schema":"bsim-stats-v1","driver":"magic",)"
         R"("workload":"w","config":"c",)" +
             std::string(kGoodStats) + "," + kGoodBalance + "}",
         false},
        {"missing balance", head + kGoodStats + "}", false},
        {"inconsistent counters",
         head +
             R"("stats":{"accesses":10,"hits":9,"misses":2,)"
             R"("missRate":0.2,"readAccesses":5,"readMisses":1,)"
             R"("writeAccesses":5,"writeMisses":1,"fetchAccesses":0,)"
             R"("fetchMisses":0,"writebacks":1,"writethroughs":0,)"
             R"("refills":2},)" +
             kGoodBalance + "}",
         false},
        {"perSet length mismatch",
         head + kGoodStats + "," + kGoodBalance + "," +
             R"("observer":{"perSet":{"lines":3,"accesses":[6,4],)"
             R"("hits":[5,3],"misses":[1,1],"installs":[1,1]},)"
             R"("balanceMetrics":{"maxRefs":6,"meanRefs":5,)"
             R"("maxOverMean":1.2,"cov":0.2,"gini":0.1},)"
             R"("writebacks":1}})",
         false},
        {"shards on a single run",
         head + kGoodStats + "," + kGoodBalance +
             R"(,"shards":[]})",
         false},
        {"sampled run",
         head + kGoodStats + "," + kGoodSample + "}", true},
        {"sampled sharded with merged sample",
         R"({"schema":"bsim-stats-v1","driver":"sharded",)"
         R"("workload":"trace:t.bst","config":"dm-16kB",)" +
             std::string(kGoodStats) + "," + kGoodSample +
             R"(,"shards":[)" + head + kGoodStats + "," + kGoodSample +
             "}]}",
         true},
        {"sample next to balance in a run body",
         head + kGoodStats + "," + kGoodBalance + "," + kGoodSample +
             "}",
         false},
        {"sample missing a key",
         head + kGoodStats + "," +
             R"("sample":{"unitLen":100,"period":1000,"warmup":200,)"
             R"("records":5000,"units":5,"sampledFraction":0.1,)"
             R"("estimate":0.2,"stderr":0.01,"ci95lo":0.18,)"
             R"("ci95hi":0.22}})",
         false},
        {"sample with an extra key",
         head + kGoodStats + "," +
             R"("sample":{"unitLen":100,"period":1000,"warmup":200,)"
             R"("records":5000,"units":5,"sampledFraction":0.1,)"
             R"("estimate":0.2,"stderr":0.01,"ci95lo":0.18,)"
             R"("ci95hi":0.22,"mpki":200,"bonus":1}})",
         false},
        {"sample estimate outside its CI",
         head + kGoodStats + "," +
             R"("sample":{"unitLen":100,"period":1000,"warmup":200,)"
             R"("records":5000,"units":5,"sampledFraction":0.1,)"
             R"("estimate":0.5,"stderr":0.01,"ci95lo":0.18,)"
             R"("ci95hi":0.22,"mpki":500}})",
         false},
        {"workload not a string",
         edit(run, R"("workload":"trace:t.bst")", R"("workload":1)"),
         false},
        {"stats missing a key", edit(run, R"(,"refills":2)", ""), false},
        {"stats with an extra key",
         edit(run, R"("refills":2)", R"("refills":2,"bonus":1)"), false},
        {"pd missing a key", edit(run, "}}", R"(},"pd":{"pdMiss":1}})"),
         false},
        {"victimHits not a number",
         edit(run, "}}", R"(},"victimHits":"1"})"), false},
        {"sample unitLen not positive",
         head + kGoodStats + "," +
             edit(kGoodSample, R"("unitLen":100)", R"("unitLen":0)") + "}",
         false},
        {"balance with an extra key",
         edit(run, R"("accessesInLessAccessedSetsPct":6)",
              R"("accessesInLessAccessedSetsPct":6,"bonus":1)"),
         false},
        {"balanceMetrics missing a key", edit(observed, R"(,"gini":0.1)", ""),
         false},
        {"observer writebacks not a number",
         edit(observed, R"("writebacks":1,"intervals")",
              R"("writebacks":"1","intervals")"),
         false},
        {"intervals length not positive",
         edit(observed, R"("length":5)", R"("length":0)"), false},
        {"interval sample missing a key",
         edit(observed, R"(,"pdReprograms":0)", ""), false},
        {"observer pd missing a key",
         edit(observed, R"("reprograms":1,)", ""), false},
        {"sharded without shards", sharded + "}", false},
        {"shards not an array", sharded + R"(,"shards":{}})", false},
        {"shard body without balance",
         sharded + R"(,"shards":[)" + head + kGoodStats + "}]}", false},
    };
    std::vector<Case> rpc = {
        {"ok with object body",
         okEnvelope(R"({"schema":"bsim-stats-v1","x":1})"), true},
        {"ok with array body (sharded --json)",
         okEnvelope(R"([{"a":1},{"a":2}])"), true},
        {"error envelope",
         errorEnvelope(RpcErrorCode::Overloaded, "queue full"), true},
        {"top-level array", "[]", false},
        {"missing version", R"({"ok":true,"body":{}})", false},
        {"wrong version",
         R"({"bsim-rpc":"v2","ok":true,"body":{}})", false},
        {"ok without body", R"({"bsim-rpc":"v1","ok":true})", false},
        {"ok with error arm",
         R"({"bsim-rpc":"v1","ok":true,"body":{},)"
         R"("error":{"code":"internal","message":"x"}})",
         false},
        {"failure without error",
         R"({"bsim-rpc":"v1","ok":false})", false},
        {"failure with body arm",
         R"({"bsim-rpc":"v1","ok":false,"body":{},)"
         R"("error":{"code":"internal","message":"x"}})",
         false},
        {"unknown error code",
         R"({"bsim-rpc":"v1","ok":false,)"
         R"("error":{"code":"teapot","message":"x"}})",
         false},
        {"error missing message",
         R"({"bsim-rpc":"v1","ok":false,)"
         R"("error":{"code":"overloaded"}})",
         false},
        {"ok not a boolean",
         R"({"bsim-rpc":"v1","ok":1,"body":{}})", false},
        {"error code not a string",
         R"({"bsim-rpc":"v1","ok":false,)"
         R"("error":{"code":1,"message":"x"}})",
         false},
    };
    for (int i = 0; i <= static_cast<int>(RpcErrorCode::Internal); ++i) {
        const auto code = static_cast<RpcErrorCode>(i);
        rpc.push_back({std::string("error code ") + rpcErrorName(code),
                       errorEnvelope(code, "m"), true});
    }

    std::vector<Case> cases;
    if (only.empty() || only == "stats")
        cases.insert(cases.end(), stats.begin(), stats.end());
    if (only.empty() || only == "rpc")
        cases.insert(cases.end(), rpc.begin(), rpc.end());
    if (cases.empty()) {
        std::fprintf(stderr, "json_lint: --selftest takes stats or rpc, "
                             "not '%s'\n", only.c_str());
        return 2;
    }

    int failures = 0;
    for (const Case &c : cases) {
        std::string err;
        const char *schema = nullptr;
        const bool got = lintDocument(c.text, &err, &schema);
        if (got != c.valid) {
            std::fprintf(stderr,
                         "selftest FAIL: %s (%s): expected %s, got "
                         "%s%s%s\n",
                         c.name.c_str(), schema,
                         c.valid ? "valid" : "invalid",
                         got ? "valid" : "invalid",
                         err.empty() ? "" : ": ", err.c_str());
            ++failures;
        }
    }
    if (failures == 0)
        std::printf("json_lint selftest: %zu case(s) ok\n", cases.size());
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selftest(i + 1 < argc ? argv[i + 1] : "");
        files.push_back(arg);
    }
    if (files.empty()) {
        std::fprintf(stderr, "usage: json_lint FILE... | --selftest [stats|rpc]\n");
        return 2;
    }
    int rc = 0;
    for (const std::string &f : files)
        rc |= lintFile(f);
    return rc;
}
