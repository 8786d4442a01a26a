#include "bench/bench_json.hh"

#include <vector>

#include "common/json.hh"

namespace bsim {
namespace bench {

namespace {

/** Validation state: first failure wins, the rest short-circuit. */
struct Lint
{
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what;
        return false;
    }

    bool ok() const { return error.empty(); }
};

const JsonValue *
member(Lint &l, const JsonValue &obj, const std::string &key,
       bool required, const char *where)
{
    const JsonValue *v = obj.find(key);
    if (!v && required)
        l.fail(std::string(where) + ": missing key '" + key + "'");
    return v;
}

bool
expectNumber(Lint &l, const JsonValue *v, const char *where)
{
    if (!v)
        return false;
    if (!v->isNumber())
        return l.fail(std::string(where) + ": expected a number");
    return true;
}

bool
expectString(Lint &l, const JsonValue *v, const char *where)
{
    if (!v)
        return false;
    if (!v->isString())
        return l.fail(std::string(where) + ": expected a string");
    return true;
}

/** An array of numbers, optionally of exactly @p want elements. */
bool
numberArray(Lint &l, const JsonValue *v, const char *where,
            std::size_t want = ~std::size_t{0})
{
    if (!v)
        return false;
    if (!v->isArray())
        return l.fail(std::string(where) + ": expected an array");
    if (want != ~std::size_t{0} && v->array.size() != want)
        return l.fail(std::string(where) + ": expected " +
                      std::to_string(want) + " element(s), got " +
                      std::to_string(v->array.size()));
    for (const JsonValue &e : v->array)
        if (!e.isNumber())
            return l.fail(std::string(where) +
                          ": non-number array element");
    return true;
}

/** Exactly the keys in @p keys, all numbers. */
bool
numberObject(Lint &l, const JsonValue *v,
             const std::vector<const char *> &keys, const char *where)
{
    if (!v)
        return false;
    if (!v->isObject())
        return l.fail(std::string(where) + ": expected an object");
    for (const char *k : keys)
        expectNumber(l, member(l, *v, k, true, where), where);
    if (v->object.size() != keys.size())
        return l.fail(std::string(where) + ": unexpected extra key");
    return l.ok();
}

void
lintStats(Lint &l, const JsonValue *stats, const char *where)
{
    if (!numberObject(l, stats,
                      {"accesses", "hits", "misses", "missRate",
                       "readAccesses", "readMisses", "writeAccesses",
                       "writeMisses", "fetchAccesses", "fetchMisses",
                       "writebacks", "writethroughs", "refills"},
                      where))
        return;
    const double acc = stats->find("accesses")->number;
    const double hit = stats->find("hits")->number;
    const double mis = stats->find("misses")->number;
    if (hit + mis != acc)
        l.fail(std::string(where) + ": hits + misses != accesses");
}

void
lintObserver(Lint &l, const JsonValue &obs, const char *where)
{
    if (!obs.isObject()) {
        l.fail(std::string(where) + ": expected an object");
        return;
    }
    const JsonValue *per = member(l, obs, "perSet", true, where);
    if (per && per->isObject()) {
        const JsonValue *lines = member(l, *per, "lines", true, where);
        if (expectNumber(l, lines, where)) {
            const auto n = static_cast<std::size_t>(lines->number);
            numberArray(l, member(l, *per, "accesses", true, where),
                        "perSet.accesses", n);
            numberArray(l, member(l, *per, "hits", true, where),
                        "perSet.hits", n);
            numberArray(l, member(l, *per, "misses", true, where),
                        "perSet.misses", n);
            numberArray(l, member(l, *per, "installs", true, where),
                        "perSet.installs", n);
        }
    } else if (per) {
        l.fail(std::string(where) + ".perSet: expected an object");
    }
    numberObject(l, member(l, obs, "balanceMetrics", true, where),
                 {"maxRefs", "meanRefs", "maxOverMean", "cov", "gini"},
                 "balanceMetrics");
    expectNumber(l, member(l, obs, "writebacks", true, where),
                 "observer.writebacks");
    if (const JsonValue *iv = obs.find("intervals")) {
        if (!iv->isObject()) {
            l.fail("intervals: expected an object");
            return;
        }
        const JsonValue *len = member(l, *iv, "length", true,
                                      "intervals");
        if (expectNumber(l, len, "intervals.length") &&
            len->number <= 0)
            l.fail("intervals.length: must be positive");
        const JsonValue *samples = member(l, *iv, "samples", true,
                                          "intervals");
        if (samples && samples->isArray()) {
            for (const JsonValue &s : samples->array)
                numberObject(l, &s,
                             {"accesses", "misses", "writebacks",
                              "pdReprograms"},
                             "intervals.samples[]");
        } else if (samples) {
            l.fail("intervals.samples: expected an array");
        }
    }
    if (const JsonValue *pd = obs.find("pd")) {
        if (!pd->isObject()) {
            l.fail("observer.pd: expected an object");
            return;
        }
        expectNumber(l, member(l, *pd, "reprograms", true,
                               "observer.pd"),
                     "observer.pd.reprograms");
        numberArray(l, member(l, *pd, "reprogramsPerGroup", true,
                              "observer.pd"),
                    "observer.pd.reprogramsPerGroup");
        numberArray(l, member(l, *pd, "occupancyPerGroup", true,
                              "observer.pd"),
                    "observer.pd.occupancyPerGroup");
    }
}

/** The sampled-replay evidence object emitted instead of "balance". */
void
lintSample(Lint &l, const JsonValue *sample, const char *where)
{
    if (!numberObject(l, sample,
                      {"unitLen", "period", "warmup", "records",
                       "units", "sampledFraction", "estimate", "stderr",
                       "ci95lo", "ci95hi", "mpki"},
                      where))
        return;
    const double lo = sample->find("ci95lo")->number;
    const double hi = sample->find("ci95hi")->number;
    const double est = sample->find("estimate")->number;
    if (lo > est || est > hi)
        l.fail(std::string(where) +
               ": estimate outside its own 95% CI");
    if (sample->find("unitLen")->number <= 0)
        l.fail(std::string(where) + ".unitLen: must be positive");
}

/**
 * One run body: top level of single runs, elements of "shards". Run
 * bodies carry "sample" XOR "balance" (sampled replays run a fresh
 * cache per unit, so there is no per-set usage to classify); the
 * sharded top level may carry both — a merged sample next to an
 * observer-derived balance — so it passes @p allow_both.
 */
void
lintRunBody(Lint &l, const JsonValue &run, bool balance_required,
            bool allow_both, const char *where)
{
    expectString(l, member(l, run, "workload", true, where),
                 "workload");
    expectString(l, member(l, run, "config", true, where), "config");
    lintStats(l, member(l, run, "stats", true, where), "stats");
    if (const JsonValue *pd = run.find("pd"))
        numberObject(l, pd,
                     {"pdHitCacheMiss", "pdMiss", "pdHitRateOnMiss",
                      "missPredictionRate"},
                     "pd");
    if (const JsonValue *vh = run.find("victimHits"))
        expectNumber(l, vh, "victimHits");
    const JsonValue *sample = run.find("sample");
    if (sample)
        lintSample(l, sample, "sample");
    const JsonValue *bal =
        member(l, run, "balance", balance_required && !sample, where);
    if (bal && sample && !allow_both)
        l.fail(std::string(where) +
               ": sample and balance are mutually exclusive");
    if (bal)
        numberObject(l, bal,
                     {"frequentHitSetsPct", "hitsInFrequentHitSetsPct",
                      "frequentMissSetsPct",
                      "missesInFrequentMissSetsPct",
                      "lessAccessedSetsPct",
                      "accessesInLessAccessedSetsPct"},
                     "balance");
    if (const JsonValue *obs = run.find("observer"))
        lintObserver(l, *obs, "observer");
}

} // namespace

bool
validateStatsJson(const std::string &text, std::string *error)
{
    Lint l;
    std::string perr;
    const auto doc = parseJson(text, &perr);
    if (!doc) {
        if (error)
            *error = "parse: " + perr;
        return false;
    }
    if (!doc->isObject()) {
        if (error)
            *error = "top level: expected an object";
        return false;
    }
    const JsonValue *schema = member(l, *doc, "schema", true, "top");
    if (expectString(l, schema, "schema") &&
        schema->string != "bsim-stats-v1")
        l.fail("schema: expected \"bsim-stats-v1\", got \"" +
               schema->string + "\"");
    const JsonValue *driver = member(l, *doc, "driver", true, "top");
    std::string d;
    if (expectString(l, driver, "driver")) {
        d = driver->string;
        if (d != "workload" && d != "trace" && d != "sharded")
            l.fail("driver: must be workload, trace or sharded");
    }
    if (l.ok()) {
        // Sharded documents may lack a top-level balance (only present
        // when the replay was observed); single runs always carry a
        // balance or, when sampled, a sample object in its place.
        lintRunBody(l, *doc, /*balance_required=*/d != "sharded",
                    /*allow_both=*/d == "sharded", "top");
    }
    if (d == "sharded") {
        const JsonValue *shards = member(l, *doc, "shards", true,
                                         "top");
        if (shards && shards->isArray()) {
            for (const JsonValue &s : shards->array) {
                if (!s.isObject()) {
                    l.fail("shards[]: expected an object");
                    break;
                }
                lintRunBody(l, s, /*balance_required=*/true,
                            /*allow_both=*/false, "shards[]");
            }
        } else if (shards) {
            l.fail("shards: expected an array");
        }
    } else if (doc->find("shards")) {
        l.fail("shards: only sharded documents carry a shards array");
    }
    if (!l.ok() && error)
        *error = l.error;
    return l.ok();
}

} // namespace bench
} // namespace bsim
