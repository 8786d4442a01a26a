#include "sim/run_request.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "sim/report.hh"
#include "workload/spec2k.hh"

namespace bsim {

namespace {

/**
 * One of the ten run fields: its flag/JSON key and the one member it
 * fills — a string, a 64-bit number or an `unsigned` count.
 */
struct Field
{
    const char *key;
    std::string RunRequest::*text = nullptr;
    std::uint64_t RunRequest::*u64 = nullptr;
    unsigned RunRequest::*count = nullptr;
};

constexpr Field kFields[] = {
    {.key = "cache", .text = &RunRequest::cache},
    {.key = "trace", .text = &RunRequest::trace},
    {.key = "workload", .text = &RunRequest::workload},
    {.key = "side", .text = &RunRequest::side},
    {.key = "seed", .u64 = &RunRequest::seed},
    {.key = "sample", .text = &RunRequest::sample},
    {.key = "shards", .count = &RunRequest::shards},
    {.key = "jobs", .count = &RunRequest::jobs},
    {.key = "accesses", .u64 = &RunRequest::accesses},
    {.key = "batch", .u64 = &RunRequest::batch},
};

const Field *
findField(std::string_view key)
{
    for (const Field &f : kFields)
        if (key == f.key)
            return &f;
    return nullptr;
}

/** The side is the one string field with a closed set of values. */
void
setText(RunRequest &req, const Field &f, const std::string &value)
{
    if (f.text == &RunRequest::side && value != "data" && value != "inst")
        throw UsageError("field 'side' must be 'data' or 'inst'");
    req.*f.text = value;
}

/** Store a number field; false when @p n does not fit a count. */
bool
setNumber(RunRequest &req, const Field &f, std::uint64_t n)
{
    if (f.count) {
        const std::optional<unsigned> c = checkedCount(n);
        if (c)
            req.*f.count = *c;
        return c.has_value();
    }
    req.*f.u64 = n;
    req.accessesSet |= f.u64 == &RunRequest::accesses;
    return true;
}

} // namespace

bool
readRunFlag(int argc, char **argv, int &i, RunRequest &req)
{
    const std::string_view arg = argv[i];
    const Field *f = arg.starts_with("--") ? findField(arg.substr(2))
                                           : nullptr;
    if (!f)
        return false;
    const std::string flag(arg);
    if (i + 1 >= argc)
        throw UsageError(flag + " needs a value");
    const std::string value = argv[++i];
    if (f->text)
        setText(req, *f, value);
    else
        setNumber(req, *f,
                  f->count ? countFlag(flag, value) : u64Flag(flag, value));
    return true;
}

std::uint64_t
readJsonU64(const std::string &key, const JsonValue &value)
{
    const std::optional<std::uint64_t> n =
        value.isNumber() ? parseU64(value.string) : std::nullopt;
    if (!n)
        throw UsageError("field '" + key +
                         "' must be a non-negative integer");
    return *n;
}

void
readRunField(RunRequest &req, const std::string &key,
             const JsonValue &value)
{
    const Field *f = findField(key);
    if (!f)
        throw UsageError("unknown field '" + key + "'");
    if (f->text) {
        if (!value.isString())
            throw UsageError("field '" + key + "' must be a string");
        setText(req, *f, value.string);
    } else if (!setNumber(req, *f, readJsonU64(key, value))) {
        throw UsageError(
            "field '" + key + "' must be at most " +
            std::to_string(std::numeric_limits<unsigned>::max()));
    }
}

void
writeRunFields(JsonWriter &j, const RunRequest &req)
{
    static const RunRequest defaults;
    for (const Field &f : kFields) {
        if (f.text && req.*f.text != defaults.*f.text)
            j.kv(f.key, req.*f.text);
        else if (f.count && req.*f.count != defaults.*f.count)
            j.kv(f.key, req.*f.count);
        else if (f.u64 && (f.u64 == &RunRequest::accesses
                               ? req.accessesSet
                               : req.*f.u64 != defaults.*f.u64))
            j.kv(f.key, req.*f.u64);
    }
}

void
readRunRequestFile(const std::string &path, RunRequest &req)
{
    try {
        std::ifstream in(path);
        if (!in)
            throw UsageError("cannot open the file");
        std::ostringstream text;
        text << in.rdbuf();
        std::string error;
        const std::optional<JsonValue> doc = parseJson(text.str(), &error);
        if (!doc)
            throw UsageError("not valid JSON: " + error);
        if (!doc->isObject())
            throw UsageError("a run request must be a JSON object");
        for (const auto &[key, value] : doc->object)
            readRunField(req, key, value);
    } catch (const UsageError &e) {
        throw UsageError("--config " + path + ": " + e.what());
    }
}

RunOutcome
dispatchRun(const RunRequest &req, const ObserverConfig &observe,
            const std::function<TraceHandlePtr(const std::string &)>
                &openTrace)
{
    RunOutcome out;
    out.config = parseCacheSpec(req.cache);
    std::optional<SamplePlan> sample;
    if (!req.sample.empty())
        sample = parseSamplePlan(req.sample);
    TraceHandlePtr trace;
    if (openTrace && !req.trace.empty())
        trace = openTrace(req.trace);
    out.tracePath = trace ? trace->path() : req.trace;
    if (req.shards > 0 && out.tracePath.empty())
        throw UsageError("'shards' needs a 'trace'");

    TraceReplayOptions replay;
    replay.batchLen = static_cast<std::size_t>(req.batch);
    replay.handle = trace;
    // `accesses` caps a single replay and the sampled population; a
    // full sharded replay keeps its whole per-shard windows.
    if (req.shards == 0 || sample)
        replay.maxAccesses = req.accessesSet ? req.accesses : 0;
    // Sampled runs use a fresh cache per unit, so nothing to observe.
    if (!sample)
        replay.observe = observe;

    if (req.shards > 0) {
        SweepOptions opts;
        opts.jobs = req.jobs;
        out.sharded =
            sample ? runTraceSampledSharded(out.tracePath, out.config,
                                            *sample, req.shards, opts,
                                            replay)
                   : runTraceSharded(out.tracePath, out.config,
                                     req.shards, opts, replay);
    } else if (!out.tracePath.empty()) {
        // Streamed replay: O(chunk) resident memory at any length.
        out.result =
            sample ? runTraceSampled(out.tracePath, out.config, *sample,
                                     replay)
                   : runTraceReplay(out.tracePath, out.config,
                                    TraceShard{}, replay);
    } else {
        if (!isSpec2kName(req.workload))
            throw UsageError("unknown workload '" + req.workload + "'");
        const StreamSide side = req.side == "inst" ? StreamSide::Inst
                                                   : StreamSide::Data;
        const std::uint64_t n = req.accessesSet ? req.accesses : 1'000'000;
        SpecWorkload wl = makeSpecWorkload(req.workload, req.seed);
        Session session(side == StreamSide::Inst ? *wl.inst : *wl.data,
                        out.config, n, req.workload, replay.observe,
                        replay.batchLen);
        out.result = sample ? session.runSampled(*sample) : session.run();
    }
    return out;
}

std::string
compactBody(const RunOutcome &outcome)
{
    if (!outcome.sharded)
        return toJson(outcome.result);
    const std::vector<MissRateResult> &shards = outcome.sharded->shards;
    std::string out = "[";
    for (std::size_t i = 0; i < shards.size(); ++i)
        out += (i ? ",\n " : "") + toJson(shards[i]);
    return out + "]";
}

std::string
statsBody(const RunOutcome &outcome)
{
    if (outcome.sharded)
        return toStatsJson(*outcome.sharded, "trace:" + outcome.tracePath,
                           outcome.config.label);
    return toStatsJson(outcome.result,
                       outcome.tracePath.empty() ? "workload" : "trace");
}

} // namespace bsim
