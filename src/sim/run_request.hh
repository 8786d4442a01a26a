/**
 * @file
 * One run, described once. A RunRequest is what every bsim front end
 * fills: `bsim` flags, a `bsim --config FILE`, `bsim --connect` flags
 * and the bsim-rpc-v1 `run` request. dispatchRun() is the one function
 * that runs it, for the CLI and the server alike, and compactBody() /
 * statsBody() render the `--json` and `--stats-json` documents from
 * its outcome.
 *
 * The ten run fields have one spelling everywhere: flag `--<key>` and
 * JSON key `"<key>"` for cache, trace, workload, side, seed, sample,
 * shards, jobs, accesses and batch. Numbers are read from their text
 * (the flag's argument, or a JSON number's verbatim lexeme) by
 * parseU64(), so every front end reads the same value exactly.
 * docs/SERVE.md §4 is the wire spec.
 */

#ifndef BSIM_SIM_RUN_REQUEST_HH
#define BSIM_SIM_RUN_REQUEST_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/json.hh"
#include "sim/trace_replay.hh"

namespace bsim {

/** The cache `bsim` runs when no `--cache` is given. */
inline constexpr const char *kDefaultCacheSpec = "bcache:16kB,mf=8,bas=8";

struct RunRequest
{
    std::string cache;            ///< cache spec (cache/cache_spec.hh)
    std::string trace;            ///< trace path or name; "" = synthetic
    std::string workload = "gcc"; ///< synthetic workload (no trace)
    std::string side = "data";    ///< "data" | "inst"
    std::uint64_t seed = kDefaultSeed;
    std::string sample;           ///< "U:P:W" plan; "" = full run
    unsigned shards = 0;          ///< >0: sharded parallel trace replay
    unsigned jobs = 0;            ///< sweep threads for shards (0 = auto)
    /**
     * Synthetic run length, or a cap on trace replay. Unset, a
     * synthetic run is 1M accesses and a trace replays whole.
     */
    std::uint64_t accesses = 0;
    bool accessesSet = false;
    std::uint64_t batch = 0;      ///< accessBatch span length

    bool operator==(const RunRequest &) const = default;
};

/**
 * If argv[@p i] is one of the ten run flags, store its value into
 * @p req, step @p i past it and return true; false for any other
 * argument. Throws UsageError on a missing or bad value.
 */
bool readRunFlag(int argc, char **argv, int &i, RunRequest &req);

/**
 * Store one member of a JSON run request into @p req. Throws
 * UsageError on a wrong type or value, and "unknown field 'KEY'" for a
 * key that is not one of the ten.
 */
void readRunField(RunRequest &req, const std::string &key,
                  const JsonValue &value);

/** A JSON number read exactly from its lexeme; throws UsageError. */
std::uint64_t readJsonU64(const std::string &key, const JsonValue &value);

/**
 * Write every field of @p req that differs from a default RunRequest
 * into the open JSON object of @p j (accesses when accessesSet), so
 * readRunField() over the result rebuilds @p req.
 */
void writeRunFields(JsonWriter &j, const RunRequest &req);

/**
 * `--config FILE`: a JSON object of run fields, applied over @p req
 * (later flags still override). Throws UsageError, prefixed with the
 * path, on an unreadable file, bad JSON or any key readRunField()
 * refuses — the wire's op/stats/deadline_ms included.
 */
void readRunRequestFile(const std::string &path, RunRequest &req);

/** What dispatchRun() produced. */
struct RunOutcome
{
    CacheConfig config;
    std::string tracePath; ///< "" for a synthetic workload
    /** The sharded replay's results; set exactly when shards > 0. */
    std::optional<TraceSweepResult> sharded;
    MissRateResult result; ///< the unsharded run's result
};

/**
 * Run @p req: a sharded (sampled) trace replay, a single (sampled)
 * trace replay, or a (sampled) synthetic workload run. @p observe is
 * the observer the caller's exports need; sampled runs never observe.
 * @p openTrace, when set, resolves req.trace to an open handle (the
 * server's registry); otherwise req.trace is opened as a path. It is
 * called after the spec and the sample plan are parsed, so their errors
 * come first. Throws CacheSpecError for a bad spec and UsageError for a
 * bad combination or workload; trace and sample-plan errors are
 * bsim_fatal.
 */
RunOutcome dispatchRun(
    const RunRequest &req, const ObserverConfig &observe,
    const std::function<TraceHandlePtr(const std::string &)> &openTrace =
        {});

/** The `--json` body: toJson(result), or the per-shard JSON array. */
std::string compactBody(const RunOutcome &outcome);

/** The bsim-stats-v1 body of `--stats-json`. */
std::string statsBody(const RunOutcome &outcome);

} // namespace bsim

#endif // BSIM_SIM_RUN_REQUEST_HH
