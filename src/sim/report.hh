/**
 * @file
 * Structured (JSON) reporting of experiment results, for machine
 * consumption of the same data the ASCII tables show.
 */

#ifndef BSIM_SIM_REPORT_HH
#define BSIM_SIM_REPORT_HH

#include <string>

#include "common/json.hh"
#include "sim/runner.hh"
#include "sim/trace_replay.hh"

namespace bsim {

/** Append a CacheStats object under the writer's current key. */
void writeJson(JsonWriter &j, const CacheStats &s);

/** Append a PdStats object. */
void writeJson(JsonWriter &j, const PdStats &s);

/** Append a BalanceReport. */
void writeJson(JsonWriter &j, const BalanceReport &b);

/**
 * Append a SampledStats evidence block: the plan (unitLen/period/
 * warmup), population, unit count, sampled fraction, and the estimate
 * with stderr and 95% CI. Replaces "balance" in sampled run bodies
 * (per-unit caches have no aggregate set usage to classify).
 */
void writeJson(JsonWriter &j, const SampledStats &s);

/** Serialize one standalone miss-rate run. */
std::string toJson(const MissRateResult &r);

/** Serialize one timed (OOO core) run. */
std::string toJson(const TimedResult &r);

/**
 * Serialize one run as a "bsim-stats-v1" document — the shape behind
 * `bsim --stats-json`, checked by bench/bench_json.cc through
 * bench/json_lint and scripts/check_json.sh (change them together).
 * @p driver is "workload" or "trace" depending on what produced @p r.
 */
std::string toStatsJson(const MissRateResult &r,
                        const std::string &driver);

/**
 * The "bsim-stats-v1" document for a sharded replay: driver "sharded",
 * merged totals at top level (balance recomputed from the merged
 * observer histogram when the replay was observed) plus a "shards"
 * array of per-shard run objects in shard order.
 */
std::string toStatsJson(const TraceSweepResult &r,
                        const std::string &workload,
                        const std::string &config);

} // namespace bsim

#endif // BSIM_SIM_REPORT_HH
