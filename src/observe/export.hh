/**
 * @file
 * Serialization of ObserverReport for the bsim driver's `--stats-json`,
 * `--heatmap` and `--interval` outputs. The JSON shape is part of the
 * "bsim-stats-v1" schema checked by bench/bench_json.cc (run by
 * bench/json_lint) — change them together.
 */

#ifndef BSIM_OBSERVE_EXPORT_HH
#define BSIM_OBSERVE_EXPORT_HH

#include <string>

#include "common/json.hh"
#include "observe/observer.hh"

namespace bsim {

/**
 * Append the report as the value under the writer's current key:
 * perSet (columnar arrays + line count), balanceMetrics, writebacks,
 * and — only when collected — intervals and pd decoder telemetry.
 */
void writeJson(JsonWriter &j, const ObserverReport &r);

/**
 * Per-set histogram as CSV (one row per physical line):
 * set,accesses,hits,misses,installs,evictions
 */
std::string heatmapCsv(const ObserverReport &r);

/**
 * Interval time-series as CSV (one row per window):
 * interval,accesses,misses,writebacks,pd_reprograms
 */
std::string intervalCsv(const ObserverReport &r);

} // namespace bsim

#endif // BSIM_OBSERVE_EXPORT_HH
