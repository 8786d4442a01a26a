/**
 * @file
 * The bsim-stats-v1 document validator: the schema check behind
 * bench/json_lint.cc (scripts/check_json.sh and the `check_stats_json`
 * ctest).
 * The schema is produced by sim/report.cc (toStatsJson) and the
 * observe/ export layer — change them and this validator together.
 *
 * Every object of the schema is checked for exactly its keys, each a
 * number (or a string where the schema says so), plus five cross-field
 * rules: hits + misses == accesses, each perSet array holds `lines`
 * elements, a sample's estimate lies inside its own 95% CI, positive
 * sample unitLen and intervals length, and a run body carries a
 * "sample" or a "balance" but not both (a sharded top level may carry
 * both; only sharded documents carry "shards").
 */

#ifndef BSIM_BENCH_BENCH_JSON_HH
#define BSIM_BENCH_BENCH_JSON_HH

#include <string>

namespace bsim {
namespace bench {

/**
 * True when @p text is a well-formed bsim-stats-v1 document; otherwise
 * @p error (when non-null) names the first offending key.
 */
bool validateStatsJson(const std::string &text, std::string *error);

} // namespace bench
} // namespace bsim

#endif // BSIM_BENCH_BENCH_JSON_HH
