/**
 * @file
 * Simulation-level configuration: the named L1 configuration sets the
 * figure harnesses sweep over, the shared hierarchy defaults, and the
 * `--jobs` plumbing.
 *
 * The declarative cache description itself (CacheKind, CacheConfig, the
 * spec grammar and registry) lives in cache/cache_spec.hh; this header
 * re-exports it so existing `#include "sim/config.hh"` consumers keep
 * compiling unchanged. CacheConfig::build()/bcacheParams() are *defined*
 * here in sim/config.cc — the translation unit that links every variant
 * library — keeping the cache/ layer free of bcache/ and alt/
 * dependencies.
 */

#ifndef BSIM_SIM_CONFIG_HH
#define BSIM_SIM_CONFIG_HH

#include <optional>
#include <string>
#include <vector>

#include "bcache/bcache_params.hh"
#include "cache/cache_spec.hh"
#include "cache/hierarchy.hh"
#include "common/logging.hh"

namespace bsim {

/**
 * The shared outer-hierarchy defaults of the paper's Table 4 — a 256 kB
 * 4-way L2 with 128 B lines behind a 100-cycle main memory. Every
 * harness and runner that composes "L1 under the standard L2" derives
 * from this one constant (HierarchyParams' own member initializers are
 * the single source of the numbers).
 */
inline constexpr HierarchyParams kTable4Hierarchy{};

/**
 * The nine configurations of Figures 4/5: 2/4/8/32-way, victim16, and the
 * B-Cache at MF in {2,4,8,16} with BAS = 8 (all LRU).
 */
std::vector<CacheConfig> figure4Configs(std::uint64_t size_bytes);

/** The twelve configurations of Figure 12 (B-Cache MF x BAS grid). */
std::vector<CacheConfig> figure12Configs(std::uint64_t size_bytes);

/**
 * Worker-thread count for the sweep engine: the BSIM_JOBS environment
 * variable if set and valid, else the host's hardware concurrency,
 * else 1.
 */
unsigned defaultJobs();

/**
 * A `jobs`/`shards` count from the bsim front ends: @p n if it fits in
 * `unsigned` (0 = "default" included), nullopt above UINT_MAX, where a
 * plain cast would wrap (4294967296 -> 0).
 */
std::optional<unsigned> checkedCount(std::uint64_t n);

/**
 * The one number parser of the bsim front ends: @p text as strtoull
 * (base 0) reads it — decimal, 0x hex, leading-0 octal — when all of it
 * is the number. nullopt for non-numbers, trailing junk, a `-` sign
 * (strtoull negates into a huge value) and values past 2^64-1. Flag
 * values and JSON number lexemes both go through it, so a wire
 * `"seed":12345678901234567` is read exactly, never through a double.
 */
std::optional<std::uint64_t> parseU64(const std::string &text);

/** checkedCount() of parseU64(@p text). */
std::optional<unsigned> parseCount(const std::string &text);

/**
 * A bad flag value, request field or flag combination. Command lines
 * print it above their usage text and exit 2; the server answers it as
 * a typed `bad-request` (it is a FatalError, which the server already
 * maps there).
 */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * parseU64() / parseCount() of a flag's value. Throws UsageError
 * "bad FLAG value 'V': expected 0 to MAX" — the one error text of every
 * numeric flag of bsim, bsim --connect and bsim --serve.
 */
std::uint64_t u64Flag(const std::string &flag, const std::string &value);
unsigned countFlag(const std::string &flag, const std::string &value);

/**
 * Consume a `--jobs N` (or `--jobs=N`) flag from argv, compacting the
 * remaining arguments so positional parsing is undisturbed. Returns 0
 * when the flag is absent (callers then fall back to defaultJobs());
 * fatal on a malformed value.
 */
unsigned consumeJobsFlag(int &argc, char **argv);

} // namespace bsim

#endif // BSIM_SIM_CONFIG_HH
