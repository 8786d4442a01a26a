#include "sim/config.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>
#include <thread>

#include "alt/column_assoc_cache.hh"
#include "alt/hac_cache.hh"
#include "alt/partial_match_cache.hh"
#include "alt/skewed_assoc_cache.hh"
#include "alt/xor_index_cache.hh"
#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/victim_cache.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace bsim {

// CacheConfig itself (and its factory helpers) lives in
// cache/cache_spec.cc; build()/bcacheParams() are defined here because
// instantiation needs every concrete variant, and this is the unit that
// links the bcache and alt libraries. The direct constructor references
// below also keep those objects linked into every binary, so the spec
// registry is never silently missing a variant to dead-stripping.

BCacheParams
CacheConfig::bcacheParams() const
{
    bsim_assert(kind == CacheKind::BCache);
    BCacheParams p;
    p.sizeBytes = sizeBytes;
    p.lineBytes = lineBytes;
    p.mf = mf;
    p.bas = bas;
    p.repl = repl;
    p.writePolicy = writePolicy;
    return p;
}

std::unique_ptr<BaseCache>
CacheConfig::build(const std::string &name, Cycles hit_latency,
                   MemLevel *next) const
{
    switch (kind) {
      case CacheKind::SetAssoc:
        return std::make_unique<SetAssocCache>(
            name, CacheGeometry(sizeBytes, lineBytes, ways), hit_latency,
            next, repl, /*repl_seed=*/1, writePolicy);
      case CacheKind::Victim:
        return std::make_unique<VictimCache>(
            name, CacheGeometry(sizeBytes, lineBytes, 1), hit_latency,
            next, victimEntries);
      case CacheKind::BCache:
        return std::make_unique<BCache>(name, bcacheParams(),
                                        hit_latency, next);
      case CacheKind::ColumnAssoc:
        return std::make_unique<ColumnAssocCache>(
            name, CacheGeometry(sizeBytes, lineBytes, 1), hit_latency,
            next);
      case CacheKind::Skewed:
        return std::make_unique<SkewedAssocCache>(
            name, CacheGeometry(sizeBytes, lineBytes, 2), hit_latency,
            next);
      case CacheKind::Hac:
        return std::make_unique<HacCache>(name, sizeBytes, lineBytes,
                                          hacSubarrayBytes, hit_latency,
                                          next, repl);
      case CacheKind::XorDm:
        return std::make_unique<XorIndexCache>(
            name, CacheGeometry(sizeBytes, lineBytes, 1), hit_latency,
            next);
      case CacheKind::PartialMatch:
        return std::make_unique<PartialMatchCache>(
            name, CacheGeometry(sizeBytes, lineBytes, ways), hit_latency,
            next, partialBits, repl);
    }
    bsim_panic("bad cache kind");
}

std::vector<CacheConfig>
figure4Configs(std::uint64_t size_bytes)
{
    std::vector<CacheConfig> v;
    for (std::uint32_t w : {2u, 4u, 8u, 32u})
        v.push_back(CacheConfig::setAssoc(size_bytes, w));
    v.push_back(CacheConfig::victim(size_bytes, 16));
    for (std::uint32_t mf : {2u, 4u, 8u, 16u})
        v.push_back(CacheConfig::bcache(size_bytes, mf, 8));
    return v;
}

namespace {

/**
 * A worker count: all decimal digits, at least 1, and small enough for
 * `unsigned`. strtoul alone would accept "-1" (negated into a huge
 * count) and wrap values past UINT_MAX; nullopt for anything else.
 */
std::optional<unsigned>
parseJobCount(const std::string &text)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return std::nullopt;
    errno = 0;
    const unsigned long long n = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || n < 1)
        return std::nullopt;
    return checkedCount(n);
}

} // namespace

std::optional<unsigned>
checkedCount(std::uint64_t n)
{
    if (n > std::numeric_limits<unsigned>::max())
        return std::nullopt;
    return static_cast<unsigned>(n);
}

std::optional<std::uint64_t>
parseU64(const std::string &text)
{
    if (text.find('-') != std::string::npos)
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end || errno == ERANGE)
        return std::nullopt;
    return n;
}

std::optional<unsigned>
parseCount(const std::string &text)
{
    const std::optional<std::uint64_t> n = parseU64(text);
    return n ? checkedCount(*n) : std::nullopt;
}

namespace {

[[noreturn]] void
badFlag(const std::string &flag, const std::string &value,
        std::uint64_t max)
{
    throw UsageError("bad " + flag + " value '" + value +
                     "': expected 0 to " + std::to_string(max));
}

} // namespace

std::uint64_t
u64Flag(const std::string &flag, const std::string &value)
{
    if (const std::optional<std::uint64_t> n = parseU64(value))
        return *n;
    badFlag(flag, value, std::numeric_limits<std::uint64_t>::max());
}

unsigned
countFlag(const std::string &flag, const std::string &value)
{
    if (const std::optional<unsigned> n = parseCount(value))
        return *n;
    badFlag(flag, value, std::numeric_limits<unsigned>::max());
}

unsigned
defaultJobs()
{
    if (const char *v = std::getenv("BSIM_JOBS"); v && *v) {
        if (const auto n = parseJobCount(v))
            return *n;
        bsim_warn("ignoring bad BSIM_JOBS='", v, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
consumeJobsFlag(int &argc, char **argv)
{
    unsigned jobs = 0;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
        const std::string arg = argv[r];
        std::string value;
        if (arg == "--jobs") {
            if (r + 1 >= argc)
                bsim_fatal("--jobs requires a value");
            value = argv[++r];
        } else if (arg.rfind("--jobs=", 0) == 0) {
            value = arg.substr(7);
        } else {
            argv[w++] = argv[r];
            continue;
        }
        const auto n = parseJobCount(value);
        if (!n)
            bsim_fatal("bad --jobs value '", value,
                       "': expected a whole number from 1 to ",
                       std::numeric_limits<unsigned>::max());
        jobs = *n;
    }
    argc = w;
    argv[argc] = nullptr;
    return jobs;
}

std::vector<CacheConfig>
figure12Configs(std::uint64_t size_bytes)
{
    std::vector<CacheConfig> v;
    for (std::uint32_t w : {2u, 4u, 8u})
        v.push_back(CacheConfig::setAssoc(size_bytes, w));
    v.push_back(CacheConfig::victim(size_bytes, 16));
    for (std::uint32_t bas : {4u, 8u})
        for (std::uint32_t mf : {2u, 4u, 8u, 16u})
            v.push_back(CacheConfig::bcache(size_bytes, mf, bas));
    return v;
}

} // namespace bsim
