/**
 * @file
 * The cache-spec grammar (cache/cache_spec.hh): golden round-trips for
 * every registered variant, typed errors with actionable messages for
 * malformed specs, hierarchy composition, and a bounded fuzz case that
 * throws random printable strings at the parser (asan/ubsan builds
 * make that a UB hunt, not just a crash hunt).
 */

#include <gtest/gtest.h>

#include "cache/cache_spec.hh"
#include "common/random.hh"
#include "sim/config.hh"

namespace bsim {
namespace {

/** parse -> print -> parse fixed point plus config equality. */
void
expectRoundTrip(const std::string &spec)
{
    const CacheConfig c = parseCacheSpec(spec);
    const std::string printed = printCacheSpec(c);
    const CacheConfig again = parseCacheSpec(printed);
    EXPECT_EQ(c, again) << spec << " -> " << printed;
    EXPECT_EQ(printed, printCacheSpec(again)) << spec;
}

TEST(CacheSpec, GoldenRoundTripsEveryVariant)
{
    // One canonical spec per registered kind; printCacheSpec must be a
    // fixed point of parse for each (pinned strings, so a grammar
    // change that silently re-spells a variant fails here).
    const struct
    {
        const char *spec;
        const char *label;
    } golden[] = {
        {"dm:16kB", "16kB-dm"},
        {"sa:16kB,8w", "8way"},
        {"victim:16kB,16e", "victim16"},
        {"bcache:16kB,mf=8,bas=8", "MF8-BAS8"},
        {"column:16kB", "column"},
        {"skew:16kB", "skewed2"},
        {"hac:16kB", "hac32"},
        {"xor:16kB", "xor-dm"},
        {"pad:16kB,2w,bits=5", "pad5-2way"},
    };
    for (const auto &g : golden) {
        const CacheConfig c = parseCacheSpec(g.spec);
        EXPECT_EQ(c.label, g.label) << g.spec;
        EXPECT_EQ(printCacheSpec(c), g.spec) << "not canonical";
        expectRoundTrip(g.spec);
    }
}

TEST(CacheSpec, RegistryListsAllNineVariants)
{
    const auto &entries = CacheFactory::instance().entries();
    EXPECT_EQ(entries.size(), 9u);
    const std::string listing = listCacheSpecs();
    for (const auto &e : entries) {
        EXPECT_NE(listing.find(e.name + ":"), std::string::npos)
            << e.name;
        EXPECT_NE(listing.find(e.synopsis), std::string::npos) << e.name;
        // Aliases resolve to the same entry, case-insensitively.
        for (const auto &a : e.aliases)
            EXPECT_EQ(CacheFactory::instance().find(a), &e) << a;
        EXPECT_EQ(CacheFactory::instance().find(e.name), &e);
    }
    EXPECT_NE(listing.find("+victim:"), std::string::npos)
        << "composition sugar undocumented";
}

TEST(CacheSpec, NonDefaultParametersRoundTrip)
{
    for (const char *spec : {
             "dm:8kB,line=64",
             "sa:32kB,4w,repl=random",
             "sa:16kB,8w,wp=wt",
             "sa:16kB,8w,repl=fifo,wp=wt,line=16",
             "victim:8kB,4e,line=64",
             "bcache:16kB,mf=64,bas=32,repl=nmru",
             "bcache:64kB,mf=2,bas=2,wp=wt,line=128",
             "column:8kB,line=16",
             "skew:32kB,line=64",
             "hac:16kB,sub=2kB,repl=plru",
             "xor:8kB,line=64",
             "pad:32kB,4w,bits=7,repl=random",
         })
        expectRoundTrip(spec);
}

TEST(CacheSpec, AliasesAndCaseFoldParseEqual)
{
    EXPECT_EQ(parseCacheSpec("direct:16kB"), parseCacheSpec("dm:16kB"));
    EXPECT_EQ(parseCacheSpec("setassoc:16kB,8w"),
              parseCacheSpec("sa:16kB,8w"));
    EXPECT_EQ(parseCacheSpec("bc:16kB"), parseCacheSpec("bcache:16kB"));
    EXPECT_EQ(parseCacheSpec("BCACHE:16k,mf=8,bas=8"),
              parseCacheSpec("bcache:16384"));
    EXPECT_EQ(parseCacheSpec("xordm:16kB"), parseCacheSpec("xor:16kB"));
    EXPECT_EQ(parseCacheSpec("pmatch:16kB"), parseCacheSpec("pad:16kB"));
}

TEST(CacheSpec, VictimCompositionSugar)
{
    // dm:<size>+victim:<N> is the same config as victim:<size>,<N>e.
    EXPECT_EQ(parseCacheSpec("dm:16kB+victim:16"),
              parseCacheSpec("victim:16kB,16e"));
    EXPECT_EQ(parseCacheSpec("dm:8kB,line=64+victim:4"),
              parseCacheSpec("victim:8kB,4e,line=64"));
    // The composition requires a direct-mapped base.
    EXPECT_THROW(parseCacheSpec("sa:16kB,8w+victim:16"), CacheSpecError);
    EXPECT_THROW(parseCacheSpec("bcache:16kB+victim:16"),
                 CacheSpecError);
}

TEST(CacheSpec, WaysOneCanonicalizesToDm)
{
    // sa with one way is the direct-mapped baseline; it prints as dm:.
    const CacheConfig c = parseCacheSpec("sa:16kB,1w");
    EXPECT_EQ(c.label, "16kB-dm");
    EXPECT_EQ(printCacheSpec(c), "dm:16kB");
}

/** The error message must name the offender and what was accepted. */
void
expectError(const std::string &spec, const std::string &needle)
{
    try {
        parseCacheSpec(spec);
        FAIL() << spec << " parsed";
    } catch (const CacheSpecError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << spec << " -> " << e.what();
    }
}

TEST(CacheSpec, MalformedSpecsThrowActionableErrors)
{
    expectError("", "expected <kind>");
    expectError("bcache", "expected <kind>");
    expectError("nosuch:16kB", "unknown cache kind 'nosuch'");
    expectError("nosuch:16kB", "bcache"); // lists what is registered
    expectError("dm:", "size");
    expectError("dm:banana", "size");
    expectError("dm:16kB,mf=8", "unknown parameter 'mf=8'");
    expectError("dm:16kB,mf=8", "line=");      // ...and what is accepted
    expectError("sa:16kB,8q", "parameter '8q'");
    expectError("sa:16kB,repl=bogus", "repl");
    expectError("sa:16kB,wp=sideways", "write policy");
    expectError("dm:16kB+victim:", "entries");
    expectError("dm:16kB+elephant:4", "+victim");
}

TEST(CacheSpec, HierarchySpecRoundTrips)
{
    // Bare L1 keeps the paper's Table 4 L2/memory.
    const HierarchySpec bare = parseHierarchySpec("dm:16kB");
    EXPECT_EQ(bare.params.l2SizeBytes, kTable4Hierarchy.l2SizeBytes);
    EXPECT_EQ(bare.params.memLatency, kTable4Hierarchy.memLatency);
    EXPECT_EQ(printHierarchySpec(bare), "dm:16kB");

    const HierarchySpec full = parseHierarchySpec(
        "bcache:16kB,mf=8,bas=8/l2:512kB,8w,64l,12c/mem:200c");
    EXPECT_EQ(full.params.l2SizeBytes, 512u * 1024);
    EXPECT_EQ(full.params.l2Ways, 8u);
    EXPECT_EQ(full.params.l2LineBytes, 64u);
    EXPECT_EQ(full.params.l2HitLatency, 12u);
    EXPECT_EQ(full.params.memLatency, 200u);
    EXPECT_EQ(parseHierarchySpec(printHierarchySpec(full)), full);

    EXPECT_THROW(parseHierarchySpec("dm:16kB/l3:1MB"), CacheSpecError);
}

TEST(CacheSpec, FuzzRandomPrintableSpecsNeverCrash)
{
    // Random printable strings, plus mutations of valid specs (the
    // interesting near-misses): the parser must either produce a config
    // whose printed form round-trips, or throw CacheSpecError with a
    // non-empty message. Anything else — crash, UB under asan, another
    // exception type — fails the run.
    Rng rng(0xb5eed);
    const char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789:,=+wekBM-_. ";
    const std::string seeds[] = {
        "dm:16kB",          "sa:16kB,8w",      "victim:16kB,16e",
        "bcache:16kB,mf=8", "column:16kB",     "skew:16kB",
        "hac:16kB,sub=2kB", "xor:16kB",        "pad:16kB,2w,bits=5",
        "dm:16kB+victim:16",
    };
    std::uint64_t parsed = 0, rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string s;
        if (i % 2 == 0) {
            const std::size_t n = rng.nextBounded(24);
            for (std::size_t j = 0; j < n; ++j)
                s += kAlphabet[rng.nextBounded(sizeof(kAlphabet) - 1)];
        } else {
            s = seeds[rng.nextBounded(std::size(seeds))];
            const std::size_t edits = 1 + rng.nextBounded(3);
            for (std::size_t j = 0; j < edits && !s.empty(); ++j) {
                const std::size_t at = rng.nextBounded(s.size());
                switch (rng.nextBounded(3)) {
                  case 0:
                    s[at] = kAlphabet[rng.nextBounded(
                        sizeof(kAlphabet) - 1)];
                    break;
                  case 1:
                    s.erase(at, 1);
                    break;
                  default:
                    s.insert(at, 1,
                             kAlphabet[rng.nextBounded(
                                 sizeof(kAlphabet) - 1)]);
                }
            }
        }
        try {
            const CacheConfig c = parseCacheSpec(s);
            EXPECT_EQ(parseCacheSpec(printCacheSpec(c)), c) << s;
            ++parsed;
        } catch (const CacheSpecError &e) {
            EXPECT_NE(e.what()[0], '\0') << s;
            ++rejected;
        }
    }
    // The mutation half must actually exercise both outcomes.
    EXPECT_GT(parsed, 100u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace bsim
