/** Unit tests for the replacement policies. */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cache/cache_spec.hh"
#include "cache/replacement.hh"
#include "common/random.hh"

namespace bsim {
namespace {

TEST(ReplNames, RoundTrip)
{
    for (auto k : {ReplPolicyKind::LRU, ReplPolicyKind::Random,
                   ReplPolicyKind::FIFO, ReplPolicyKind::TreePLRU,
                   ReplPolicyKind::NMRU})
        EXPECT_EQ(parseCacheSpec(std::string("sa:16kB,4w,repl=") +
                                 replPolicyName(k))
                      .repl,
                  k);
}

TEST(Lru, EvictsLeastRecentlyTouched)
{
    LruPolicy p;
    p.reset(1, 4);
    for (std::size_t w = 0; w < 4; ++w)
        p.fill(0, w);
    p.touch(0, 0); // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(p.victim(0), 1u);
    p.touch(0, 1);
    EXPECT_EQ(p.victim(0), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy p;
    p.reset(2, 2);
    p.fill(0, 0);
    p.fill(0, 1);
    p.fill(1, 1);
    p.fill(1, 0);
    EXPECT_EQ(p.victim(0), 0u);
    EXPECT_EQ(p.victim(1), 1u);
}

TEST(Lru, HitPromotionChangesVictim)
{
    LruPolicy p;
    p.reset(1, 8);
    for (std::size_t w = 0; w < 8; ++w)
        p.fill(0, w);
    EXPECT_EQ(p.victim(0), 0u);
    p.touch(0, 0);
    EXPECT_EQ(p.victim(0), 1u);
}

TEST(RandomRepl, DeterministicFromSeed)
{
    RandomPolicy a(5), b(5);
    a.reset(1, 8);
    b.reset(1, 8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.victim(0), b.victim(0));
}

TEST(RandomRepl, CoversAllWays)
{
    RandomPolicy p(1);
    p.reset(1, 4);
    std::set<std::size_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(p.victim(0));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Fifo, EvictsOldestFill)
{
    FifoPolicy p;
    p.reset(1, 3);
    p.fill(0, 2);
    p.fill(0, 0);
    p.fill(0, 1);
    // Touching must NOT change FIFO order.
    p.touch(0, 2);
    EXPECT_EQ(p.victim(0), 2u);
}

TEST(TreePlru, VictimAvoidsMostRecent)
{
    TreePlruPolicy p;
    p.reset(1, 4);
    for (std::size_t w = 0; w < 4; ++w)
        p.fill(0, w);
    p.touch(0, 3);
    EXPECT_NE(p.victim(0), 3u);
    p.touch(0, 0);
    EXPECT_NE(p.victim(0), 0u);
}

TEST(TreePlru, SingleWay)
{
    TreePlruPolicy p;
    p.reset(1, 1);
    p.fill(0, 0);
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(TreePlru, TouchedSequenceNeverEvictsLastTouch)
{
    TreePlruPolicy p;
    p.reset(1, 8);
    for (std::size_t w = 0; w < 8; ++w)
        p.fill(0, w);
    for (std::size_t w = 0; w < 8; ++w) {
        p.touch(0, w);
        EXPECT_NE(p.victim(0), w);
    }
}

TEST(Nmru, NeverEvictsMru)
{
    NmruPolicy p(3);
    p.reset(1, 4);
    p.touch(0, 2);
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(p.victim(0), 2u);
}

TEST(Factory, MakesRequestedKind)
{
    for (auto k : {ReplPolicyKind::LRU, ReplPolicyKind::Random,
                   ReplPolicyKind::FIFO, ReplPolicyKind::TreePLRU,
                   ReplPolicyKind::NMRU}) {
        auto p = makeReplacementPolicy(k);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->kind(), k);
    }
}

class PolicyVictimRange
    : public ::testing::TestWithParam<ReplPolicyKind>
{
};

TEST_P(PolicyVictimRange, VictimAlwaysInRange)
{
    auto p = makeReplacementPolicy(GetParam(), 11);
    const std::size_t sets = 4, ways = 8;
    p->reset(sets, ways);
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t set = rng.nextBounded(sets);
        const std::size_t way = rng.nextBounded(ways);
        if (rng.nextBool(0.5))
            p->touch(set, way);
        else
            p->fill(set, way);
        EXPECT_LT(p->victim(set), ways);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyVictimRange,
    ::testing::Values(ReplPolicyKind::LRU, ReplPolicyKind::Random,
                      ReplPolicyKind::FIFO, ReplPolicyKind::TreePLRU,
                      ReplPolicyKind::NMRU));

} // namespace
} // namespace bsim
