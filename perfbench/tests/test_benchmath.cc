/**
 * @file
 * Tests of the benchmark's own arithmetic: percentiles, the failure
 * tally, interval unions, span self and wall time per layer, and
 * uncovered time.
 */

#include <gtest/gtest.h>

#include "benchmath.hh"
#include "common/json.hh"

using namespace perfbench;

namespace {

Span
span(std::uint32_t id, std::uint32_t parent, const char *name,
     std::int64_t start, std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    return s;
}

} // namespace

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    const std::vector<double> v = {40, 10, 30, 20}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(10.0, percentile(v, 0.0));
    EXPECT_DOUBLE_EQ(40.0, percentile(v, 1.0));
    EXPECT_DOUBLE_EQ(25.0, percentile(v, 0.5));
    EXPECT_DOUBLE_EQ(37.0, percentile(v, 0.9)); // rank 2.7
    EXPECT_DOUBLE_EQ(25.0, median(v));
}

TEST(Percentile, EdgeCases)
{
    EXPECT_DOUBLE_EQ(0.0, percentile({}, 0.5));
    EXPECT_DOUBLE_EQ(7.0, percentile({7.0}, 0.9));
    EXPECT_DOUBLE_EQ(3.0, median({5, 1, 3}));
    // Out-of-range quantiles clamp to the extremes.
    EXPECT_DOUBLE_EQ(1.0, percentile({1, 2}, -1.0));
    EXPECT_DOUBLE_EQ(2.0, percentile({1, 2}, 2.0));
}

TEST(Tally, CountsFailuresAgainstAttempts)
{
    Tally t;
    EXPECT_DOUBLE_EQ(0.0, t.errorRate()); // nothing attempted
    t.record(true);
    t.record(false);
    t.record(true);
    t.record(false);
    EXPECT_EQ(4u, t.attempted);
    EXPECT_EQ(2u, t.failed);
    EXPECT_DOUBLE_EQ(0.5, t.errorRate());
}

TEST(Intervals, UnionCountsOverlapOnce)
{
    EXPECT_EQ(0, unionLength({}));
    EXPECT_EQ(10, unionLength({{0, 10}, {2, 5}}));          // nested
    EXPECT_EQ(15, unionLength({{5, 15}, {0, 10}}));         // overlapping
    EXPECT_EQ(10, unionLength({{0, 5}, {5, 10}}));          // touching
    EXPECT_EQ(7, unionLength({{0, 3}, {10, 14}, {4, 4}}));  // gap, empty
    EXPECT_EQ(0, unionLength({{9, 3}}));                    // inverted
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    const std::vector<Span> spans = {
        span(1, 0, "sim.run", 0, 100),
        span(2, 1, "workload.next", 10, 40),
        span(3, 1, "cache.access", 30, 60),  // overlaps its sibling
        span(4, 3, "observe.hook", 35, 45),  // grandchild
        span(5, 1, "cache.access", 90, 120), // runs past its parent
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    ASSERT_EQ(5u, self.size());
    // Children cover [10,60) and [90,100): 60 of the parent's 100 ns.
    EXPECT_EQ(40, self[0]);
    EXPECT_EQ(30, self[1]);
    EXPECT_EQ(20, self[2]);
    EXPECT_EQ(10, self[3]);
    EXPECT_EQ(30, self[4]);

    const auto layers = layerSelfTimes(spans);
    EXPECT_EQ(40, layers.at("sim"));
    EXPECT_EQ(30, layers.at("workload"));
    EXPECT_EQ(50, layers.at("cache"));
    EXPECT_EQ(10, layers.at("observe"));
    std::int64_t sum = 0;
    for (const auto &[layer, ns] : layers)
        sum += ns;
    EXPECT_EQ(130, sum); // the union of all spans: [0,120) plus overlap
}

TEST(LayerWallTime, CountsConcurrentSpansOnceAndKeepsNestedCalls)
{
    const std::vector<Span> spans = {
        span(1, 0, "serve.call", 0, 30),  // client A
        span(2, 0, "serve.call", 20, 50), // client B, overlapping A
        span(3, 0, "bench.pass", 60, 100),
        span(4, 3, "sim.run", 70, 90), // nested in bench.pass
    };
    const auto wall = layerWallTimes(spans);
    EXPECT_EQ(50, wall.at("serve")); // [0,50), not 30 + 30
    EXPECT_EQ(40, wall.at("bench")); // its nested sim call included
    EXPECT_EQ(20, wall.at("sim"));
    // Self time is thread time: both clients' spans count in full.
    EXPECT_EQ(60, layerSelfTimes(spans).at("serve"));
    EXPECT_EQ(20, layerSelfTimes(spans).at("bench"));
}

TEST(Uncovered, ClipsToTheWindowAndMergesThreads)
{
    const std::vector<Span> spans = {
        span(1, 0, "serve.call", 0, 30),  // client A
        span(2, 0, "serve.call", 20, 50), // client B, overlapping A
        span(3, 0, "serve.call", 70, 90),
        span(4, 0, "bench.check", 150, 200), // outside the window
    };
    // Window [10,110): covered [10,50) and [70,90) = 60 of 100 ns.
    EXPECT_DOUBLE_EQ(0.4, uncoveredFraction(spans, 10, 110));
    EXPECT_DOUBLE_EQ(1.0, uncoveredFraction({}, 0, 10));
    EXPECT_DOUBLE_EQ(0.0, uncoveredFraction(spans, 5, 5));
}

TEST(SpanRecorder, RecordsNestedSpansAndNothingWhenDisabled)
{
    SpanRecorder off(false);
    {
        ScopedSpan s(off, "sim.run");
        EXPECT_EQ(0u, s.id());
    }
    EXPECT_TRUE(off.spans().empty());

    SpanRecorder on(true);
    {
        ScopedSpan outer(on, "sim.run");
        ScopedSpan inner(on, "cache.access", outer.id(), 7);
        EXPECT_EQ(outer.id(), 1u);
        EXPECT_EQ(inner.id(), 2u);
    }
    const std::vector<Span> spans = on.spans();
    ASSERT_EQ(2u, spans.size());
    EXPECT_EQ(1u, spans[1].parent);
    EXPECT_EQ(7u, spans[1].group);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_LE(spans[1].endNs, spans[0].endNs);

    const auto doc = bsim::parseJson(spansToJson(spans));
    ASSERT_TRUE(doc && doc->isArray());
    ASSERT_EQ(2u, doc->array.size());
    EXPECT_EQ("cache.access", doc->array[1].find("name")->string);
}
