/**
 * Unit tests for the JSON writer, the strict parser (round-trips, error
 * reporting) and the structured result reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/json.hh"
#include "sim/report.hh"

namespace bsim {
namespace {

TEST(Json, EmptyObject)
{
    JsonWriter j;
    j.beginObject().endObject();
    EXPECT_EQ(j.str(), "{}");
    EXPECT_TRUE(j.complete());
}

TEST(Json, ScalarKinds)
{
    JsonWriter j;
    j.beginObject();
    j.kv("s", "text");
    j.kv("d", 1.5);
    j.kv("u", std::uint64_t{42});
    j.kv("i", -7);
    j.kv("b", true);
    j.key("n").null();
    j.endObject();
    EXPECT_EQ(j.str(), "{\"s\":\"text\",\"d\":1.5,\"u\":42,\"i\":-7,"
                       "\"b\":true,\"n\":null}");
}

TEST(Json, NestedContainers)
{
    JsonWriter j;
    j.beginObject();
    j.key("arr").beginArray();
    j.value(1).value(2);
    j.beginObject().kv("x", 3).endObject();
    j.endArray();
    j.endObject();
    EXPECT_EQ(j.str(), "{\"arr\":[1,2,{\"x\":3}]}");
}

TEST(Json, Escaping)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01")), "\\u0001");
}

TEST(Json, NonFiniteBecomesNull)
{
    JsonWriter j;
    j.beginArray();
    j.value(std::numeric_limits<double>::infinity());
    j.value(std::nan(""));
    j.endArray();
    EXPECT_EQ(j.str(), "[null,null]");
}

TEST(JsonDeathTest, MisuseCaught)
{
    JsonWriter a;
    a.beginObject();
    EXPECT_DEATH(a.endArray(), "endArray outside");
    JsonWriter b;
    b.beginArray();
    EXPECT_DEATH(b.key("k"), "key outside an object");
    JsonWriter c;
    c.beginObject();
    EXPECT_DEATH((void)c.str(), "unclosed");
}

TEST(JsonParser, ScalarsAndContainers)
{
    std::string err;
    auto v = parseJson(R"({"a": [1, -2.5, 1e3], "b": {"c": null},
                           "t": true, "f": false, "s": "x"})",
                       &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());
    const JsonValue *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(a->array[1].number, -2.5);
    EXPECT_DOUBLE_EQ(a->array[2].number, 1000.0);
    EXPECT_TRUE(v->find("b")->find("c")->isNull());
    EXPECT_TRUE(v->find("t")->boolean);
    EXPECT_FALSE(v->find("f")->boolean);
    EXPECT_EQ(v->find("s")->string, "x");
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParser, StringEscapes)
{
    auto v = parseJson(R"(["a\"b\\c\/d\n\t", "\u0041\u00e9\u20ac",
                           "\ud83d\ude00"])");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->array[0].string, "a\"b\\c/d\n\t");
    EXPECT_EQ(v->array[1].string, "A\xc3\xa9\xe2\x82\xac");
    EXPECT_EQ(v->array[2].string, "\xf0\x9f\x98\x80"); // surrogate pair
}

TEST(JsonParser, RejectsMalformed)
{
    const char *bad[] = {
        "",        "{",       "[1,]",      "{\"a\":}",   "[01]",
        "[1.]",    "[.5]",    "[1e]",      "nulll",      "[] []",
        "\"\\q\"", "[\"\\ud83d\"]", "{\"a\" 1}", "{1: 2}",
    };
    for (const char *t : bad) {
        std::string err;
        EXPECT_FALSE(parseJson(t, &err).has_value()) << t;
        EXPECT_FALSE(err.empty()) << t;
        EXPECT_NE(err.find("offset"), std::string::npos) << err;
    }
}

TEST(JsonParser, RoundTripPreservesIntegerLexemes)
{
    // 2^53+1 is not representable as a double; the dump must re-emit
    // the source lexeme, not a double-rounded value.
    const std::string doc =
        R"([{"big":9007199254740993,"neg":-42,"f":1.5}])";
    auto v = parseJson(doc);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->dump(), doc);
}

TEST(JsonParser, DepthCap)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    std::string err;
    EXPECT_FALSE(parseJson(deep, &err).has_value());
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(Report, MissRateResultRoundTripsFields)
{
    const MissRateResult r = runMissRate(
        "equake", StreamSide::Data,
        CacheConfig::bcache(16 * 1024, 8, 8), 20000);
    const std::string s = toJson(r);
    EXPECT_NE(s.find("\"workload\":\"equake\""), std::string::npos);
    EXPECT_NE(s.find("\"config\":\"MF8-BAS8\""), std::string::npos);
    EXPECT_NE(s.find("\"pd\":{"), std::string::npos);
    EXPECT_NE(s.find("\"balance\":{"), std::string::npos);
    EXPECT_NE(s.find("\"accesses\":20000"), std::string::npos);
}

TEST(Report, TimedResultSerializes)
{
    const TimedResult r =
        runTimed("vpr", CacheConfig::directMapped(16 * 1024), 30000);
    const std::string s = toJson(r);
    EXPECT_NE(s.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(s.find("\"l1i\":{"), std::string::npos);
    EXPECT_NE(s.find("\"l2\":{"), std::string::npos);
    EXPECT_NE(s.find("\"uops\":30000"), std::string::npos);
}

TEST(Report, NonBCacheHasNoPdSection)
{
    const MissRateResult r = runMissRate(
        "vpr", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        10000);
    EXPECT_EQ(toJson(r).find("\"pd\":"), std::string::npos);
}

} // namespace
} // namespace bsim
