/** Unit tests for the named configuration layer. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "alt/column_assoc_cache.hh"
#include "alt/hac_cache.hh"
#include "alt/skewed_assoc_cache.hh"
#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/victim_cache.hh"
#include "common/logging.hh"
#include "mem/main_memory.hh"
#include "sim/bsim_driver.hh"
#include "sim/config.hh"
#include "workload/trace_format.hh"

namespace bsim {
namespace {

TEST(Config, BuildsMatchingTypes)
{
    EXPECT_NE(dynamic_cast<SetAssocCache *>(
                  CacheConfig::setAssoc(16 * 1024, 4).build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<VictimCache *>(
                  CacheConfig::victim(16 * 1024).build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<BCache *>(
                  CacheConfig::bcache(16 * 1024, 8, 8).build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<ColumnAssocCache *>(
                  CacheConfig::columnAssoc(16 * 1024).build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<SkewedAssocCache *>(
                  CacheConfig::skewed(16 * 1024).build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<HacCache *>(
                  CacheConfig::hac(16 * 1024).build("x").get()),
              nullptr);
}

TEST(Config, LabelsAreDescriptive)
{
    EXPECT_EQ(CacheConfig::setAssoc(16 * 1024, 8).label, "8way");
    EXPECT_EQ(CacheConfig::victim(16 * 1024, 16).label, "victim16");
    EXPECT_EQ(CacheConfig::bcache(16 * 1024, 8, 8).label, "MF8-BAS8");
    EXPECT_EQ(CacheConfig::directMapped(16 * 1024).label, "16kB-dm");
}

TEST(Config, BCacheParamsPropagate)
{
    const CacheConfig c =
        CacheConfig::bcache(32 * 1024, 16, 4, ReplPolicyKind::Random);
    const BCacheParams p = c.bcacheParams();
    EXPECT_EQ(p.sizeBytes, 32u * 1024);
    EXPECT_EQ(p.mf, 16u);
    EXPECT_EQ(p.bas, 4u);
    EXPECT_EQ(p.repl, ReplPolicyKind::Random);
}

TEST(Config, Figure4SetHasNineConfigs)
{
    const auto v = figure4Configs(16 * 1024);
    ASSERT_EQ(v.size(), 9u);
    EXPECT_EQ(v[0].label, "2way");
    EXPECT_EQ(v[3].label, "32way");
    EXPECT_EQ(v[4].label, "victim16");
    EXPECT_EQ(v[5].label, "MF2-BAS8");
    EXPECT_EQ(v[8].label, "MF16-BAS8");
}

TEST(Config, Figure12SetHasTwelveConfigs)
{
    const auto v = figure12Configs(8 * 1024);
    ASSERT_EQ(v.size(), 12u);
    for (const auto &c : v)
        EXPECT_EQ(c.sizeBytes, 8u * 1024);
}

TEST(Config, BuiltCachesUseRequestedGeometry)
{
    auto c = CacheConfig::setAssoc(32 * 1024, 4).build("x");
    EXPECT_EQ(c->geometry().sizeBytes(), 32u * 1024);
    EXPECT_EQ(c->geometry().ways(), 4u);
}

TEST(Config, BuildWiresNextLevel)
{
    MainMemory mem(50);
    auto c = CacheConfig::directMapped(1024).build("x", 1, &mem);
    EXPECT_EQ(c->access({0, AccessType::Read}).latency, 51u);
}

/** consumeJobsFlag on one `--jobs` value, with bsim_fatal throwing. */
unsigned
parseJobsFlag(const char *value)
{
    std::string prog = "prog", flag = "--jobs", v = value;
    char *argv[] = {prog.data(), flag.data(), v.data(), nullptr};
    int argc = 3;
    return consumeJobsFlag(argc, argv);
}

class JobsParsing : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        wasThrowing_ = fatalThrows();
        setFatalThrows(true);
        ::unsetenv("BSIM_JOBS");
        fallback_ = defaultJobs();
    }
    void TearDown() override
    {
        setFatalThrows(wasThrowing_);
        ::unsetenv("BSIM_JOBS");
    }

    bool wasThrowing_ = false;
    unsigned fallback_ = 0;
};

TEST_F(JobsParsing, FlagAcceptsWholeCountsThatFitUnsigned)
{
    EXPECT_EQ(parseJobsFlag("1"), 1u);
    EXPECT_EQ(parseJobsFlag("12"), 12u);
    EXPECT_EQ(parseJobsFlag("4294967295"),
              std::numeric_limits<unsigned>::max());
}

TEST_F(JobsParsing, FlagRejectsNegativeOverflowingAndJunk)
{
    // strtoul would negate "-1" into a huge count and wrap 2^32 to 0.
    for (const char *bad : {"-1", "-0", "0", "4294967296",
                            "18446744073709551616", "+3", " 3", "3x",
                            "", "0x4"})
        EXPECT_THROW(parseJobsFlag(bad), FatalError) << "'" << bad << "'";
}

TEST_F(JobsParsing, FlagErrorNamesTheValue)
{
    try {
        parseJobsFlag("-1");
        FAIL() << "no error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad --jobs value '-1'"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(JobsParsing, EnvFallsBackOnNegativeOrOverflowingValues)
{
    for (const char *bad :
         {"-2", "-1", "0", "4294967296", "99999999999999999999", "2x"}) {
        ::setenv("BSIM_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), fallback_) << "'" << bad << "'";
    }
    ::setenv("BSIM_JOBS", "7", 1);
    EXPECT_EQ(defaultJobs(), 7u);
}

TEST(CountParsing, CheckedCountStopsAtUintMax)
{
    EXPECT_EQ(checkedCount(0), 0u);
    EXPECT_EQ(checkedCount(4294967295u),
              std::numeric_limits<unsigned>::max());
    EXPECT_FALSE(checkedCount(4294967296u));
    EXPECT_FALSE(checkedCount(4294967297u));
}

TEST(CountParsing, ParseCountKeepsStrtoullSyntaxWithoutWrapping)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("3"), 3u);
    EXPECT_EQ(parseCount("0x10"), 16u);
    EXPECT_EQ(parseCount("010"), 8u);
    EXPECT_EQ(parseCount(" 3"), 3u);
    EXPECT_EQ(parseCount("4294967295"),
              std::numeric_limits<unsigned>::max());
    for (const char *bad : {"4294967296", "4294967297", "0x100000000",
                            "18446744073709551616", "-1", "-0", "", "3x",
                            "x"})
        EXPECT_FALSE(parseCount(bad)) << "'" << bad << "'";
}

/** Runs bsimMain over @p args with stdout captured; returns the code. */
int
runBsim(std::vector<std::string> args)
{
    args.insert(args.begin(), "bsim");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    ::testing::internal::CaptureStdout();
    const int rc = bsimMain(static_cast<int>(args.size()), argv.data());
    ::testing::internal::GetCapturedStdout();
    return rc;
}

TEST(BsimCountFlags, JobsAndShardsAcceptUintMaxAndRejectPastIt)
{
    const std::string trace =
        (std::filesystem::temp_directory_path() /
         ("bsim_count_flags_" + std::to_string(::getpid()) + ".bst"))
            .string();
    std::vector<MemAccess> records;
    for (Addr a = 0; a < 300; ++a)
        records.push_back({a * 64, AccessType::Read});
    writeBst2Trace(trace, records, 64);
    // 0 stays "default"; UINT_MAX is clamped to the chunk and job
    // counts downstream, as any large count always was.
    for (const char *n : {"0", "4294967295"})
        EXPECT_EQ(0, runBsim({"--cache", "dm:4kB", "--trace", trace,
                              "--shards", n, "--jobs", n, "--json"}))
            << n;
    for (const char *flag : {"--jobs", "--shards"})
        for (const char *n : {"4294967296", "4294967297"})
            EXPECT_EXIT(runBsim({flag, n, "--list-caches"}),
                        ::testing::ExitedWithCode(2),
                        std::string("bad ") + flag + " value '" + n +
                            "': expected 0 to 4294967295");
    std::filesystem::remove(trace);
}

/** The CLI refuses a side the wire refuses, in the wire's words. */
TEST(BsimSideFlag, OnlyDataAndInstAreAccepted)
{
    for (const char *side : {"data", "inst"})
        EXPECT_EQ(0, runBsim({"--side", side, "--accesses", "1000",
                              "--json"}))
            << side;
    for (const char *side : {"instr", "DATA", "", "i"})
        EXPECT_EXIT(runBsim({"--side", side, "--accesses", "1000"}),
                    ::testing::ExitedWithCode(2),
                    "field 'side' must be 'data' or 'inst'")
            << "'" << side << "'";
}

} // namespace
} // namespace bsim
