/**
 * @file
 * Campaign command-line tests: numeric flags that would not fit their
 * field are usage errors (exit 2), never a silent wrap — a wrapped
 * `--retries` once ran zero attempts per point and reported PASS —
 * and the shared parser reads plain decimal only.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign_cli.hh"

namespace tb {
namespace {

using harness::CampaignOptions;

/** Parse `prog ARGS...` as a campaign binary that accepts --quick. */
CampaignOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    return CampaignOptions::parse(static_cast<int>(argv.size()),
                                  argv.data(), /*allowQuick=*/true);
}

TEST(CampaignCliDeathTest, RetriesOutOfRangeIsAUsageError)
{
    // 1 + N attempts must fit in unsigned: the largest N is 2^32 - 2.
    EXPECT_EQ(parseArgs({"--retries", "4294967294"}).policy.maxAttempts,
              4294967295u);
    EXPECT_EXIT(parseArgs({"--quick", "--retries", "4294967295"}),
                testing::ExitedWithCode(2), "--retries.*out of range");
    EXPECT_EXIT(parseArgs({"--retries=18446744073709551615"}),
                testing::ExitedWithCode(2), "--retries.*out of range");
}

TEST(CampaignCliDeathTest, JobsOutOfRangeIsAUsageError)
{
    EXPECT_EQ(parseArgs({"--jobs", "4294967295"}).policy.jobs,
              4294967295u);
    EXPECT_EXIT(parseArgs({"--jobs", "4294967297"}),
                testing::ExitedWithCode(2), "--jobs.*out of range");
}

TEST(CampaignCliDeathTest, SimThreadsOutOfRangeIsAUsageError)
{
    EXPECT_EQ(parseArgs({"--sim-threads", "4"}).simThreads, 4u);
    EXPECT_EXIT(parseArgs({"--sim-threads", "4294967296"}),
                testing::ExitedWithCode(2),
                "--sim-threads.*out of range");
}

TEST(CampaignCliDeathTest, SimPartitionsOutOfRangeIsAUsageError)
{
    EXPECT_EQ(parseArgs({"--sim-partitions", "8"}).simPartitions, 8u);
    EXPECT_EXIT(parseArgs({"--sim-partitions", "4294967296"}),
                testing::ExitedWithCode(2),
                "--sim-partitions.*out of range");
}

TEST(CampaignCliDeathTest, MillisecondsOutOfRangeIsAUsageError)
{
    // A u64 of milliseconds overflows std::chrono::milliseconds and
    // now + deadline; --deadline-ms 2^64-1 once timed out every point at
    // once. One week is accepted, a millisecond more is not.
    const std::string week = std::to_string(harness::kMaxOptionMs);
    const std::string past = std::to_string(harness::kMaxOptionMs + 1);
    EXPECT_EQ(parseArgs({"--deadline-ms", week}).policy.deadlineMs,
              harness::kMaxOptionMs);
    EXPECT_EQ(parseArgs({"--backoff-ms", week}).policy.backoffBaseMs,
              harness::kMaxOptionMs);
    EXPECT_EXIT(parseArgs({"--deadline-ms", "18446744073709551615"}),
                testing::ExitedWithCode(2),
                "--deadline-ms.*out of range");
    EXPECT_EXIT(parseArgs({"--deadline-ms", past}),
                testing::ExitedWithCode(2),
                "--deadline-ms.*out of range");
    EXPECT_EXIT(parseArgs({"--backoff-ms", past}),
                testing::ExitedWithCode(2), "--backoff-ms.*out of range");
}

TEST(CampaignCliDeathTest, ServeIsAnUnknownOption)
{
    // Campaigns run only on the local supervisor; the old served mode
    // is gone, so its flag is a usage error like any unknown option.
    EXPECT_EXIT(parseArgs({"--serve", "x"}), testing::ExitedWithCode(2),
                "unknown option '--serve'");
}

TEST(CampaignCli, ParseU64IsStrictDecimal)
{
    std::uint64_t v = 0;
    std::string err;
    // A leading zero is not an octal prefix.
    ASSERT_TRUE(harness::parseU64("010", UINT64_MAX, &v, &err)) << err;
    EXPECT_EQ(v, 10u);
    ASSERT_TRUE(harness::parseU64("0", 0, &v, &err)) << err;
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(harness::parseU64("18446744073709551615", UINT64_MAX,
                                  &v, &err))
        << err;
    EXPECT_EQ(v, UINT64_MAX);

    // Everything else is rejected, and the output is left alone.
    v = 7;
    for (const char* bad : {"", "0x10", "+5", "-1", " 5", "5 ", "4x",
                            "1e3", "18446744073709551616"}) {
        EXPECT_FALSE(harness::parseU64(bad, UINT64_MAX, &v, &err))
            << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "'";
    }
    EXPECT_FALSE(harness::parseU64("4294967298", UINT_MAX, &v, &err));
    EXPECT_NE(err.find("out of range [0, 4294967295]"),
              std::string::npos)
        << err;
    EXPECT_FALSE(harness::parseU64("abc", UINT64_MAX, &v, &err));
    EXPECT_NE(err.find("not a non-negative decimal integer"),
              std::string::npos)
        << err;
}

} // namespace
} // namespace tb
