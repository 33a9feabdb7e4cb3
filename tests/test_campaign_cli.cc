/**
 * @file
 * Campaign command-line tests: numeric flags that would not fit their
 * field are usage errors (exit 2), never a silent wrap — a wrapped
 * `--retries` once ran zero attempts per point and reported PASS.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace tb
