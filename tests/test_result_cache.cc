/**
 * @file
 * Content-addressed result cache tests: hit/miss/store accounting,
 * checksum-verified lookups with corrupted-entry eviction, unusable
 * cache directories degrading to uncached (never failing the
 * campaign), and — through svc::runCampaignPoints in local mode —
 * the warm-cache re-run contract: zero simulations, byte-identical
 * artifacts, even after the cache directory is corrupted wholesale;
 * and point keys that carry the resolved simulation plan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>

#include "../bench/bench_util.hh"
#include "harness/campaign_cli.hh"
#include "harness/campaign_journal.hh"
#include "harness/experiment.hh"
#include "svc/distributed.hh"
#include "svc/result_cache.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace {

using harness::fnv1a64;
using harness::PointOutcome;
using svc::ResultCache;

std::string
tempCacheDir(const std::string& name)
{
    // Clean slate: entries persist across test-binary runs by design
    // (that is the point of the cache), so stale files would turn
    // cold-run assertions into hits.
    const std::string d = testing::TempDir() + "tb_cache_" + name;
    if (DIR* dir = ::opendir(d.c_str())) {
        while (struct dirent* e = ::readdir(dir)) {
            const std::string f = e->d_name;
            if (f != "." && f != "..")
                std::remove((d + "/" + f).c_str());
        }
        ::closedir(dir);
    }
    return d;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s, line;
    while (std::getline(in, line))
        s += line + "\n";
    return s;
}

TEST(ResultCache, MissThenStoreThenHit)
{
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("roundtrip")));
    ASSERT_TRUE(c.active());

    std::string out;
    EXPECT_FALSE(c.lookup(0x42, &out));
    EXPECT_EQ(c.stats().misses, 1u);

    const std::string artifact = "line one\nline two, \"quoted\"\n";
    c.store(0x42, artifact);
    EXPECT_EQ(c.stats().stores, 1u);

    ASSERT_TRUE(c.lookup(0x42, &out));
    EXPECT_EQ(out, artifact);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().evictions, 0u);

    // A different key is its own entry, not a collision.
    EXPECT_FALSE(c.lookup(0x43, &out));
    std::remove(c.entryPath(0x42).c_str());
}

TEST(ResultCache, SharedAcrossInstances)
{
    const std::string dir = tempCacheDir("shared");
    {
        ResultCache c;
        ASSERT_TRUE(c.open(dir));
        c.store(0x7, "persisted artifact");
    }
    ResultCache c;
    ASSERT_TRUE(c.open(dir));
    std::string out;
    ASSERT_TRUE(c.lookup(0x7, &out)) << "cache outlives the process";
    EXPECT_EQ(out, "persisted artifact");
    std::remove(c.entryPath(0x7).c_str());
}

TEST(ResultCache, CorruptedBodyEvicted)
{
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("corrupt_body")));
    c.store(0x1, "the true artifact");

    // Flip bytes in the body: the stored checksum no longer matches.
    {
        std::string raw = slurp(c.entryPath(0x1));
        const auto at = raw.find("true");
        ASSERT_NE(at, std::string::npos);
        raw.replace(at, 4, "evil");
        std::ofstream out(c.entryPath(0x1), std::ios::binary);
        out << raw;
    }

    std::string out;
    EXPECT_FALSE(c.lookup(0x1, &out))
        << "corruption must read as a miss, never a wrong artifact";
    EXPECT_EQ(c.stats().evictions, 1u);
    // The entry is gone from disk: the next store repairs it.
    std::ifstream gone(c.entryPath(0x1));
    EXPECT_FALSE(gone.good());

    c.store(0x1, "the true artifact");
    ASSERT_TRUE(c.lookup(0x1, &out));
    EXPECT_EQ(out, "the true artifact");
    std::remove(c.entryPath(0x1).c_str());
}

TEST(ResultCache, GarbageHeaderEvicted)
{
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("corrupt_hdr")));
    c.store(0x2, "artifact");
    {
        std::ofstream out(c.entryPath(0x2), std::ios::binary);
        out << "not a cache entry at all";
    }
    std::string out;
    EXPECT_FALSE(c.lookup(0x2, &out));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(ResultCache, TruncatedEntryEvicted)
{
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("truncated")));
    c.store(0x3, "a longer artifact that will be cut short");
    {
        const std::string raw = slurp(c.entryPath(0x3));
        std::ofstream out(c.entryPath(0x3), std::ios::binary);
        out << raw.substr(0, raw.size() / 2);
    }
    std::string out;
    EXPECT_FALSE(c.lookup(0x3, &out));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(ResultCache, ZeroLengthEntryEvicted)
{
    // The classic torn write: a daemon SIGKILLed between open and the
    // first write leaves a zero-byte entry. It must classify as a
    // miss, be evicted, and never poison a warm run.
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("zero_len")));
    c.store(0x4, "artifact");
    {
        std::ofstream out(c.entryPath(0x4),
                          std::ios::binary | std::ios::trunc);
    }
    std::string out;
    EXPECT_FALSE(c.lookup(0x4, &out));
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
    std::ifstream gone(c.entryPath(0x4));
    EXPECT_FALSE(gone.good()) << "the torn entry must leave the disk";
}

TEST(ResultCache, TruncatedHeaderEvicted)
{
    // Killed mid-header: fewer bytes than "TBCACHE1 " + 16 hex + \n.
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("short_hdr")));
    c.store(0x5, "artifact");
    {
        std::ofstream out(c.entryPath(0x5),
                          std::ios::binary | std::ios::trunc);
        out << "TBCACHE1 0123";
    }
    std::string out;
    EXPECT_FALSE(c.lookup(0x5, &out));
    EXPECT_EQ(c.stats().evictions, 1u);
    std::ifstream gone(c.entryPath(0x5));
    EXPECT_FALSE(gone.good());
}

TEST(ResultCache, NonHexChecksumEvicted)
{
    // Right length, wrong alphabet: the checksum field must be 16
    // lowercase hex digits, not merely 16 bytes.
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("bad_hex")));
    c.store(0x6, "artifact");
    {
        std::ofstream out(c.entryPath(0x6),
                          std::ios::binary | std::ios::trunc);
        out << "TBCACHE1 0123456789abcdeZ\nbody";
    }
    std::string out;
    EXPECT_FALSE(c.lookup(0x6, &out));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(ResultCache, UnusableDirectoryDegradesToUncached)
{
    ResultCache c;
    EXPECT_FALSE(c.open("/proc/definitely/not/creatable"));
    EXPECT_FALSE(c.active());
    std::string out;
    EXPECT_FALSE(c.lookup(0x1, &out));
    c.store(0x1, "dropped"); // must be a no-op, not a crash
    EXPECT_EQ(c.stats().stores, 0u);
    EXPECT_FALSE(c.open(""));
}

/** Point task whose run() counts invocations (cache bypass proof). */
harness::PointTask
countingTask(int* runs)
{
    harness::PointTask task;
    task.run = [runs](std::size_t i) {
        ++*runs;
        return "artifact:" + std::to_string(i) + "\n";
    };
    task.key = [](std::size_t i) {
        return fnv1a64("cache-test|point:" + std::to_string(i));
    };
    return task;
}

TEST(ResultCache, WarmCacheRunPerformsZeroSimulations)
{
    harness::CampaignOptions opts;
    opts.cacheDir = tempCacheDir("warm");
    int runs = 0;
    const harness::PointTask task = countingTask(&runs);

    const svc::CampaignRun cold =
        svc::runCampaignPoints(opts, 4, task, nullptr, "cache-test");
    EXPECT_TRUE(cold.report.ok());
    EXPECT_EQ(runs, 4);
    EXPECT_EQ(cold.cache.misses, 4u);
    EXPECT_EQ(cold.cache.stores, 4u);

    const svc::CampaignRun warm =
        svc::runCampaignPoints(opts, 4, task, nullptr, "cache-test");
    EXPECT_TRUE(warm.report.ok());
    EXPECT_EQ(runs, 4) << "warm re-run must not simulate";
    EXPECT_EQ(warm.cache.hits, 4u);
    EXPECT_EQ(warm.report.count(PointOutcome::Cached), 4u);
    EXPECT_EQ(warm.report.count(PointOutcome::Ok), 0u);
    EXPECT_EQ(warm.results, cold.results) << "byte-identical";
}

TEST(ResultCache, CorruptedCacheDirectoryRecovers)
{
    harness::CampaignOptions opts;
    opts.cacheDir = tempCacheDir("recover");
    int runs = 0;
    const harness::PointTask task = countingTask(&runs);

    const svc::CampaignRun first =
        svc::runCampaignPoints(opts, 3, task, nullptr, "cache-test");
    ASSERT_TRUE(first.report.ok());
    ASSERT_EQ(runs, 3);

    // Corrupt every entry in place: garbage where artifacts were.
    ResultCache peek;
    ASSERT_TRUE(peek.open(opts.cacheDir));
    for (std::size_t i = 0; i < 3; ++i) {
        std::ofstream out(peek.entryPath(task.key(i)),
                          std::ios::binary);
        out << "TBCACHE1 0123456789abcdef\ncorrupted beyond repair";
    }

    const svc::CampaignRun again =
        svc::runCampaignPoints(opts, 3, task, nullptr, "cache-test");
    EXPECT_TRUE(again.report.ok());
    EXPECT_EQ(runs, 6) << "every corrupted point re-simulates";
    EXPECT_EQ(again.cache.evictions, 3u);
    EXPECT_EQ(again.results, first.results)
        << "corruption costs re-simulation, never wrong bytes";

    // And the re-simulation repaired the cache.
    int runs3 = runs;
    const svc::CampaignRun healed =
        svc::runCampaignPoints(opts, 3, task, nullptr, "cache-test");
    EXPECT_EQ(runs, runs3) << "healed cache serves hits again";
    EXPECT_EQ(healed.cache.hits, 3u);
    EXPECT_EQ(healed.results, first.results);
}

/**
 * Point identity carries the resolved simulation plan: results stored
 * under one partition count never answer for another, and the default
 * plan shares its results with an explicit `--sim-partitions 1`.
 */
TEST(ResultCache, PointKeysCarryTheResolvedPlan)
{
    const harness::SystemConfig sys = harness::SystemConfig::small(4);
    workloads::AppProfile app = workloads::appByName("Volrend");
    app.iterations = 2;
    const std::vector<workloads::AppProfile> apps{app};
    const std::size_t count = bench::figureConfigs().size();

    // Fill a store under `parts`, then replay it on the default plan.
    const auto defaultRunHits = [&](unsigned parts,
                                    const std::string& dir) {
        harness::CampaignOptions fill;
        fill.cacheDir = tempCacheDir(dir);
        fill.simPartitions = parts;
        const svc::CampaignRun filled = svc::runCampaignPoints(
            fill, count,
            bench::matrixPointTask(sys, apps, fill, "plan-test"),
            nullptr, "plan-test");
        EXPECT_TRUE(filled.report.ok());
        EXPECT_EQ(filled.cache.stores, count);

        harness::CampaignOptions replay;
        replay.cacheDir = fill.cacheDir;
        const svc::CampaignRun rerun = svc::runCampaignPoints(
            replay, count,
            bench::matrixPointTask(sys, apps, replay, "plan-test"),
            nullptr, "plan-test");
        EXPECT_TRUE(rerun.report.ok());
        return rerun.cache.hits;
    };

    harness::RunOptions eight;
    eight.simPartitions = 8;
    // A checker-armed build runs every plan serially, so there the
    // eight-partition request really is the default plan.
    const bool eightRunsSerial =
        harness::resolvedSimPartitions(eight) == 1;
    EXPECT_EQ(defaultRunHits(8, "plan8"), eightRunsSerial ? count : 0u);
    EXPECT_EQ(defaultRunHits(1, "plan1"), count);
}

} // namespace
} // namespace tb
