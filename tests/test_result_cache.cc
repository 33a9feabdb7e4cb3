/**
 * @file
 * Content-addressed result store tests: hit/miss/store accounting,
 * checksum-verified lookups with corrupted-entry eviction, two
 * processes writing one key, unusable cache directories degrading to
 * uncached (never failing the campaign), and — through
 * svc::runCampaignPoints — the warm-cache re-run
 * contract (zero simulations, byte-identical artifacts, even after
 * the cache directory is corrupted wholesale), point keys that carry
 * the resolved simulation plan, and the `--journal`/`--resume`
 * contract: a resume replays stored bytes verbatim, a run without
 * `--resume` writes the store but never reads it, and an unusable
 * `--journal` path is fatal.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include "../bench/bench_util.hh"
#include "harness/campaign_cli.hh"
#include "harness/experiment.hh"
#include "harness/posix_io.hh"
#include "sim/logging.hh"
#include "svc/distributed.hh"
#include "svc/result_cache.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace {

using harness::fnv1a64;
using harness::PointOutcome;
using svc::kCacheHeaderLen;
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
    // The classic torn write: a process SIGKILLed between open and the
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

/**
 * A writer can die at any byte of an entry (ENOSPC, a copy cut
 * short). Whatever the cut, a lookup never returns the torn bytes:
 * the entry is evicted and the point simply reruns.
 */
TEST(ResultCache, TornEntryAtEveryCutIsEvicted)
{
    ResultCache c;
    ASSERT_TRUE(c.open(tempCacheDir("torn_fuzz")));
    const std::string artifact = "r\"quote\\slash\nnewline\ttab";
    c.store(0x9, artifact);
    std::string full;
    {
        std::ifstream in(c.entryPath(0x9), std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(full.size(), kCacheHeaderLen + artifact.size());
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        {
            std::ofstream out(c.entryPath(0x9), std::ios::binary);
            out << full.substr(0, cut);
        }
        std::string out;
        EXPECT_FALSE(c.lookup(0x9, &out)) << "cut at " << cut;
        EXPECT_EQ(c.stats().evictions, cut + 1) << "cut at " << cut;
    }
    c.store(0x9, artifact);
    std::string out;
    ASSERT_TRUE(c.lookup(0x9, &out));
    EXPECT_EQ(out, artifact);
}

/**
 * Two processes storing one key at once, as two campaigns sharing a
 * store do. Each writer stages its own temp file, so neither fails
 * and a concurrent reader only ever sees one whole entry.
 */
TEST(ResultCache, ConcurrentWritersOfOneKey)
{
    const std::string dir = tempCacheDir("concurrent");
    ResultCache reader;
    ASSERT_TRUE(reader.open(dir));
    const std::string bodyA(4096, 'a');
    const std::string bodyB(4096, 'b');
    const auto spawnWriter = [&](const std::string& body) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            int rc = 0;
            try {
                ResultCache writer;
                rc = writer.open(dir) ? 0 : 2;
                for (int i = 0; i < 3000 && rc == 0; ++i)
                    writer.store(42, body);
            } catch (...) {
                rc = 1;
            }
            ::_exit(rc);
        }
        return pid;
    };
    const pid_t writers[2] = {spawnWriter(bodyA), spawnWriter(bodyB)};
    ASSERT_GT(writers[0], 0);
    ASSERT_GT(writers[1], 0);

    int status[2] = {-1, -1};
    bool exited[2] = {false, false};
    std::size_t torn = 0;
    while (!exited[0] || !exited[1]) {
        std::string out;
        if (reader.lookup(42, &out) && out != bodyA && out != bodyB)
            ++torn;
        for (int w = 0; w < 2; ++w) {
            if (!exited[w] &&
                ::waitpid(writers[w], &status[w], WNOHANG) ==
                    writers[w])
                exited[w] = true;
        }
    }
    for (int w = 0; w < 2; ++w) {
        ASSERT_TRUE(WIFEXITED(status[w])) << "writer " << w;
        EXPECT_EQ(WEXITSTATUS(status[w]), 0)
            << "writer " << w << " failed to store";
    }
    EXPECT_EQ(torn, 0u);
    EXPECT_EQ(reader.stats().evictions, 0u)
        << "a reader never sees a partly written entry";
    std::string out;
    ASSERT_TRUE(reader.lookup(42, &out));
    EXPECT_TRUE(out == bodyA || out == bodyB);

    // Only the entry is left: no writer's temp file survives.
    int files = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (struct dirent* e = ::readdir(d))
            files += e->d_name[0] != '.';
        ::closedir(d);
    }
    EXPECT_EQ(files, 1);
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

/** Task whose point i returns "r:i:<gen>" and counts its runs. */
harness::PointTask
generationTask(const std::string& gen, int* runs,
               const std::string& sweep = "store-test")
{
    harness::PointTask task;
    task.run = [gen, runs](std::size_t i) {
        ++*runs;
        return "r:" + std::to_string(i) + ":" + gen;
    };
    task.key = [sweep](std::size_t i) {
        return fnv1a64(sweep + "|point:" + std::to_string(i));
    };
    return task;
}

/**
 * The resume contract end to end: a first run stores half the
 * campaign (the rest fails), and a `--resume` run replays the stored
 * half verbatim from disk — proven by the second run producing
 * different bytes — and only reruns the missing points.
 */
TEST(ResultStore, ResumeReplaysStoredBytes)
{
    harness::CampaignOptions opts;
    opts.journalPath = tempCacheDir("resume");
    int runs = 0;
    harness::PointTask first = generationTask("gen1", &runs);
    const auto gen1 = first.run;
    first.run = [gen1](std::size_t i) -> std::string {
        if (i >= 3)
            throw std::runtime_error("first run fails the tail");
        return gen1(i);
    };
    const svc::CampaignRun r1 =
        svc::runCampaignPoints(opts, 6, first, nullptr, "store-test");
    EXPECT_EQ(r1.report.count(PointOutcome::Ok), 3u);
    EXPECT_EQ(r1.report.count(PointOutcome::Exception), 3u);

    opts.resume = true;
    const svc::CampaignRun r2 = svc::runCampaignPoints(
        opts, 6, generationTask("gen2", &runs), nullptr, "store-test");
    EXPECT_TRUE(r2.report.ok());
    EXPECT_EQ(r2.report.count(PointOutcome::Cached), 3u);
    EXPECT_EQ(r2.report.count(PointOutcome::Ok), 3u);
    EXPECT_EQ(r2.cache.hits, 3u);
    EXPECT_EQ(runs, 6) << "only the missing points run";
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(r2.results[i], "r:" + std::to_string(i) + ":gen1")
            << "stored point reran";
    for (std::size_t i = 3; i < 6; ++i) {
        EXPECT_EQ(r2.results[i], "r:" + std::to_string(i) + ":gen2");
        EXPECT_EQ(r2.report.points[i].attempts, 1u);
    }

    // Every point, replayed or rerun, is in the store afterwards.
    ResultCache peek;
    ASSERT_TRUE(peek.open(opts.journalPath));
    for (std::size_t i = 0; i < 6; ++i) {
        std::string out;
        ASSERT_TRUE(peek.lookup(first.keyOf(i), &out)) << "point " << i;
        EXPECT_EQ(out, r2.results[i]);
    }
}

TEST(ResultStore, KeyMismatchForcesRerun)
{
    harness::CampaignOptions opts;
    opts.journalPath = tempCacheDir("keys");
    int runs = 0;
    ASSERT_TRUE(svc::runCampaignPoints(
                    opts, 4, generationTask("quick", &runs, "quick"),
                    nullptr, "store-test")
                    .report.ok());

    // Same store, other campaign shape (other keys): a stale store
    // never leaks results into the new sweep.
    opts.resume = true;
    const svc::CampaignRun r = svc::runCampaignPoints(
        opts, 4, generationTask("full", &runs, "full"), nullptr,
        "store-test");
    EXPECT_EQ(r.report.count(PointOutcome::Cached), 0u);
    EXPECT_EQ(r.report.count(PointOutcome::Ok), 4u);
    EXPECT_EQ(runs, 8);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(r.results[i], "r:" + std::to_string(i) + ":full");
}

TEST(ResultStore, RunWithoutResumeWritesButNeverReads)
{
    harness::CampaignOptions opts;
    opts.journalPath = tempCacheDir("noresume");
    int runs = 0;
    ASSERT_TRUE(svc::runCampaignPoints(opts, 3,
                                       generationTask("gen1", &runs),
                                       nullptr, "store-test")
                    .report.ok());
    ResultCache unrelated;
    ASSERT_TRUE(unrelated.open(opts.journalPath));
    unrelated.store(0x5eed, "another campaign's entry");

    // Without --resume every point runs again although all are
    // stored, and the fresh bytes replace the stored ones.
    const svc::CampaignRun r = svc::runCampaignPoints(
        opts, 3, generationTask("gen2", &runs), nullptr, "store-test");
    EXPECT_EQ(r.report.count(PointOutcome::Ok), 3u);
    EXPECT_EQ(r.cache.hits + r.cache.misses, 0u) << "never read";
    EXPECT_EQ(r.cache.stores, 3u);
    EXPECT_EQ(runs, 6);

    ResultCache peek;
    ASSERT_TRUE(peek.open(opts.journalPath));
    const harness::PointTask task = generationTask("gen2", &runs);
    for (std::size_t i = 0; i < 3; ++i) {
        std::string out;
        ASSERT_TRUE(peek.lookup(task.keyOf(i), &out));
        EXPECT_EQ(out, "r:" + std::to_string(i) + ":gen2");
    }
    std::string out;
    EXPECT_TRUE(peek.lookup(0x5eed, &out)) << "nothing is deleted";
}

/**
 * With `--journal` and `--cache` a resumed run reads both stores, and
 * every point ends up in both, whichever store served it.
 */
TEST(ResultStore, ResumeReadsBothStoresAndWritesBoth)
{
    harness::CampaignOptions opts;
    opts.journalPath = tempCacheDir("both_journal");
    opts.cacheDir = tempCacheDir("both_cache");
    opts.resume = true;
    int runs = 0;
    const harness::PointTask task = generationTask("gen", &runs);
    ResultCache journal, cache;
    ASSERT_TRUE(journal.open(opts.journalPath));
    ASSERT_TRUE(cache.open(opts.cacheDir));
    journal.store(task.keyOf(0), "r:0:gen");
    cache.store(task.keyOf(1), "r:1:gen");

    const svc::CampaignRun r =
        svc::runCampaignPoints(opts, 3, task, nullptr, "store-test");
    EXPECT_TRUE(r.report.ok());
    EXPECT_EQ(r.report.count(PointOutcome::Cached), 2u);
    EXPECT_EQ(runs, 1);
    for (ResultCache* store : {&journal, &cache}) {
        for (std::size_t i = 0; i < 3; ++i) {
            std::string out;
            ASSERT_TRUE(store->lookup(task.keyOf(i), &out))
                << store->dir() << " point " << i;
            EXPECT_EQ(out, "r:" + std::to_string(i) + ":gen");
        }
    }
}

/**
 * An unusable `--journal` path is fatal and named, never a silent
 * uncached run: the regular file an old JSONL journal left behind is
 * the common case. `--cache` on the same file only warns.
 */
TEST(ResultStore, JournalOnRegularFileIsFatal)
{
    const std::string path = testing::TempDir() + "tb_old_journal.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"point\": 0, \"config\": \"0000000000000001\"}\n";
    }
    int runs = 0;
    harness::CampaignOptions opts;
    opts.journalPath = path;
    try {
        svc::runCampaignPoints(opts, 2, generationTask("x", &runs),
                               nullptr, "store-test");
        FAIL() << "--journal on a regular file must be fatal";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(runs, 0);

    harness::CampaignOptions cached;
    cached.cacheDir = path;
    EXPECT_TRUE(svc::runCampaignPoints(cached, 2,
                                       generationTask("x", &runs),
                                       nullptr, "store-test")
                    .report.ok());
    EXPECT_EQ(runs, 2);
    std::remove(path.c_str());
}

} // namespace
} // namespace tb
