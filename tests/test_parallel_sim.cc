/**
 * @file
 * Tests of the multi-threaded single-simulation driver
 * (harness/parallel_sim.hh): the PdesRunReport bookkeeping and — the
 * contract that matters — real experiments whose serialized results
 * are byte-identical at any worker thread count. The engine itself is
 * covered by test_pdes.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/protocol_checker.hh"
#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "harness/parallel_sim.hh"
#include "harness/result_serde.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace harness {
namespace {

TEST(ParallelSim, ReportRecordsModelLookahead)
{
    // The conservative lookahead the partitioned model will use is
    // the NoC's minimum cross-node latency: marshal + pin-to-pin +
    // marshal = 16 + 16 + 16 ns on the default configuration.
    Machine m(SystemConfig::small(2));
    const PdesRunReport r = runMachinePdes(m, 1);
    EXPECT_EQ(r.threads, 1u);
    EXPECT_EQ(r.modelLookahead, 48 * kNanosecond);
    EXPECT_EQ(r.modelLookahead,
              m.memory().fabric().minMessageLatency());
}

TEST(ParallelSim, ThreadedDrainMatchesSerialFinalTick)
{
    // An empty machine drains immediately under either engine.
    Machine serial(SystemConfig::small(1));
    Machine threaded(SystemConfig::small(1));
    const PdesRunReport a = runMachinePdes(serial, 1);
    const PdesRunReport b = runMachinePdes(threaded, 4);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(b.threads, 4u);
    EXPECT_EQ(b.engine.partitions, 1u);
}

/**
 * The determinism contract end to end: a real experiment run under
 * the PDES engine must serialize byte-identically to the serial
 * reference, episode ledger and all.
 */
TEST(ParallelSim, ExperimentResultsByteIdenticalAcrossThreadCounts)
{
    const SystemConfig sys = SystemConfig::small(3);
    const workloads::AppProfile app = workloads::appByName("Volrend");

    const auto runAt = [&](unsigned threads) {
        RunOptions ro;
        ro.episodeLedger = true;
        ro.simThreads = threads;
        return serializeResult(
            runExperiment(sys, app, ConfigKind::Thrifty, ro));
    };

    const std::string serial = runAt(1);
    EXPECT_EQ(serial, runAt(2));
    EXPECT_EQ(serial, runAt(4));
}

TEST(ParallelSim, SixtyFourNodeMachineRunsEightRealPartitions)
{
    // The headline acceptance shape: a 64-node machine decomposes into
    // eight managed engine partitions, every cross-cluster channel
    // carrying the real (nonzero) pin-to-pin lookahead.
    Machine m(SystemConfig::small(6), 8);
    const PdesRunReport r = runMachinePdes(m, 2);
    EXPECT_EQ(r.partitions, 8u);
    EXPECT_EQ(r.engine.partitions, 8u);
    EXPECT_EQ(r.modelLookahead, m.config().noc.pinToPin);
    EXPECT_GT(r.modelLookahead, Tick{0});
}

/**
 * The default plan is serial at every node count, the 64-node paper
 * machine included: the 8-cluster plan measured slower at every
 * thread count there, so partitioning is opt-in. Explicit counts
 * stand unless a serial-only feature (a TB_CHECK build arms the
 * checker everywhere) forces one partition.
 */
TEST(ParallelSim, DefaultPlanIsSerialOnPaperMachine)
{
    const RunOptions defaults;
    EXPECT_EQ(resolvedSimPartitions(defaults), 1u);
    Machine m(SystemConfig::paperDefault(),
              resolvedSimPartitions(defaults));
    EXPECT_EQ(m.partitions(), 1u);

    RunOptions eight;
    eight.simPartitions = 8;
    EXPECT_EQ(resolvedSimPartitions(eight),
              check::checkedByDefault() ? 1u : 8u);
    eight.check = true;
    EXPECT_EQ(resolvedSimPartitions(eight), 1u);
}

TEST(ParallelSim, DefaultRunSerializesLikeExplicitSerialPlan)
{
    const SystemConfig sys = SystemConfig::paperDefault();
    workloads::AppProfile app = workloads::appByName("Volrend");
    app.iterations = 4;
    RunOptions serial;
    serial.simPartitions = 1;
    EXPECT_EQ(
        serializeResult(runExperiment(sys, app, ConfigKind::Thrifty)),
        serializeResult(
            runExperiment(sys, app, ConfigKind::Thrifty, serial)));
}

/**
 * The partitioned plan's own determinism contract: with the partition
 * count fixed, the one-worker engine run is the plan's bit-exact
 * reference and adding workers must never change the serialized
 * result — stats and episode ledger included. A seeded scan over
 * (app, partition count) points keeps the property honest beyond one
 * hand-picked workload.
 */
TEST(ParallelSim, PartitionedExperimentByteIdenticalAcrossThreadCounts)
{
    const SystemConfig sys = SystemConfig::small(4); // 16 nodes
    std::uint64_t lcg = 0x2545f4914f6cdd1dull;
    const auto next = [&]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>(lcg >> 33);
    };
    const char* apps[] = {"Volrend", "Radix", "Ocean"};
    for (int trial = 0; trial < 3; ++trial) {
        const workloads::AppProfile app =
            workloads::appByName(apps[next() % 3]);
        const unsigned parts = 1u << (1 + next() % 3); // 2, 4 or 8
        const auto runAt = [&](unsigned threads) {
            RunOptions ro;
            ro.episodeLedger = true;
            ro.simPartitions = parts;
            ro.simThreads = threads;
            return serializeResult(
                runExperiment(sys, app, ConfigKind::Thrifty, ro));
        };
        const std::string reference = runAt(1);
        EXPECT_EQ(reference, runAt(4))
            << app.name << " at " << parts << " partitions";
    }
}

} // namespace
} // namespace harness
} // namespace tb
