/**
 * @file
 * Conservative PDES engine tests (sim/pdes.hh): channel/lookahead
 * contract enforcement, null-message progress at zero load,
 * cross-partition cancel semantics, the deterministic (time,
 * priority, partition, seq) tie-break, and a randomized
 * serial-vs-threaded equivalence stress.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/pdes.hh"
#include "sim/random.hh"

namespace {

using tb::EventQueue;
using tb::Tick;
using tb::pdes::Engine;
using tb::pdes::Partition;
using tb::pdes::PartitionId;
using tb::pdes::RemoteHandle;

Engine::Config
threaded(unsigned n)
{
    Engine::Config cfg;
    cfg.threads = n;
    return cfg;
}

TEST(Pdes, SinglePartitionRunsLikeSerial)
{
    Engine engine;
    Partition& p = engine.addPartition("solo");
    std::vector<Tick> order;
    p.schedule(30, [&] { order.push_back(30); });
    p.schedule(10, [&] {
        order.push_back(10);
        p.scheduleIn(5, [&] { order.push_back(15); });
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<Tick>{10, 15, 30}));
    EXPECT_EQ(engine.stats().fired, 3u);
    EXPECT_EQ(engine.stats().finalTick, Tick{30});
}

TEST(Pdes, ExternalQueuePartitionDrainsIt)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] {
        ++fired;
        eq.schedule(200, [&] { ++fired; });
    });
    Engine engine;
    engine.addExternalPartition("machine", eq);
    engine.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(engine.stats().finalTick, Tick{200});
}

TEST(Pdes, ConnectRejectsZeroLookaheadAndExternals)
{
    Engine engine;
    engine.addPartition("a");
    engine.addPartition("b");
    EventQueue eq;
    engine.addExternalPartition("x", eq);
    EXPECT_THROW(engine.connect(0, 1, 0), tb::PanicError);
    EXPECT_THROW(engine.connect(0, 2, 100), tb::PanicError);
    EXPECT_THROW(engine.connect(0, 0, 100), tb::PanicError);
    EXPECT_THROW(engine.connect(0, 7, 100), tb::PanicError);
}

TEST(Pdes, SendBelowLookaheadPanics)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 50);
    EXPECT_THROW(a.send(1, 49, [] {}), tb::PanicError);
    EXPECT_THROW(a.send(2, 100, [] {}), tb::PanicError);
}

TEST(Pdes, CrossPartitionSendDelivers)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    Partition& b = engine.addPartition("b");
    engine.connect(0, 1, 10);
    engine.connect(1, 0, 10);
    std::vector<std::string> log;
    a.schedule(5, [&] {
        log.push_back("a@5");
        a.send(1, 20, [&] {
            log.push_back("b@20");
            b.send(0, 35, [&] { log.push_back("a@35"); });
        });
    });
    engine.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@5", "b@20", "a@35"}));
    EXPECT_EQ(engine.stats().sent, 2u);
    EXPECT_EQ(engine.stats().merged, 2u);
}

/**
 * Null-message progress at (almost) zero load: a ring of partitions
 * where only one far-future event exists anywhere. The only way time
 * reaches it is clock propagation (null messages plus the GVT
 * rescue); a conservative implementation that deadlocks or creeps
 * unboundedly fails this under the test timeout.
 */
TEST(Pdes, NullMessageProgressAtZeroLoad)
{
    for (unsigned threads : {1u, 3u}) {
        Engine engine(threaded(threads));
        constexpr unsigned kRing = 4;
        for (unsigned i = 0; i < kRing; ++i)
            engine.addPartition("ring" + std::to_string(i));
        for (unsigned i = 0; i < kRing; ++i)
            engine.connect(static_cast<PartitionId>(i),
                           static_cast<PartitionId>((i + 1) % kRing),
                           1000);
        bool fired = false;
        // 10^9 ticks away: ~10^6 creep rounds if clocks only advanced
        // by ring lookahead, microseconds with the GVT rescue.
        engine.partition(0).schedule(1'000'000'000,
                                     [&] { fired = true; });
        engine.run();
        EXPECT_TRUE(fired) << threads << " threads";
        EXPECT_EQ(engine.stats().finalTick, Tick{1'000'000'000});
    }
}

TEST(Pdes, ZeroEventsTerminates)
{
    Engine engine(threaded(2));
    engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    engine.run();
    EXPECT_EQ(engine.stats().fired, 0u);
}

TEST(Pdes, CrossPartitionCancelInTime)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    bool fired = false;
    a.schedule(0, [&] {
        RemoteHandle h =
            a.sendCancelable(1, 500, [&] { fired = true; });
        // Cancel takes effect at 100 < 500: must win.
        a.scheduleIn(50, [&, h] { a.cancel(h, 100); });
    });
    engine.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.stats().cancelsSent, 1u);
}

TEST(Pdes, CrossPartitionCancelTooLateIsNoOp)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    bool fired = false;
    a.schedule(0, [&] {
        RemoteHandle h =
            a.sendCancelable(1, 500, [&] { fired = true; });
        // Takes effect at 600 > 500: the target always fires first.
        a.scheduleIn(50, [&, h] { a.cancel(h, 600); });
    });
    engine.run();
    EXPECT_TRUE(fired);
}

TEST(Pdes, CancelAtTargetTickIsDeterministicNoOp)
{
    // At an equal tick the target's (partition, seq) key is smaller
    // (it was sent first on the same channel), so it fires first.
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    bool fired = false;
    a.schedule(0, [&] {
        RemoteHandle h =
            a.sendCancelable(1, 500, [&] { fired = true; });
        a.cancel(h, 500);
    });
    engine.run();
    EXPECT_TRUE(fired);
}

/**
 * The documented total order: (time, priority, origin partition,
 * origin seq). Two senders racing payloads into one destination at
 * the same (tick, priority) must land in partition-id order no matter
 * which mailbox drains first; local events of the destination at the
 * same key sort by its own partition id against them.
 */
TEST(Pdes, TieBreakTotalOrder)
{
    for (unsigned threads : {1u, 3u}) {
        Engine engine(threaded(threads));
        Partition& a = engine.addPartition("a");   // id 0
        Partition& b = engine.addPartition("b");   // id 1
        Partition& c = engine.addPartition("mid"); // id 2
        engine.connect(0, 2, 10);
        engine.connect(1, 2, 10);
        std::vector<std::string> order;
        // Sender b schedules its send EARLIER in real time than a's,
        // but a's partition id is smaller: a's payload must still run
        // first at the shared tick.
        b.schedule(0, [&] {
            b.send(2, 100, [&] { order.push_back("from-b"); });
        });
        a.schedule(5, [&] {
            a.send(2, 100, [&] { order.push_back("from-a"); });
        });
        c.schedule(100, [&] { order.push_back("local-c"); });
        // Priority dominates the partition tie-break.
        b.schedule(0, [&] {
            b.send(2, 100, [&] { order.push_back("prio"); }, -1);
        });
        engine.run();
        EXPECT_EQ(order,
                  (std::vector<std::string>{"prio", "from-a", "from-b",
                                            "local-c"}))
            << threads << " threads";
    }
}

/**
 * Randomized serial-vs-threaded equivalence stress: a seeded random
 * topology and workload (self-rescheduling events, cross-partition
 * sends at lookahead distance, cancelable sends with in-time and late
 * cancels) executed at 1/2/4 worker threads must produce identical
 * per-partition execution logs.
 */
TEST(Pdes, RandomizedSerialVsThreadedEquivalence)
{
    constexpr unsigned kParts = 8;
    constexpr Tick kLookahead = 64;
    constexpr Tick kHorizon = 20'000;

    auto runOnce = [&](std::uint64_t seed, unsigned threads) {
        Engine engine(threaded(threads));
        std::vector<Partition*> parts;
        for (unsigned i = 0; i < kParts; ++i)
            parts.push_back(
                &engine.addPartition("p" + std::to_string(i)));
        // Ring both ways plus a chord: strongly connected so traffic
        // reaches everyone, cycles exercise the creep/rescue path.
        for (unsigned i = 0; i < kParts; ++i) {
            const auto s = static_cast<PartitionId>(i);
            engine.connect(s, static_cast<PartitionId>((i + 1) % kParts),
                           kLookahead);
            engine.connect(
                s, static_cast<PartitionId>((i + kParts - 1) % kParts),
                kLookahead);
            engine.connect(s, static_cast<PartitionId>((i + 3) % kParts),
                           kLookahead);
        }
        // One log per partition, appended only by its owner thread,
        // concatenated in partition order after the run.
        std::vector<std::vector<std::uint64_t>> logs(kParts);

        struct Hop
        {
            Engine* engine;
            std::vector<Partition*>* parts;
            std::vector<std::vector<std::uint64_t>>* logs;
            std::uint64_t rng;

            std::uint64_t
            mix()
            {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                return rng;
            }

            void
            runAt(unsigned idx)
            {
                Partition& self = *(*parts)[idx];
                (*logs)[idx].push_back(
                    (self.now() << 8) ^ (rng & 0xff));
                if (self.now() >= kHorizon)
                    return;
                const std::uint64_t r = mix();
                Hop next = *this;
                switch (r % 4) {
                case 0: { // local reschedule
                    self.scheduleIn(1 + r % 300,
                                    [next, idx]() mutable {
                                        next.runAt(idx);
                                    });
                    break;
                }
                case 1: { // plain cross-partition send
                    const unsigned dst =
                        (idx + 1 + r % 2 * 2) % kParts; // +1 or +3
                    self.send(static_cast<PartitionId>(dst),
                              self.now() + kLookahead + r % 200,
                              [next, dst]() mutable {
                                  next.runAt(dst);
                              });
                    break;
                }
                case 2: { // cancelable send, canceled in time 50/50
                    const unsigned dst = (idx + kParts - 1) % kParts;
                    const Tick target =
                        self.now() + 2 * kLookahead + r % 200;
                    RemoteHandle h = self.sendCancelable(
                        static_cast<PartitionId>(dst), target,
                        [next, dst]() mutable { next.runAt(dst); });
                    // The cancel is sent one tick from now, so its
                    // earliest legal timestamp is now+1+lookahead.
                    const bool inTime = (r >> 32) & 1;
                    const Tick at = inTime
                                        ? self.now() + kLookahead + 1
                                        : target + 1 + r % 50;
                    Partition* sp = &self;
                    self.scheduleIn(1, [sp, h, at] {
                        sp->cancel(h, at);
                    });
                    break;
                }
                default: { // burst: two locals at one tick (tie-break)
                    const Tick at = self.now() + 1 + r % 100;
                    self.schedule(at, [next, idx]() mutable {
                        next.runAt(idx);
                    });
                    Hop other = next;
                    other.rng = mix();
                    self.schedule(at, [other, idx]() mutable {
                        Hop h2 = other;
                        (*h2.logs)[idx].push_back(h2.rng);
                    });
                    break;
                }
                }
            }
        };

        tb::Random seeder(seed);
        for (unsigned i = 0; i < kParts; ++i) {
            Hop hop{&engine, &parts, &logs, seeder.next() | 1};
            parts[i]->schedule(i * 7, [hop, i]() mutable {
                hop.runAt(i);
            });
        }
        engine.run();

        std::vector<std::uint64_t> flat;
        for (unsigned i = 0; i < kParts; ++i) {
            flat.push_back(0xffff'0000'0000'0000ull | i);
            flat.insert(flat.end(), logs[i].begin(), logs[i].end());
        }
        return flat;
    };

    for (std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
        const auto serial = runOnce(seed, 1);
        ASSERT_GT(serial.size(), kParts); // workload actually ran
        EXPECT_EQ(runOnce(seed, 2), serial) << "seed " << seed;
        EXPECT_EQ(runOnce(seed, 4), serial) << "seed " << seed;
    }
}

TEST(Pdes, RunIsOneShot)
{
    Engine engine;
    engine.addPartition("a");
    engine.run();
    EXPECT_THROW(engine.run(), tb::PanicError);
}

TEST(Pdes, StatsAggregateAcrossPartitions)
{
    Engine engine(threaded(2));
    Partition& a = engine.addPartition("a");
    Partition& b = engine.addPartition("b");
    engine.connect(0, 1, 10);
    a.schedule(0, [&] { a.send(1, 10, [] {}); });
    b.schedule(5, [] {});
    engine.run();
    const auto s = engine.stats();
    EXPECT_EQ(s.partitions, 2u);
    EXPECT_EQ(s.threads, 2u);
    EXPECT_EQ(s.scheduled, 2u);
    EXPECT_EQ(s.sent, 1u);
    EXPECT_EQ(s.merged, 1u);
    EXPECT_EQ(s.fired, 3u);
    EXPECT_EQ(engine.partition(0).stats().fired, 1u);
    EXPECT_EQ(engine.partition(1).stats().fired, 2u);
}

} // namespace
