/**
 * @file
 * Detailed workload-generator tests: determinism of the draw streams,
 * spike injection, swing behaviour, and the memory-access mix.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cpu/cpu.hh"
#include "harness/experiment.hh"
#include "mem/memory_system.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace tb {
namespace {

using harness::ConfigKind;
using harness::SystemConfig;
using workloads::AppProfile;
using workloads::PhaseSpec;

AppProfile
baseApp()
{
    AppProfile a;
    a.name = "detail";
    PhaseSpec p;
    p.pc = 0x1;
    p.meanCompute = 300 * kMicrosecond;
    p.imbalanceCv = 0.1;
    p.memAccesses = 10;
    a.loop.push_back(p);
    a.iterations = 6;
    a.sharedBytes = 64 * 1024;
    a.privateBytes = 16 * 1024;
    return a;
}

TEST(WorkloadDetail, SpikesLengthenExecution)
{
    SystemConfig sys = SystemConfig::small(2);
    AppProfile plain = baseApp();
    AppProfile spiky = baseApp();
    spiky.loop[0].spikeProbability = 0.5;
    spiky.loop[0].spikeFactor = 30.0;

    const auto r_plain =
        harness::runExperiment(sys, plain, ConfigKind::Baseline);
    const auto r_spiky =
        harness::runExperiment(sys, spiky, ConfigKind::Baseline);
    // A 30x spike on ~half the instances stretches the run a lot.
    EXPECT_GT(static_cast<double>(r_spiky.execTime),
              2.0 * static_cast<double>(r_plain.execTime));
    // And inflates the measured imbalance (one thread very late).
    EXPECT_GT(r_spiky.imbalance(), r_plain.imbalance());
}

TEST(WorkloadDetail, SwingsWidenIntervalSpread)
{
    SystemConfig sys = SystemConfig::small(2);
    AppProfile plain = baseApp();
    AppProfile swingy = baseApp();
    swingy.loop[0].swingProbability = 0.5;
    swingy.loop[0].swingFactor = 6.0;

    harness::RunOptions opt;
    opt.trace = true;
    thrifty::ThriftyConfig cfg = thrifty::ThriftyConfig::thrifty();
    cfg.states = power::SleepStateTable(); // measurement mode
    opt.customConfig = &cfg;

    auto spread = [&](const AppProfile& app) {
        const auto r = harness::runExperiment(
            sys, app, ConfigKind::Thrifty, opt);
        double lo = 1e300, hi = 0.0;
        for (const auto& e : r.sync.trace) {
            lo = std::min(lo, static_cast<double>(e.bit));
            hi = std::max(hi, static_cast<double>(e.bit));
        }
        return hi / lo;
    };
    EXPECT_GT(spread(swingy), 3.0 * spread(plain));
}

TEST(WorkloadDetail, MemoryAccessesActuallyIssued)
{
    SystemConfig sys = SystemConfig::small(2);
    AppProfile with = baseApp();
    AppProfile without = baseApp();
    without.loop[0].memAccesses = 0;

    // Compare cache activity: the no-access run only touches barrier
    // lines.
    harness::Machine m1(sys), m2(sys);
    thrifty::SyncStats s1, s2;
    harness::ConfigBarrierProvider p1(m1, ConfigKind::Baseline,
                                      nullptr, s1);
    harness::ConfigBarrierProvider p2(m2, ConfigKind::Baseline,
                                      nullptr, s2);
    workloads::SyntheticProgram prog1(m1.eventQueue(), m1.memory(),
                                      m1.threadPtrs(), with, p1, 1);
    workloads::SyntheticProgram prog2(m2.eventQueue(), m2.memory(),
                                      m2.threadPtrs(), without, p2, 1);
    prog1.start();
    m1.run();
    prog2.start();
    m2.run();
    ASSERT_TRUE(prog1.finished());
    ASSERT_TRUE(prog2.finished());

    double hits1 = 0, hits2 = 0;
    for (NodeId n = 0; n < 4; ++n) {
        hits1 += m1.memory().controller(n).statistics().scalarValue(
                     "l1Hits") +
                 m1.memory().controller(n).statistics().scalarValue(
                     "l1Misses");
        hits2 += m2.memory().controller(n).statistics().scalarValue(
                     "l1Hits") +
                 m2.memory().controller(n).statistics().scalarValue(
                     "l1Misses");
    }
    // 4 threads x 6 instances x 10 accesses = 240 extra demand
    // accesses (plus identical barrier traffic).
    EXPECT_NEAR(hits1 - hits2, 240.0, 10.0);
}

TEST(WorkloadDetail, SeedChangesDrawsButNotStructure)
{
    SystemConfig sys = SystemConfig::small(2);
    AppProfile app = baseApp();
    sys.seed = 10;
    const auto a = harness::runExperiment(sys, app, ConfigKind::Baseline);
    sys.seed = 11;
    const auto b = harness::runExperiment(sys, app, ConfigKind::Baseline);
    EXPECT_EQ(a.sync.instances, b.sync.instances);
    EXPECT_EQ(a.sync.arrivals, b.sync.arrivals);
    EXPECT_NE(a.execTime, b.execTime);
}

TEST(WorkloadDetail, PrologueRunsExactlyOnce)
{
    SystemConfig sys = SystemConfig::small(2);
    AppProfile app = baseApp();
    PhaseSpec pre;
    pre.pc = 0x99;
    pre.meanCompute = 100 * kMicrosecond;
    pre.imbalanceCv = 0.05;
    app.prologue.push_back(pre);

    const auto r = harness::runExperiment(sys, app, ConfigKind::Baseline);
    EXPECT_EQ(r.sync.instances, app.totalInstances());
    EXPECT_EQ(app.totalInstances(), 1u + 6u);
}

/** A barrier every thread passes at once, touching no memory. */
class PassBarrier : public thrifty::Barrier
{
  public:
    void
    arrive(cpu::ThreadContext&, Continuation cont) override
    {
        cont();
    }
    thrifty::BarrierPc pc() const override { return 0x1; }
};

class PassProvider : public workloads::BarrierProvider
{
  public:
    thrifty::Barrier& barrierFor(thrifty::BarrierPc) override { return b; }

  private:
    PassBarrier b;
};

/** Node 0's demand accesses as (kind, word address), in issue order. */
class AccessRecorder : public mem::ProtocolObserver
{
  public:
    void
    onLoadValue(NodeId node, Addr addr, std::uint64_t) override
    {
        if (node == 0)
            seen.emplace_back('L', addr);
    }

    void
    onStoreSerialized(NodeId node, Addr addr, std::uint64_t) override
    {
        // A store that misses is reported at the home's grant and again
        // when it completes; only the completion finds the requester's
        // controller idle.
        if (node == 0 && !ctrl->busy())
            seen.emplace_back('S', addr);
    }

    const mem::CacheController* ctrl = nullptr;
    std::vector<std::pair<char, Addr>> seen;
};

TEST(WorkloadDetail, AccessStreamOfOneThreadIsPinned)
{
    // One thread, three instances of a four-access phase. Each access
    // of one phase instance replays the phase's draws (see
    // SyntheticProgram::issueAccess), so the stream repeats one
    // (kind, word) four times per instance. Pinned literally, so a
    // change to SyntheticProgram cannot move it silently.
    AccessRecorder rec;
    Hooks hooks;
    hooks.check = &rec;
    EventQueue eq;
    noc::NetworkConfig nc;
    nc.dimension = 1;
    noc::Network net(eq, nc);
    mem::MemorySystem memory(eq, net, mem::MemoryConfig{}, &hooks);
    rec.ctrl = &memory.controller(0);
    cpu::Cpu cpu0(eq, 0, memory.controller(0), power::PowerParams{},
                  "cpu0");
    cpu::ThreadContext t0(eq, 0, cpu0, memory.controller(0), "t0");

    AppProfile app = baseApp();
    app.loop[0].memAccesses = 4;
    app.loop[0].sharedFraction = 0.5;
    app.loop[0].writeFraction = 0.5;
    app.iterations = 3;
    PassProvider barriers;
    workloads::SyntheticProgram prog(eq, memory, {&t0}, app, barriers,
                                     1);
    prog.start();
    eq.run();
    ASSERT_TRUE(prog.finished());

    // Shared region at 0x1000 (64 KiB), thread 0's private one after.
    const std::vector<std::pair<char, Addr>> expected = {
        {'L', 0x78a0},  {'L', 0x78a0},  {'L', 0x78a0},  {'L', 0x78a0},
        {'S', 0xf0f0},  {'S', 0xf0f0},  {'S', 0xf0f0},  {'S', 0xf0f0},
        {'S', 0x11230}, {'S', 0x11230}, {'S', 0x11230}, {'S', 0x11230},
    };
    EXPECT_EQ(rec.seen, expected);
}

} // namespace
} // namespace tb
