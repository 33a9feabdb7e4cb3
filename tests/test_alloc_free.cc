/**
 * @file
 * The per-access path makes no heap allocation: once the pools have
 * warmed up, compute/load/store round trips through ThreadContext,
 * the cache controllers, the directory, DRAM and the NoC allocate
 * nothing (docs/PERFORMANCE.md, "Per-access path").
 *
 * This file replaces the global operator new to count calls, so it is
 * built as its own test executable.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cpu/cpu.hh"
#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"

namespace {

bool counting = false;
std::size_t allocations = 0;

} // namespace

void*
operator new(std::size_t n)
{
    if (counting)
        ++allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

// Kept out of line: inlined into a caller, GCC pairs the free() with
// that caller's new-expression and warns of a mismatch.
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace tb {
namespace {

/**
 * One thread's loop: compute, load the next thread's word, store to
 * its own, repeat. Every continuation captures only `this`.
 */
struct Loop
{
    cpu::ThreadContext& tc;
    Addr mine;
    Addr other;
    unsigned left = 0;

    void
    step()
    {
        tc.compute(10 * kNanosecond, [this]() {
            tc.load(other, [this](std::uint64_t) {
                tc.store(mine, left, [this]() {
                    if (--left > 0)
                        step();
                });
            });
        });
    }
};

TEST(AllocationFree, ThreadContextRoundTripsAllocateNothing)
{
    constexpr unsigned kThreads = 4;
    EventQueue eq;
    noc::NetworkConfig nc;
    nc.dimension = 2;
    noc::Network net(eq, nc);
    mem::MemorySystem memory(eq, net, mem::MemoryConfig{});
    const Addr base = memory.addressMap().allocShared(mem::kPageBytes);

    std::vector<std::unique_ptr<cpu::Cpu>> cpus;
    std::vector<std::unique_ptr<cpu::ThreadContext>> threads;
    std::vector<Loop> loops;
    loops.reserve(kThreads);
    for (NodeId n = 0; n < kThreads; ++n) {
        cpus.push_back(std::make_unique<cpu::Cpu>(
            eq, n, memory.controller(n), power::PowerParams{}, "cpu"));
        threads.push_back(std::make_unique<cpu::ThreadContext>(
            eq, n, *cpus.back(), memory.controller(n), "thread"));
        // Each thread reads the line the next one writes, so every
        // round trip moves lines between caches through the directory.
        loops.push_back(Loop{*threads.back(), base + n * mem::kLineBytes,
                             base + ((n + 1) % kThreads) * mem::kLineBytes});
    }

    auto runAll = [&](unsigned iterations) {
        for (Loop& l : loops) {
            l.left = iterations;
            l.step();
        }
        eq.run();
    };

    auto dirRequests = [&]() {
        double sum = 0;
        for (NodeId n = 0; n < kThreads; ++n)
            sum += memory.directory(n).statistics().scalarValue(
                "requests");
        return sum;
    };

    runAll(100); // warm-up: pools, directory entries, line states
    const double requestsBefore = dirRequests();
    allocations = 0;
    counting = true;
    runAll(10000 / kThreads);
    counting = false;

    for (const Loop& l : loops)
        ASSERT_EQ(l.left, 0u);
    // The round trips really crossed the directory, not just the L1s.
    EXPECT_GE(dirRequests() - requestsBefore, 10000.0);
    EXPECT_EQ(allocations, 0u);
}

} // namespace
} // namespace tb
