/**
 * @file
 * Unit tests for the hypercube wormhole interconnect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/fault_hooks.hh"
#include "sim/hooks.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

noc::NetworkConfig
smallConfig(unsigned dim)
{
    noc::NetworkConfig c;
    c.dimension = dim;
    return c;
}

TEST(Network, HopsIsHammingDistance)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(6));
    EXPECT_EQ(net.hops(0, 0), 0u);
    EXPECT_EQ(net.hops(0, 1), 1u);
    EXPECT_EQ(net.hops(0, 0b111111), 6u);
    EXPECT_EQ(net.hops(0b1010, 0b0101), 4u);
    EXPECT_EQ(net.hops(5, 5), 0u);
}

TEST(Network, ZeroLoadLatencyMatchesModel)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(6));
    // marshal(16) + h*pin(16) + (flits-1)*4 + unmarshal(16), in ns.
    // 8B -> 1 flit.
    EXPECT_EQ(net.zeroLoadLatency(0, 8), 32 * kNanosecond);
    EXPECT_EQ(net.zeroLoadLatency(3, 8), (32 + 48) * kNanosecond);
    // 72B -> 5 flits -> +16ns of body.
    EXPECT_EQ(net.zeroLoadLatency(2, 72), (32 + 32 + 16) * kNanosecond);
}

TEST(Network, DeliversAtZeroLoadLatency)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick delivered = kTickNever;
    net.send(0, 7, 8, [&]() { delivered = eq.now(); });
    eq.run();
    EXPECT_EQ(delivered, net.zeroLoadLatency(3, 8));
}

TEST(Network, LocalLoopbackChargesMarshalingOnly)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick delivered = kTickNever;
    net.send(4, 4, 8, [&]() { delivered = eq.now(); });
    eq.run();
    EXPECT_EQ(delivered, 32 * kNanosecond);
}

TEST(Network, PointToPointOrderPreserved)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    std::vector<int> order;
    // Big message first, tiny message second: the tiny one must not
    // overtake (coherence correctness depends on this).
    net.send(0, 5, 1024, [&]() { order.push_back(1); });
    net.send(0, 5, 8, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, ContentionSerializesSameLink)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick first = 0, second = 0;
    // Same source and destination: both messages traverse link (0,
    // dim 0) and must serialize there.
    net.send(0, 1, 1024, [&]() { first = eq.now(); });
    net.send(0, 1, 1024, [&]() { second = eq.now(); });
    eq.run();
    EXPECT_GT(second, first);
    // 1024B = 64 flits = 256ns serialization on the shared link.
    EXPECT_GE(second - first, 250 * kNanosecond);
}

TEST(Network, DisjointPathsDoNotInterfere)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick a = 0, b = 0;
    net.send(0, 1, 8, [&]() { a = eq.now(); });
    net.send(2, 3, 8, [&]() { b = eq.now(); });
    eq.run();
    EXPECT_EQ(a, b); // identical latency, no shared links
}

TEST(Network, StatsCountMessagesAndBytes)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    net.send(0, 1, 100, []() {});
    net.send(1, 2, 50, []() {});
    eq.run();
    EXPECT_DOUBLE_EQ(net.statistics().scalarValue("messages"), 2.0);
    EXPECT_DOUBLE_EQ(net.statistics().scalarValue("bytes"), 150.0);
}

TEST(Network, RejectsOutOfTopologySend)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(2));
    EXPECT_THROW(net.send(0, 9, 8, []() {}), PanicError);
    EXPECT_THROW(net.send(9, 0, 8, []() {}), PanicError);
}

TEST(Network, RejectsEmptyCallback)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(2));
    EXPECT_THROW(net.send(0, 1, 8, noc::Network::Deliver{}),
                 PanicError);
}

TEST(Network, RejectsBadDimension)
{
    EventQueue eq;
    noc::NetworkConfig c;
    c.dimension = 0;
    EXPECT_THROW(noc::Network(eq, c), FatalError);
    c.dimension = 17;
    EXPECT_THROW(noc::Network(eq, c), FatalError);
}

TEST(Network, ContentionCanBeDisabled)
{
    EventQueue eq;
    noc::NetworkConfig c = smallConfig(3);
    c.modelContention = false;
    noc::Network net(eq, c);
    Tick first = 0, second = 0;
    net.send(0, 1, 1024, [&]() { first = eq.now(); });
    net.send(0, 1, 1024, [&]() { second = eq.now(); });
    eq.run();
    // Without link reservation both arrive together (order still
    // preserved by the point-to-point clamp).
    EXPECT_EQ(first, second);
}

/**
 * Property: per (src, dst) pair, delivery order equals send order, no
 * matter how link contention and fault-injected link stalls reshape
 * the per-hop timing. The directory protocol's correctness rests on
 * exactly this (a forwarded intervention must not overtake the data
 * grant that precedes it), so it has to survive the ugliest timing the
 * model can produce, not just the zero-load case.
 */
TEST(Network, P2pOrderSurvivesContentionAndFaultStalls)
{
    struct StallHooks : FaultHooks
    {
        Tick
        linkStall(NodeId at, unsigned dim) override
        {
            // Deterministic but irregular: every fifth (router, dim)
            // combination stalls its outgoing link hard enough to let
            // later messages catch up on other paths.
            return ((at * 7 + dim * 13) % 5 == 0)
                       ? Tick{3 * kMicrosecond}
                       : Tick{0};
        }
    };

    EventQueue eq;
    StallHooks faults;
    Hooks hooks;
    hooks.faults = &faults;
    noc::Network net(eq, smallConfig(4), "noc", &hooks);
    const unsigned n = net.config().nodes();

    // Seeded LCG: the schedule is random-looking but reproducible.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    const auto next = [&]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>(lcg >> 33);
    };

    using Pair = std::pair<NodeId, NodeId>;
    std::map<Pair, std::uint64_t> sent;
    std::map<Pair, std::vector<std::uint64_t>> delivered;
    for (int i = 0; i < 400; ++i) {
        const NodeId src = next() % n;
        const NodeId dst = next() % n;
        // Mix single-flit control with multi-flit data so small
        // messages physically can catch up with large predecessors.
        const unsigned bytes = 8 + (next() % 5) * 64;
        const Tick at = (next() % 50) * kMicrosecond;
        // Stamp the sequence at *injection* (inside the event), since
        // send order is defined by simulated time, not by the order
        // this loop happens to build the schedule in.
        eq.schedule(at, [&net, &sent, &delivered, src, dst, bytes]() {
            const std::uint64_t seq = sent[{src, dst}]++;
            net.send(src, dst, bytes, [&delivered, src, dst, seq]() {
                delivered[{src, dst}].push_back(seq);
            });
        });
    }
    eq.run();

    std::size_t total = 0;
    for (const auto& [pair, seqs] : delivered) {
        total += seqs.size();
        for (std::size_t i = 1; i < seqs.size(); ++i) {
            EXPECT_EQ(seqs[i], seqs[i - 1] + 1)
                << "pair (" << pair.first << ", " << pair.second
                << ") delivered out of send order";
        }
    }
    EXPECT_EQ(total, 400u); // nothing dropped, nothing duplicated
}

/**
 * Stalls the first hop it sees and no other, so with link contention
 * off a later message overtakes an earlier one on the same pair and
 * has to wait in the out-of-order stash.
 */
struct FirstHopStall : FaultHooks
{
    bool fired = false;

    Tick
    linkStall(NodeId, unsigned) override
    {
        if (fired)
            return 0;
        fired = true;
        return 3 * kMicrosecond;
    }
};

TEST(NetworkFlightPool, StashBurstReturnsEveryFlight)
{
    EventQueue eq;
    FirstHopStall faults;
    Hooks hooks;
    hooks.faults = &faults;
    noc::NetworkConfig c = smallConfig(3);
    c.modelContention = false;
    noc::Network net(eq, c, "noc", &hooks);
    std::vector<int> order;
    net.send(0, 5, 1024, [&]() { order.push_back(1); });
    net.send(0, 5, 8, [&]() { order.push_back(2); });
    EXPECT_EQ(net.liveFlights(), 2u);
    eq.run();

    // The small message overtook the stalled large one, so it arrived
    // first; send order held only because the stash kept it back, and
    // its tail was then clamped to its predecessor's.
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_GT(net.statistics().scalarValue("orderingStallTicks"), 0.0);
    EXPECT_EQ(net.liveFlights(), 0u);
    EXPECT_EQ(net.flightPoolSize(), 2u);
}

TEST(NetworkFlightPool, NeverGrowsPastPeakInFlight)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(4));
    const unsigned n = net.config().nodes();
    std::size_t sent = 0, delivered = 0, peak = 0;
    const auto send = [&](NodeId src, NodeId dst, unsigned bytes) {
        net.send(src, dst, bytes, [&]() { ++delivered; });
        ++sent;
        peak = std::max(peak, sent - delivered);
    };
    // Three bursts of n messages, each injected in one tick.
    for (int round = 0; round < 3; ++round) {
        eq.schedule(eq.now() + kMicrosecond, [&]() {
            for (NodeId s = 0; s < n; ++s)
                send(s, (s * 7 + 3) % n, 8 + 64 * (s % 3));
        });
        eq.run();
        EXPECT_EQ(net.liveFlights(), 0u);
    }
    EXPECT_EQ(peak, n);
    EXPECT_LE(net.flightPoolSize(), peak);

    // A chain that sends its successor from the delivery payload
    // reuses the slot the payload just left.
    noc::Network chain(eq, smallConfig(4));
    int hops = 0;
    std::function<void()> relay = [&]() {
        if (++hops < 50)
            chain.send(hops % n, (hops * 5) % n, 72, relay);
    };
    chain.send(0, 1, 72, relay);
    eq.run();
    EXPECT_EQ(hops, 50);
    EXPECT_EQ(chain.flightPoolSize(), 1u);
}

/** Counts destructions of the payload it was built for; a moved-from
 *  copy gives up the count. */
template <std::size_t Pad>
struct CountedPayload
{
    int* destroyed;
    bool owner = true;
    std::array<char, Pad> pad{};

    explicit CountedPayload(int* d) : destroyed(d) {}
    CountedPayload(CountedPayload&& o) noexcept
        : destroyed(o.destroyed), pad(o.pad)
    {
        o.owner = false;
    }
    CountedPayload(const CountedPayload&) = delete;
    ~CountedPayload()
    {
        if (owner)
            ++*destroyed;
    }
    void operator()() { ADD_FAILURE() << "payload must not run"; }
};

TEST(NetworkFlightPool, DestroyWithFlightsInFlightDestroysEachPayloadOnce)
{
    // Inline payloads and ones too wide for the slot (heap fallback),
    // caught mid-hop, waiting in the stash and awaiting delivery.
    static_assert(noc::Network::Deliver::fitsInline<CountedPayload<8>>());
    static_assert(
        !noc::Network::Deliver::fitsInline<CountedPayload<256>>());
    std::vector<int> small(4, 0), big(4, 0);
    {
        EventQueue eq;
        FirstHopStall faults;
        Hooks hooks;
        hooks.faults = &faults;
        noc::NetworkConfig c = smallConfig(4);
        c.modelContention = false;
        {
            noc::Network net(eq, c, "noc", &hooks);
            using Small = CountedPayload<8>;
            using Big = CountedPayload<256>;
            net.send(0, 7, 1024, Small(&small[0])); // stalled 3 us
            net.send(0, 7, 8, Small(&small[1]));    // overtakes: stash
            net.send(1, 14, 8, Big(&big[0]));       // four hops: in transit
            net.send(2, 13, 8, Big(&big[1]));
            net.send(6, 9, 8, Small(&small[2]));
            net.send(3, 0, 72, Small(&small[3]));   // delivery pending
            net.send(5, 2, 72, Big(&big[2]));
            net.send(8, 11, 72, Big(&big[3]));
            // Every trip is still short of its delivery event: the
            // earliest tail lands at 80 ns.
            eq.run(70 * kNanosecond);
            EXPECT_EQ(net.liveFlights(), 8u);
            for (int d : small)
                EXPECT_EQ(d, 0);
        }
        for (int d : small)
            EXPECT_EQ(d, 1);
        for (int d : big)
            EXPECT_EQ(d, 1);
    } // the queue dies holding only index closures
}

} // namespace
} // namespace tb
