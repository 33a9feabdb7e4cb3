/**
 * @file
 * Hypercube wormhole interconnect model (Table 1 of the paper).
 *
 * The modeled machine connects 2^k nodes in a k-cube with pipelined
 * 250 MHz routers, 16 ns pin-to-pin latency per hop, and 16 ns of
 * (un)marshaling at each endpoint. Routing is deterministic
 * dimension-order (e-cube), so paths are unique and deadlock-free.
 *
 * Wormhole timing approximation for a message of B bytes over h hops:
 *
 *   marshal(16 ns)
 *   + per hop: wait for the output link, then header pin-to-pin (16 ns)
 *   + (flits - 1) * flit cycle  (body pipelines behind the header)
 *   + unmarshal(16 ns)
 *
 * Each directed link is reserved for the message's serialization time,
 * which is how contention appears (subsequent messages on the same link
 * queue behind it, like blocked worms holding the channel).
 *
 * Routing is *hop-granular*: injection schedules an event at the
 * message's first router, and every hop is its own event on the queue
 * owning that router — it charges fault/contention stalls against its
 * outgoing link, reserves it, and schedules the next hop (or the
 * destination arrival). The old implementation walked the whole route
 * eagerly at send time, reserving every link of the path in one go;
 * that reads the far end's link state at the *send* tick, which is
 * both physically wrong for wormhole contention (a worm cannot reserve
 * a link it has not reached) and impossible to partition, since the
 * route crosses queue ownership boundaries. With per-hop events, every
 * piece of mutable state has exactly one owning cluster:
 *
 *   linkFreeAt[link]        — the cluster of the router the link leaves
 *   nextPairSeq[src*n+dst]  — src's cluster (stamped at injection)
 *   expectedSeq / pairLast /
 *   out-of-order stash      — dst's cluster (checked at arrival)
 *   flight pools            — one per cluster; a flight moves to the
 *                             next cluster's pool when it crosses
 *   stat shards             — one per cluster, folded on demand
 *
 * so a partitioned machine (harness/machine.hh) can run node clusters
 * on different PDES partitions and the only cross-cluster traffic is
 * the hop events themselves, which always lie >= pinToPin in the
 * future — the engine's conservative lookahead.
 */

#ifndef TB_NOC_NETWORK_HH_
#define TB_NOC_NETWORK_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/hooks.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tb {
namespace noc {

/** Static configuration of the interconnect. */
struct NetworkConfig
{
    /** Hypercube dimension; node count is 2^dimension. */
    unsigned dimension = 6;
    /** Header latency across one hop (pin-to-pin), in ticks. */
    Tick pinToPin = 16 * kNanosecond;
    /** Marshaling cost at each endpoint (applied twice), in ticks. */
    Tick marshal = 16 * kNanosecond;
    /** Router clock period (250 MHz => 4 ns), in ticks. */
    Tick routerPeriod = 4 * kNanosecond;
    /** Bytes moved per router cycle per link (flit width). */
    unsigned flitBytes = 16;
    /** Model per-link contention (disable for latency-only studies). */
    bool modelContention = true;

    /** Number of nodes (2^dimension). */
    unsigned nodes() const { return 1u << dimension; }

    /**
     * Minimum latency of any cross-node message: marshal + one
     * pin-to-pin hop + unmarshal, with zero contention and a
     * single-flit payload. Nothing a node sends can affect another
     * node sooner, which makes this the machine's natural
     * conservative lookahead for per-node PDES partitioning
     * (sim/pdes.hh, docs/PERFORMANCE.md).
     */
    Tick minCrossNodeLatency() const { return marshal + pinToPin + marshal; }
};

/**
 * How the machine's nodes map onto event queues. The machine always
 * installs one of these (a serial machine maps every node to the one
 * queue of cluster 0); a standalone Network without a binding behaves
 * as a single cluster on its own queue. crossSchedule is only set
 * while a PDES engine is driving the queues — it routes an event onto
 * another cluster's queue through the engine's partition channels,
 * which is the only legal way to touch a foreign queue mid-run.
 */
struct PartitionBinding
{
    /** Queue that owns each node's events. */
    std::vector<EventQueue*> nodeQueue;
    /** Cluster (= partition id) of each node. */
    std::vector<std::uint16_t> nodeCluster;
    /** Number of clusters; stat shards are folded in this order. */
    unsigned clusters = 1;
    /**
     * Schedule @p fn at @p when on @p dstCluster's queue from
     * @p srcCluster's worker. Null outside an engine-driven run.
     */
    std::function<void(unsigned srcCluster, unsigned dstCluster,
                       Tick when, EventQueue::Callback fn)>
        crossSchedule;
};

/**
 * The interconnection network.
 *
 * Endpoints register a delivery handler; senders hand the network a
 * completion closure that runs, at the destination's side, when the
 * last flit arrives. Payloads live in the closure, which keeps this
 * module independent of the coherence-protocol message types.
 */
class Network : public SimObject
{
  public:
    /**
     * Widest payload closure stored inline in a flight's pool slot.
     * Sized for mem::Fabric's coherence delivery, which carries a
     * whole mem::Msg; wider closures fall back to one heap
     * allocation per message.
     */
    static constexpr std::size_t kPayloadBytes = 128;

    /** Callback invoked at the destination when a message arrives. */
    using Deliver = detail::InlineClosure<kPayloadBytes>;

    /**
     * @param hooks machine-wide instrumentation seams (fault
     *        injection, tracing, delivery audit); may be null for
     *        standalone use. Fields are read at use time, so the
     *        machine can attach instruments after construction.
     */
    Network(EventQueue& queue, const NetworkConfig& config,
            std::string name = "noc", const Hooks* hooks = nullptr);

    /** Static configuration. */
    const NetworkConfig& config() const { return cfg; }

    /**
     * Inject a message of @p bytes from @p src to @p dst;
     * @p on_deliver runs on @p dst's queue when the last flit arrives.
     * src == dst is allowed (local loopback, charged marshal +
     * unmarshal only). Must be called from an event running on
     * @p src's queue. The payload is built straight into the flight's
     * pool slot. Protocol and runtime code must go through mem::Fabric
     * (tools/tblint rule TBL024) so every coherence message gets
     * observer/audit coverage; direct send() is for the network's own
     * tests and benchmarks.
     */
    template <typename F>
    void
    send(NodeId src, NodeId dst, unsigned bytes, F&& on_deliver)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, Deliver> ||
                      std::is_same_v<Fn, std::function<void()>>) {
            if (!on_deliver)
                panic("network send without delivery callback");
        }
        const std::uint32_t idx = openFlight(src, dst, bytes);
        poolOf(src).at(idx).fn.emplace(std::forward<F>(on_deliver));
        launch(src, idx);
    }

    /**
     * Map nodes onto event queues (see PartitionBinding). Must be
     * called before any traffic; pass nullptr to revert to the
     * standalone single-cluster default.
     */
    void bindPartitions(const PartitionBinding* binding);

    /** Hamming distance — number of hops between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /**
     * Contention-free latency of a @p bytes message over @p n_hops
     * hops. This is an exact lower bound of per-hop delivery: the
     * per-hop path adds only non-negative stalls to it, and the
     * protocol checker audits every delivery against it
     * (NocDeliveryAudit).
     */
    Tick zeroLoadLatency(unsigned n_hops, unsigned bytes) const;

    /**
     * Aggregate statistics for this network. Folds the per-cluster
     * shards first; only call when the queues are quiescent.
     */
    const stats::StatGroup& statistics() const;

    /** Messages injected but not yet delivered (all clusters). */
    std::size_t liveFlights() const;

    /**
     * Flight slots ever created (all clusters). Slots are recycled
     * LIFO and a new one is made only when every existing slot is in
     * flight, so this is the peak number of messages in flight.
     */
    std::size_t flightPoolSize() const;

  private:
    /**
     * One message in flight. It lives in the flight pool of the
     * cluster whose queue runs its current hop and is addressed by
     * slot index, so hop and arrival events are 16-byte closures that
     * the event queue stores inline. The pool owns the payload until
     * delivery, when the payload is moved out and the slot recycled
     * before it runs; destroying the network destroys the payload of
     * every undelivered flight exactly once. A hop that crosses to
     * another cluster moves the flight out of its pool and into the
     * destination cluster's pool when the hop event runs there, so no
     * pool is ever touched by two host threads.
     */
    struct Flight
    {
        NodeId src = 0;
        NodeId dst = 0;
        unsigned bytes = 0;
        /** Send-order stamp within the (src, dst) pair. */
        std::uint64_t seq = 0;
        /** Injection tick (for latency stats and the audit). */
        Tick t0 = 0;
        Deliver fn;
    };

    /** One cluster's flights, recycled through a LIFO free list. */
    class FlightPool
    {
      public:
        Flight& at(std::uint32_t idx) { return slots[idx]; }

        /** A free slot (its payload is empty). */
        std::uint32_t acquire();

        /** Return @p idx, whose payload must already be empty. */
        void release(std::uint32_t idx) { freeList.push_back(idx); }

        /** Move flight @p idx out and free its slot. */
        Flight take(std::uint32_t idx);

        /** Store @p f in a free slot; returns the slot. */
        std::uint32_t adopt(Flight&& f);

        std::size_t live() const { return slots.size() - freeList.size(); }
        std::size_t size() const { return slots.size(); }

      private:
        std::vector<Flight> slots;
        std::vector<std::uint32_t> freeList;
    };

    /**
     * A message that arrived before its (src, dst) predecessors. The
     * flight stays in the destination cluster's pool at @p idx.
     */
    struct Stash
    {
        std::uint64_t seq;
        Tick tail;
        std::uint32_t pair;
        std::uint32_t idx;
    };

    /**
     * Event closure running @p Event(at, idx): 16 bytes, so the event
     * queue stores it inline.
     */
    template <void (Network::*Event)(NodeId, std::uint32_t)>
    struct Step
    {
        Network* net;
        std::uint32_t idx;
        NodeId at;
        void operator()() const { (net->*Event)(at, idx); }
    };

    /**
     * Per-cluster statistics shard. Hop events write the shard of the
     * cluster they run on; foldStats() drains every shard into
     * statsGroup in cluster order, so the published stats are
     * identical for any partitioning of the same traffic.
     */
    struct Shard
    {
        double messages = 0;
        double bytes = 0;
        double linkStallTicks = 0;
        double orderingStallTicks = 0;
        double faultLinkStallTicks = 0;
        double faultDelayTicks = 0;
        stats::Distribution latency;
        stats::Distribution hops;
    };

    /** Validate, stamp and count a new flight in @p src's pool; the
     *  caller fills in the payload. Returns its slot. */
    std::uint32_t openFlight(NodeId src, NodeId dst, unsigned bytes);

    /** Schedule flight @p idx's first event (marshaling done). */
    void launch(NodeId src, std::uint32_t idx);

    /** One hop: charge the outgoing link at @p at, forward. */
    void hopEvent(NodeId at, std::uint32_t idx);

    /** Last flit of flight @p idx reached its destination @p at. */
    void arrivalEvent(NodeId at, std::uint32_t idx);

    /** In-order delivery: clamp against the pair's last delivery,
     *  record stats, then schedule the payload at the tail. */
    void deliverInOrder(NodeId at, std::uint32_t idx, Tick tail);

    /** Run flight @p idx's payload and recycle its slot. */
    void deliverEvent(NodeId at, std::uint32_t idx);

    /** Schedule flight @p idx's next hop (or, if @p last, its
     *  arrival) at @p when on @p to's queue. @p from is the node whose
     *  queue the caller is running on; a cross-cluster hop goes
     *  through the engine channel. */
    void forward(NodeId from, NodeId to, Tick when, std::uint32_t idx,
                 bool last);

    /** Drain all per-cluster shards into statsGroup. */
    void foldStats() const;

    EventQueue& queueOf(NodeId n) const;
    unsigned clusterOf(NodeId n) const;
    Shard& shardOf(NodeId n) const;
    FlightPool& poolOf(NodeId n) { return pools[clusterOf(n)]; }

    /** Number of router cycles needed to serialize @p bytes. */
    unsigned flits(unsigned bytes) const;

    /** Index of the directed link leaving @p node along @p dim. */
    std::size_t linkIndex(NodeId node, unsigned dim) const;

    std::size_t
    pairIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * cfg.nodes() + dst;
    }

    NetworkConfig cfg;
    const Hooks* hooks;
    const PartitionBinding* parts = nullptr;
    /** Earliest tick each directed link is free again. Owned by the
     *  cluster of the router the link leaves. */
    std::vector<Tick> linkFreeAt;
    /** Next send-order stamp per (src, dst) pair. Owned by src's
     *  cluster: stamped at injection, before the first hop departs. */
    std::vector<std::uint64_t> nextPairSeq;
    /** Next expected arrival stamp per (src, dst) pair. Owned by
     *  dst's cluster. */
    std::vector<std::uint64_t> expectedSeq;
    /**
     * Last delivery tick per (src, dst) pair. Messages between the
     * same endpoints are delivered in send order (single-virtual-
     * channel wormhole networks preserve point-to-point ordering; the
     * directory protocol relies on it: a forwarded intervention must
     * not overtake the data grant that precedes it). Owned by dst's
     * cluster.
     */
    std::vector<Tick> pairLastDelivery;
    /** Flight pools, one per cluster. */
    std::vector<FlightPool> pools;
    /**
     * Early arrivals waiting for their (src, dst) predecessors, one
     * flat list per destination cluster (so each entry is owned by
     * dst's cluster). A small message can physically catch up with a
     * large predecessor on the shared tail (its last-hop body drains
     * faster), so the clamp alone is not enough — delivery order must
     * be restored explicitly. Entries are few and short-lived; they
     * are looked up by (pair, seq), so their order in the list never
     * matters.
     */
    std::vector<std::vector<Stash>> oooStash;
    mutable std::vector<Shard> shards;
    mutable stats::StatGroup statsGroup;
};

} // namespace noc
} // namespace tb

#endif // TB_NOC_NETWORK_HH_
