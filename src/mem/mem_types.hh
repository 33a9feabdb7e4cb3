/**
 * @file
 * Shared definitions for the coherent memory hierarchy: line
 * geometry helpers, MESI line states, and the coherence message
 * vocabulary exchanged between cache controllers and directories.
 *
 * The protocol is a hub-and-spoke directory MESI along the lines of
 * DASH: every transaction is serialized at the line's home directory,
 * which queues requests while a line is busy, collects invalidation
 * acknowledgments, and forwards interventions to exclusive owners.
 * (DASH proper collects acks at the requester and forwards data
 * owner->requester; we centralize both at the home, which has the same
 * aggregate cost within one network traversal and is far simpler to
 * verify. See DESIGN.md section 6.)
 */

#ifndef TB_MEM_MEM_TYPES_HH_
#define TB_MEM_MEM_TYPES_HH_

#include <cstdint>
#include <functional>
#include <string>

#include "sim/types.hh"

namespace tb {
namespace mem {

/** Cache line size in bytes (Table 1). */
inline constexpr unsigned kLineBytes = 64;

/** Page size used by the placement policy. */
inline constexpr unsigned kPageBytes = 4096;

/** Align an address down to its line base. */
inline constexpr Addr
lineAddr(Addr a)
{
    return a & ~static_cast<Addr>(kLineBytes - 1);
}

/** Align an address down to its page base. */
inline constexpr Addr
pageAddr(Addr a)
{
    return a & ~static_cast<Addr>(kPageBytes - 1);
}

/** MESI stable states for a cached line. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive, ///< exclusive clean
    Modified,
};

/** True if the state permits silently satisfying a store. */
inline constexpr bool
writable(LineState s)
{
    return s == LineState::Exclusive || s == LineState::Modified;
}

/** True if the state holds valid data. */
inline constexpr bool
valid(LineState s)
{
    return s != LineState::Invalid;
}

/** Human-readable state name. */
const char* lineStateName(LineState s);

/** Coherence message types. */
enum class MsgType : std::uint8_t
{
    // requester -> home
    GetS,      ///< read miss: want a shared (or exclusive-clean) copy
    GetX,      ///< write miss: want an exclusive copy
    Upgrade,   ///< have Shared, want Modified (no data needed)
    PutM,      ///< dirty eviction / flush writeback
    AtomicRmw, ///< at-home-memory read-modify-write (barrier counters)

    // home -> remote caches
    FwdGetS,   ///< intervention: owner must supply data, go Shared
    FwdGetX,   ///< intervention: owner must supply data, go Invalid
    Inv,       ///< invalidate a shared copy

    // remote caches -> home
    OwnerData,  ///< intervention response carrying the dirty line
    OwnerStale, ///< intervention response: line was silently dropped
    OwnerHandled, ///< 3-hop mode: owner sent the data directly to the
                  ///< requester; this closes the home transaction
    InvAck,     ///< invalidation acknowledged

    // home -> requester (transaction completion)
    DataShared,    ///< fill, install Shared
    DataExclusive, ///< fill, install Exclusive (clean)
    DataModified,  ///< fill, install Modified (GetX grant)
    UpgradeAck,    ///< upgrade grant, install Modified in place
    RmwResult,     ///< atomic result (old value)
    WbAck,         ///< writeback accepted (or discarded as stale)
};

/** Human-readable message-type name. */
const char* msgTypeName(MsgType t);

/**
 * A fetch-op executed at the home memory (see Msg::rmwOp). Msg is
 * copied (the directory queues it by value, interventions re-send
 * it), so the op must be copyable, which the move-only
 * InlineFunction is not.
 */
// tblint-allow(TBL025): Msg is copyable, so its fetch-op must be too
using RmwOp = std::function<std::uint64_t(Tick)>;

/** One coherence message. Data never travels (a global value backend
 *  holds memory contents); only the size is charged to the network. */
struct Msg
{
    MsgType type = MsgType::GetS;
    Addr line = 0;
    NodeId src = kInvalidNode;
    /** For RmwResult: the pre-op value at the home memory. */
    std::uint64_t rmwOld = 0;
    /**
     * For GetX/Upgrade: the store's word address and value. The home
     * directory applies the store to the value backend at the grant —
     * the transaction's serialization point — so that later requests
     * on the line (e.g.\ a spinner's reload queued behind the flag
     * flip) are guaranteed to observe it.
     */
    Addr storeAddr = 0;
    std::uint64_t storeValue = 0;
    bool hasStore = false;
    /**
     * For FwdGetS/FwdGetX in three-hop forwarding mode: the original
     * requester the owner should reply to directly (kInvalidNode in
     * hub-and-spoke mode, where the owner replies to home).
     */
    NodeId requester = kInvalidNode;
    /** For OwnerHandled: did the owner retain a Shared copy? */
    bool ownerKept = false;
    /** For OwnerHandled: was the line dirty (home must write back)? */
    bool ownerWasDirty = false;

    /**
     * For AtomicRmw: the operation, executed exactly once at the home
     * directory at the transaction's serialization point, receiving
     * the home's current tick. Returns the pre-op value, which travels
     * back in RmwResult::rmwOld. The tick parameter lets fetch-op
     * users (the barriers) timestamp per-thread bookkeeping with the
     * serialization time itself — on a partitioned machine the home's
     * clock is the only one the op may legally read. Modeling note:
     * this stands in for a fetch-op executed at the home memory
     * controller (DESIGN.md section 6).
     */
    RmwOp rmwOp;

    /** Network payload size in bytes for this message type. */
    unsigned bytes() const;
};

/** Build a control message (no store payload, no fetch-op). */
inline Msg
makeMsg(MsgType type, Addr line, NodeId src, std::uint64_t rmw_old = 0)
{
    Msg m;
    m.type = type;
    m.line = line;
    m.src = src;
    m.rmwOld = rmw_old;
    return m;
}

/** Receiver of coherence messages (cache controller or directory). */
class MsgSink
{
  public:
    virtual ~MsgSink() = default;

    /** Deliver one message; called by the fabric at arrival time. */
    virtual void receive(const Msg& msg) = 0;
};

/** Control-message size on the network. */
inline constexpr unsigned kCtrlBytes = 8;
/** Data-message size on the network (line + header). */
inline constexpr unsigned kDataBytes = kLineBytes + kCtrlBytes;

/**
 * Protocol debug trace: when enabled for a line, controllers and
 * directories log every message touching it to stderr. Development
 * aid; off by default.
 */
void setProtocolTraceLine(Addr line);
/** Disable protocol tracing. */
void clearProtocolTrace();
/** True if @p line is being traced. */
bool protocolTraced(Addr line);

} // namespace mem
} // namespace tb

#endif // TB_MEM_MEM_TYPES_HH_
