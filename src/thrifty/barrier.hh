/**
 * @file
 * Public barrier interface and synchronization instrumentation.
 *
 * A Barrier object models one *static* barrier in the program (one
 * call site / PC). Threads call arrive() and are continued past the
 * barrier when every participant has checked in. Conventional and
 * thrifty barriers implement the same interface and may coexist in
 * one program, mirroring the paper's drop-in-macro deployment story.
 */

#ifndef TB_THRIFTY_BARRIER_HH_
#define TB_THRIFTY_BARRIER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/thread_context.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "thrifty/bit_predictor.hh"

namespace tb {
namespace thrifty {

/** Per-departure trace record (drives Figure 3 and debugging). */
struct BarrierTraceEntry
{
    BarrierPc pc = 0;
    std::uint64_t instance = 0; ///< dynamic instance index of this PC
    ThreadId tid = 0;
    Tick bit = 0;     ///< interval time of this instance (published)
    Tick compute = 0; ///< thread's compute time within the interval
    Tick stall = 0;   ///< thread's barrier stall time (bit - compute)
};

/**
 * One completed sleep episode at a thrifty barrier: everything the
 * paper's prediction story turns on (predicted vs. actual BIT, chosen
 * sleep state, flush cost, which mechanism woke the thread and whether
 * the wake was early or late relative to the release). Recorded only
 * for arrivals that actually slept; exported via --stats-json
 * (docs/OBSERVABILITY.md).
 */
struct BarrierEpisode
{
    BarrierPc pc = 0;
    std::uint64_t instance = 0; ///< dynamic instance index of this PC
    ThreadId tid = 0;
    Tick predictedBit = 0; ///< predictor's BIT at sleep time
    Tick actualBit = 0;    ///< published BIT of this instance
    Tick sleepTick = 0;    ///< when the sleep was committed
    Tick wakeTick = 0;     ///< when the CPU was Active again
    Tick releaseTs = 0;    ///< thread-local release timestamp (BRTS')
    Tick flushTicks = 0;   ///< pre-sleep flush cost (0 if snoopable)
    Tick residualTicks = 0; ///< post-wake residual spin
    std::string sleepState; ///< chosen low-power state
    std::string wakeReason; ///< wake source (mem::wakeReasonName)

    /** Woke before the release (internal timer undershot). */
    bool earlyWake() const { return wakeTick < releaseTs; }

    /** Woke after the release (paid transition latency on the tail). */
    bool lateWake() const { return wakeTick > releaseTs; }
};

/** Aggregate synchronization statistics shared by an experiment. */
struct SyncStats
{
    /** Sum over (thread, instance) of time from arrival to release. */
    double totalStallTicks = 0.0;
    /** Dynamic barrier instances completed (all PCs). */
    std::uint64_t instances = 0;
    /** Thread arrivals processed. */
    std::uint64_t arrivals = 0;
    /** Sleep attempts that actually entered a low-power state. */
    std::uint64_t sleeps = 0;
    /** Arrivals that spun (no/insufficient prediction, cutoff, last). */
    std::uint64_t spins = 0;
    /** Times the overprediction cutoff disabled a (pc, thread). */
    std::uint64_t cutoffs = 0;
    /** BIT samples rejected by the underprediction filter. */
    std::uint64_t filteredUpdates = 0;
    /** Ticks spent in residual spin after a sleep's wake-up. */
    double residualSpinTicks = 0.0;
    /** Residual-spin episodes (== sleeps that had to verify the flag). */
    std::uint64_t residualSpins = 0;
    /** Safety-watchdog expirations that forced a wake-up. */
    std::uint64_t watchdogFires = 0;
    /** Residual spins whose budget expired (escalated to full spin). */
    std::uint64_t residualEscalations = 0;
    /** (thread, barrier) pairs placed in quarantine. */
    std::uint64_t quarantines = 0;
    /** Arrivals served by the conventional path due to quarantine. */
    std::uint64_t fallbackEpisodes = 0;

    /** Optional per-departure trace. */
    bool traceEnabled = false;
    std::vector<BarrierTraceEntry> trace;

    /** Optional per-sleep-episode ledger (--stats-json). */
    bool episodesEnabled = false;
    std::vector<BarrierEpisode> episodes;
};

/**
 * Per-thread sharding of one SyncStats sink.
 *
 * On a partitioned machine (harness/machine.hh) different threads'
 * barrier bookkeeping executes on different host threads, so they must
 * not bump one shared counter set. Each thread gets its own shard —
 * shard 0 aliases the experiment's target SyncStats — and merge()
 * folds the extras back after the run, in thread order, so the merged
 * totals are identical at any host thread count. A thread only ever
 * touches its own shard from its own execution context; merge() runs
 * after the queues are drained.
 */
class SyncLedger
{
  public:
    /** @param num_threads shard count; @p target shard 0 / merge sink. */
    SyncLedger(unsigned num_threads, SyncStats& target)
        : target_(target), extras_(num_threads ? num_threads - 1 : 0)
    {}

    /** Thread @p tid's shard (tid 0 gets the target itself). */
    SyncStats&
    shard(ThreadId tid)
    {
        if (tid == 0)
            return target_;
        SyncStats& s = extras_.at(tid - 1);
        // Recording options live on the target; mirror them so a
        // shard taken before or after the run sees the same switches.
        s.traceEnabled = target_.traceEnabled;
        s.episodesEnabled = target_.episodesEnabled;
        return s;
    }

    /** The merge sink (== shard 0). */
    SyncStats& target() { return target_; }

    /** Fold every extra shard into the target and clear it. */
    void
    merge()
    {
        for (SyncStats& s : extras_) {
            target_.totalStallTicks += s.totalStallTicks;
            target_.instances += s.instances;
            target_.arrivals += s.arrivals;
            target_.sleeps += s.sleeps;
            target_.spins += s.spins;
            target_.cutoffs += s.cutoffs;
            target_.filteredUpdates += s.filteredUpdates;
            target_.residualSpinTicks += s.residualSpinTicks;
            target_.residualSpins += s.residualSpins;
            target_.watchdogFires += s.watchdogFires;
            target_.residualEscalations += s.residualEscalations;
            target_.quarantines += s.quarantines;
            target_.fallbackEpisodes += s.fallbackEpisodes;
            for (BarrierTraceEntry& e : s.trace)
                target_.trace.push_back(e);
            for (BarrierEpisode& e : s.episodes)
                target_.episodes.push_back(std::move(e));
            s = SyncStats{};
        }
    }

  private:
    SyncStats& target_;
    std::vector<SyncStats> extras_;
};

/** Abstract barrier (one static call site). */
class Barrier
{
  public:
    virtual ~Barrier() = default;

    /**
     * Thread @p tc arrives at this barrier; @p cont runs when the
     * thread departs past it.
     */
    virtual void arrive(cpu::ThreadContext& tc,
                        Continuation cont) = 0;

    /** The static identifier (PC) of this barrier. */
    virtual BarrierPc pc() const = 0;

    /**
     * Fold per-thread stat shards into the experiment's SyncStats.
     * Must be called after the machine's queues are drained and before
     * the stats are read; a no-op for barriers that do not shard.
     */
    virtual void mergeStats() {}
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_BARRIER_HH_
