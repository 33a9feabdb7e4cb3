/**
 * @file
 * Per-node main-memory (DRAM) timing model.
 *
 * Table 1: interleaved main memory with a 60 ns row-miss access and a
 * 250 MHz, 16 B-wide split-transaction memory bus. Interleaving means
 * the array access latencies of concurrent requests overlap; only the
 * bus transfer serializes. A 64 B line occupies the bus for 4 bus
 * cycles (16 ns).
 */

#ifndef TB_MEM_DRAM_HH_
#define TB_MEM_DRAM_HH_


#include "sim/hooks.hh"
#include "sim/inline_function.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tb {
namespace mem {

/** Timing configuration of one node's memory. */
struct DramConfig
{
    /** Array access (row miss) latency. */
    Tick accessLatency = 60 * kNanosecond;
    /** Bus occupancy to move one cache line (64 B over 16 B @250MHz). */
    Tick busTransfer = 16 * kNanosecond;
};

/** One node's DRAM + memory bus. */
class Dram : public SimObject
{
  public:
    Dram(EventQueue& queue, const DramConfig& config, std::string name,
         const Hooks* hooks = nullptr);

    /**
     * Perform a line read; @p done runs when the data is on its way
     * (array access + bus transfer, with bus contention).
     */
    void read(Continuation done);

    /**
     * Perform a line write (fire and forget): occupies the bus but
     * nobody waits for it.
     */
    void write();

    const stats::StatGroup& statistics() const { return statsGroup; }

  private:
    /** Reserve the bus at or after @p earliest; returns transfer end. */
    Tick reserveBus(Tick earliest);

    DramConfig cfg;
    /** Machine-wide instrumentation seams (may be null; DRAM has no
     *  active seams today, but takes the struct like every other
     *  component so future ones need no plumbing). */
    const Hooks* hooks_;
    Tick busFreeAt = 0;
    stats::StatGroup statsGroup;

    /** Cached references into statsGroup (resolved once; node-stable
     *  storage) so hot paths skip the name lookup. Declared after
     *  statsGroup. */
    struct HotStats
    {
        explicit HotStats(stats::StatGroup& g)
            : busStallTicks(g.scalar("busStallTicks")),
              reads(g.scalar("reads")),
              writes(g.scalar("writes"))
        {}

        stats::Scalar& busStallTicks;
        stats::Scalar& reads;
        stats::Scalar& writes;
    } hot{statsGroup};
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_DRAM_HH_
