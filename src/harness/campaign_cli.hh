/**
 * @file
 * Shared command line of the supervised campaign benches.
 *
 * Every campaign binary (figure5_energy, figure6_time,
 * robustness_faults, robustness_seeds) accepts the same supervisor
 * surface, parsed strictly — a malformed value prints a usage error
 * and exits 2, never a silent fallback; numbers are plain decimal
 * (parseU64) and every *-ms option is capped at kMaxOptionMs (one
 * week):
 *
 *   --jobs N          shard points over N worker threads
 *   --sim-threads N   PDES worker threads inside each simulation
 *                     (byte-identical results at any N; default 1)
 *   --sim-partitions P cluster partitions per simulation (selects the
 *                     simulation plan, so it IS part of each point's
 *                     identity; default 1 = serial)
 *   --deadline-ms N   per-point wall-clock deadline (0 = none)
 *   --retries N       extra attempts per failed point
 *   --backoff-ms N    base of the exponential retry backoff
 *   --isolate         fork each point (crash containment)
 *   --journal DIR     store every completed point in the result
 *                     store DIR (created if missing; fatal when
 *                     unusable)
 *   --resume          skip points already in the --journal store
 *   --out FILE        atomically write the final artifact to FILE
 *   --manifest FILE   atomically write the failure manifest to FILE
 *   --only-point I    run just point I inline (repro mode)
 *   --quick           CI-sized subset (benches that support it)
 *   --cache DIR       shared result store, always read (best
 *                     effort: an unusable DIR runs uncached)
 *
 * plus the observability surface (docs/OBSERVABILITY.md):
 *
 *   --trace FILE[:categories]   write a Chrome trace_event JSON file
 *                               (categories: sim,mem,noc,thrifty; all
 *                               by default)
 *   --stats-json FILE           write per-point machine stats and the
 *                               barrier-episode ledger as JSONL
 */

#ifndef TB_HARNESS_CAMPAIGN_CLI_HH_
#define TB_HARNESS_CAMPAIGN_CLI_HH_

#include <cstdint>
#include <string>

#include "harness/campaign_supervisor.hh"
#include "obs/trace.hh"

namespace tb {
namespace harness {

/**
 * Strict decimal parse of one whole number in [0, @p max]: ASCII
 * digits only — no sign, no base prefix (`010` is ten, `0x10` is an
 * error), no surrounding space. Every integer option of thrifty_sim
 * and the campaign binaries goes through it, each bounded by the type
 * it lands in. On failure returns false with a diagnostic in @p err
 * and leaves @p out alone.
 */
bool parseU64(const char* text, std::uint64_t max, std::uint64_t* out,
              std::string* err);

/**
 * Ceiling of every millisecond campaign option (--deadline-ms,
 * --backoff-ms): one week. Anything larger would overflow the
 * deadline arithmetic (std::chrono::milliseconds, now + deadline)
 * instead of meaning "forever", so it is a usage error.
 */
constexpr std::uint64_t kMaxOptionMs = 7ull * 24 * 60 * 60 * 1000;

/** Parsed campaign command line. */
struct CampaignOptions
{
    SupervisorPolicy policy;
    /**
     * PDES worker threads per simulation (--sim-threads,
     * harness/parallel_sim.hh). Like --jobs it never changes results,
     * so it is excluded from point keys (and so from the result
     * stores) and from reproFlags().
     */
    unsigned simThreads = 1;
    /**
     * Cluster partitions per simulation (--sim-partitions,
     * RunOptions::simPartitions); 0 = the default plan, which is
     * serial. Unlike simThreads this selects the simulation *plan* and
     * can change results, so point keys carry the resolved count
     * (resolvedSimPartitions: the default and an explicit 1 share a
     * key) and reproFlags() carries an explicit count.
     */
    unsigned simPartitions = 0;
    std::string journalPath; ///< --journal store; "" = none
    bool resume = false;
    std::string outPath;      ///< "" = stdout only
    std::string manifestPath; ///< "" = stderr only
    long onlyPoint = -1;      ///< >= 0: run one point and exit
    bool quick = false;
    std::string tracePath;    ///< "" = no trace capture
    /** Category mask for --trace (defaults to every category). */
    unsigned traceMask = obs::kAllTraceCategories;
    std::string statsJsonPath; ///< "" = no stats JSONL
    std::string cacheDir;      ///< --cache store; "" = none

    /**
     * Parse @p argv strictly. Unknown options, malformed or
     * out-of-range numbers, `--quick` when @p allowQuick is false,
     * and `--resume` without `--journal` all print a usage error and
     * exit 2.
     */
    static CampaignOptions parse(int argc, char** argv,
                                 bool allowQuick);

    /**
     * The flags needed to reproduce this invocation's point space
     * in a repro command (currently `--quick` plus `--isolate`),
     * with a leading space when non-empty.
     */
    std::string reproFlags() const;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_CLI_HH_
