/**
 * @file
 * Shared command line of the supervised campaign benches.
 *
 * Every campaign binary (figure5_energy, figure6_time,
 * robustness_faults, robustness_seeds) accepts the same supervisor
 * surface, parsed strictly — a malformed value prints a usage error
 * and exits 2, never a silent fallback:
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
 *   --journal FILE    append completed points to FILE (JSONL)
 *   --resume          skip points already in the journal
 *   --out FILE        atomically write the final artifact to FILE
 *   --manifest FILE   atomically write the failure manifest to FILE
 *   --only-point I    run just point I inline (repro mode)
 *   --quick           CI-sized subset (benches that support it)
 *
 * plus the distributed surface (docs/ROBUSTNESS.md, "Distributed
 * campaigns"):
 *
 *   --serve ADDR      run as the campaign daemon on unix:PATH or
 *                     tcp:HOST:PORT; points execute on workers
 *   --worker ADDR     run as a worker of the daemon at ADDR
 *   --cache DIR       content-addressed result cache directory
 *   --lease-ms N      per-lease deadline on the daemon (default 60000)
 *   --heartbeat-ms N  worker heartbeat interval (default 1000)
 *   --worker-name S   announced worker identity (default pid@host)
 *   --net-faults SPEC deterministic network fault injection on this
 *                     worker's socket (requires --worker; grammar in
 *                     docs/ROBUSTNESS.md, "Network fault injection")
 *   --reconnect-ms N  budget for transparent reconnection after
 *                     losing the daemon socket (default 5000)
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

#include <string>

#include "harness/campaign_supervisor.hh"
#include "obs/trace.hh"

namespace tb {
namespace harness {

/** Parsed campaign command line. */
struct CampaignOptions
{
    SupervisorPolicy policy;
    /**
     * PDES worker threads per simulation (--sim-threads,
     * harness/parallel_sim.hh). Like --jobs it never changes results,
     * so it is excluded from config hashes, journals, caches and
     * reproFlags().
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
    std::string journalPath; ///< "" = no journal
    bool resume = false;
    std::string outPath;      ///< "" = stdout only
    std::string manifestPath; ///< "" = stderr only
    long onlyPoint = -1;      ///< >= 0: run one point and exit
    bool quick = false;
    std::string tracePath;    ///< "" = no trace capture
    /** Category mask for --trace (defaults to every category). */
    unsigned traceMask = obs::kAllTraceCategories;
    std::string statsJsonPath; ///< "" = no stats JSONL
    std::string serveAddr;     ///< "" = not a daemon
    std::string workerAddr;    ///< "" = not a worker
    std::string cacheDir;      ///< "" = no result cache
    std::uint64_t leaseMs = 60000;
    std::uint64_t heartbeatMs = 1000;
    std::string workerName;    ///< "" = pid@host
    /**
     * Raw --net-faults spec, parsed at the point of use (the harness
     * layer cannot depend on svc's NetFaultSpec); "" = clean
     * transport. Only valid with --worker.
     */
    std::string netFaultsSpec;
    /** Worker reconnect budget after daemon loss (--reconnect-ms). */
    std::uint64_t reconnectMs = 5000;

    /** Any distributed role selected (--serve / --worker). */
    bool distributed() const
    {
        return !serveAddr.empty() || !workerAddr.empty();
    }

    /**
     * Parse @p argv strictly. Unknown options, malformed numbers,
     * `--quick` when @p allowQuick is false, and `--resume` without
     * `--journal` all print a usage error and exit 2.
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
