/**
 * @file
 * Bridge from the campaign binaries to the distributed service: one
 * entry point that executes a campaign's point space under whichever
 * mode the command line selected — the local CampaignSupervisor
 * (default), the work-queue daemon (--serve), or a worker process
 * (--worker) — with the result stores (--journal, --cache) fronting
 * both local and served execution.
 *
 * The contract that makes `--distributed` a thin client: for the same
 * point space and flags, runCampaignPoints returns the same results
 * vector whatever the mode, so the caller renders a byte-identical
 * artifact from a serial run, a 3-worker run, and a run where a
 * worker was SIGKILLed halfway through.
 */

#ifndef TB_SVC_DISTRIBUTED_HH_
#define TB_SVC_DISTRIBUTED_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/campaign_supervisor.hh"
#include "svc/result_cache.hh"

namespace tb {
namespace svc {

/**
 * Attempt floor for served campaigns. The local supervisor defaults
 * to one attempt per point because a local crash is usually the
 * simulation's own fault; a daemon's whole reason to exist is
 * surviving *worker* loss (SIGKILL, OOM, network drop), which at one
 * attempt would sink the campaign on the first dead socket. A served
 * queue therefore never runs with fewer attempts than this;
 * --retries beyond the floor still wins.
 */
constexpr unsigned kServedMinAttempts = 3;

/** Outcome of a campaign execution in any mode. */
struct CampaignRun
{
    harness::SupervisorReport report;
    std::vector<std::string> results; ///< artifacts by point index
    std::string serviceSummary; ///< `"kind": "service"` line ("" local)
    std::string ledgerJsonl;    ///< crash-ledger manifest lines
    /** Store accounting (CampaignStores::stats); zeros without
     *  --journal and --cache. */
    CacheStats cache;
};

/**
 * Execute @p count points of @p task under the mode selected by
 * @p opts (local supervisor, or daemon when opts.serveAddr is set).
 * Points resolve from the result stores first (CampaignStores): the
 * `--journal` store — @p journal, or when null the store at
 * opts.journalPath, where an unusable path is fatal — and the
 * `--cache` store at opts.cacheDir, which degrades to uncached. A
 * served `--resume` is a daemon restart: CampaignService ledgers it.
 * Must not be called in worker mode — dispatch to runCampaignWorker
 * first.
 */
CampaignRun runCampaignPoints(const harness::CampaignOptions& opts,
                              std::size_t count,
                              const harness::PointTask& task,
                              ResultCache* journal,
                              const std::string& campaignName);

/**
 * Worker mode: serve @p task points to the daemon at opts.workerAddr
 * until it reports the campaign done. Returns the process exit code
 * (0 clean, 1 on handshake/connection failure).
 */
int runCampaignWorker(const harness::CampaignOptions& opts,
                      std::size_t count,
                      const harness::PointTask& task);

} // namespace svc
} // namespace tb

#endif // TB_SVC_DISTRIBUTED_HH_
