/**
 * @file
 * Bridge from the campaign binaries to the result stores: one entry
 * point that executes a campaign's point space on the local
 * CampaignSupervisor, with the `--journal` and `--cache` stores in
 * front of it.
 *
 * For the same point space and flags, runCampaignPoints returns the
 * same results vector whatever `--jobs` and however many points the
 * stores already held, so the caller renders a byte-identical
 * artifact from a serial run, a parallel run and a resumed one.
 */

#ifndef TB_SVC_DISTRIBUTED_HH_
#define TB_SVC_DISTRIBUTED_HH_

#include <string>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/campaign_supervisor.hh"
#include "svc/result_cache.hh"

namespace tb {
namespace svc {

/** Outcome of a campaign execution. */
struct CampaignRun
{
    harness::SupervisorReport report;
    std::vector<std::string> results; ///< artifacts by point index
    /** Store accounting (CampaignStores::stats); zeros without
     *  --journal and --cache. */
    CacheStats cache;
};

/**
 * Execute @p count points of @p task on a CampaignSupervisor under
 * opts.policy. Points resolve from the result stores first
 * (CampaignStores): the `--journal` store — @p journal, or when null
 * the store at opts.journalPath, where an unusable path is fatal —
 * and the `--cache` store at opts.cacheDir, which degrades to
 * uncached. @p campaignName labels the campaign for the caller; the
 * run itself does not depend on it.
 */
CampaignRun runCampaignPoints(const harness::CampaignOptions& opts,
                              std::size_t count,
                              const harness::PointTask& task,
                              ResultCache* journal,
                              const std::string& campaignName);

} // namespace svc
} // namespace tb

#endif // TB_SVC_DISTRIBUTED_HH_
