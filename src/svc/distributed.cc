#include "svc/distributed.hh"

#include <memory>

#include "sim/thread_safety.hh"

namespace tb {
namespace svc {

CampaignRun
runCampaignPoints(const harness::CampaignOptions& opts,
                  std::size_t count, const harness::PointTask& task,
                  ResultCache* journal,
                  const std::string& /*campaignName*/)
{
    ResultCache ownJournal;
    if (!journal && !opts.journalPath.empty()) {
        ownJournal.open(opts.journalPath, /*required=*/true);
        journal = &ownJournal;
    }
    ResultCache cache;
    if (!opts.cacheDir.empty())
        cache.open(opts.cacheDir); // warns and stays inactive on failure
    CampaignStores stores(journal, opts.resume, &cache);

    harness::CampaignSupervisor supervisor(opts.policy);
    if (stores.any()) {
        // The supervisor may run points on several threads; the
        // stores are single-threaded, so the hooks serialize on a
        // mutex shared by both closures.
        auto mu = std::make_shared<Mutex>();
        supervisor.attachCache(
            [&stores, mu](std::uint64_t key, std::string* out) {
                LockGuard lock(*mu);
                return stores.lookup(key, out);
            },
            [&stores, mu](std::uint64_t key, const std::string& r) {
                LockGuard lock(*mu);
                stores.store(key, r);
            });
    }
    CampaignRun run;
    run.report = supervisor.run(count, task);
    run.results = supervisor.results();
    run.cache = stores.stats();
    return run;
}

} // namespace svc
} // namespace tb
