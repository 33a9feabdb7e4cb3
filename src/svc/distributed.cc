#include "svc/distributed.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "sim/logging.hh"
#include "sim/thread_safety.hh"
#include "svc/campaignd.hh"
#include "svc/worker.hh"

namespace tb {
namespace svc {

namespace {

std::vector<std::uint64_t>
pointKeys(const harness::PointTask& task, std::size_t count)
{
    std::vector<std::uint64_t> keys(count);
    for (std::size_t i = 0; i < count; ++i)
        keys[i] = task.keyOf(i);
    return keys;
}

CampaignRun
runLocal(const harness::CampaignOptions& opts, std::size_t count,
         const harness::PointTask& task, CampaignStores* stores)
{
    harness::CampaignSupervisor supervisor(opts.policy);
    if (stores->any()) {
        // The supervisor may run points on several threads; the
        // stores are single-threaded, so the hooks serialize on a
        // mutex shared by both closures.
        auto mu = std::make_shared<Mutex>();
        supervisor.attachCache(
            [stores, mu](std::uint64_t key, std::string* out) {
                LockGuard lock(*mu);
                return stores->lookup(key, out);
            },
            [stores, mu](std::uint64_t key, const std::string& r) {
                LockGuard lock(*mu);
                stores->store(key, r);
            });
    }
    CampaignRun run;
    run.report = supervisor.run(count, task);
    run.results = supervisor.results();
    return run;
}

CampaignRun
runServed(const harness::CampaignOptions& opts, std::size_t count,
          const harness::PointTask& task, CampaignStores* stores,
          const std::string& campaignName)
{
    ServiceOptions so;
    so.listen = opts.serveAddr;
    so.campaign = campaignName;
    so.heartbeatMs = opts.heartbeatMs;
    so.queue.maxAttempts =
        std::max(opts.policy.maxAttempts, kServedMinAttempts);
    so.queue.backoffBaseMs = opts.policy.backoffBaseMs;
    so.queue.backoffCapMs = opts.policy.backoffCapMs;
    so.queue.leaseMs = opts.leaseMs;
    so.queue.seed = opts.policy.seed;

    CampaignService service(so, pointKeys(task, count));
    service.attachStores(stores);

    CampaignRun run;
    run.report = service.run();
    run.results = service.results();
    run.serviceSummary = service.stats().summaryJson(campaignName);
    if (!service.ledger().empty()) {
        std::ostringstream os;
        service.ledger().writeJsonl(os, campaignName);
        run.ledgerJsonl = os.str();
    }
    // A served campaign leaves no repro commands behind (the daemon
    // never ran the point itself); synthesize them like the local
    // supervisor so the failure manifest stays actionable.
    if (task.repro) {
        for (std::size_t i = 0; i < count; ++i) {
            harness::PointRecord& r = run.report.points[i];
            if (r.outcome != harness::PointOutcome::Ok &&
                r.outcome != harness::PointOutcome::Cached)
                r.repro = task.repro(i);
        }
    }
    return run;
}

} // namespace

CampaignRun
runCampaignPoints(const harness::CampaignOptions& opts,
                  std::size_t count, const harness::PointTask& task,
                  ResultCache* journal,
                  const std::string& campaignName)
{
    if (!opts.workerAddr.empty())
        panic("runCampaignPoints called in worker mode; dispatch to "
              "runCampaignWorker first");

    ResultCache ownJournal;
    if (!journal && !opts.journalPath.empty()) {
        ownJournal.open(opts.journalPath, /*required=*/true);
        journal = &ownJournal;
    }
    ResultCache cache;
    if (!opts.cacheDir.empty())
        cache.open(opts.cacheDir); // warns and stays inactive on failure
    CampaignStores stores(journal, opts.resume, &cache);

    CampaignRun run =
        opts.serveAddr.empty()
            ? runLocal(opts, count, task, &stores)
            : runServed(opts, count, task, &stores, campaignName);
    run.cache = stores.stats();
    return run;
}

int
runCampaignWorker(const harness::CampaignOptions& opts,
                  std::size_t count, const harness::PointTask& task)
{
    WorkerOptions wo;
    wo.connect = opts.workerAddr;
    wo.name = opts.workerName;
    wo.count = count;
    wo.keys = pointKeys(task, count);
    wo.reconnectWaitMs = opts.reconnectMs;
    if (!opts.netFaultsSpec.empty()) {
        // The spec is CLI input but only svc understands the grammar
        // (the harness layer cannot depend on svc), so a bad value is
        // caught here and treated as the usage error it is.
        try {
            wo.netFaults = NetFaultSpec::parse(opts.netFaultsSpec);
        } catch (const FatalError& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    CampaignWorker worker(wo);
    std::string err;
    const bool ok = worker.run(task.run, &err);
    if (wo.netFaults.enabled()) {
        // Chaos evidence: prove the faults actually fired (the smoke
        // test greps this line) and make a zero-fault run visibly
        // vacuous.
        const std::string line =
            worker.faultCounters().summaryJson(worker.name());
        std::fprintf(stderr, "%s", line.c_str());
    }
    if (!ok) {
        std::fprintf(stderr, "campaign worker: %s\n", err.c_str());
        return 1;
    }
    return 0;
}

} // namespace svc
} // namespace tb
