/**
 * @file
 * The campaign work-queue daemon (docs/ROBUSTNESS.md, "Distributed
 * campaigns").
 *
 * CampaignService owns one campaign's point space and serves it to
 * workers over the TBF1 frame protocol: workers take *leases* on
 * points, heartbeat while simulating, and stream artifacts back.
 * Worker failure is the designed-for case, not the exception:
 *
 *  - a dead socket (SIGKILL, OOM, network drop) returns the worker's
 *    leases to the queue immediately;
 *  - a silent worker (socket open, heartbeats stopped) is declared
 *    dead after kHeartbeatMisses missed intervals;
 *  - a hung simulation is bounded by the sim-independent lease
 *    deadline (--deadline-ms);
 *  - every loss consumes one attempt of the point's retry budget and
 *    re-eligibility follows the supervisor's deterministic
 *    exponential backoff;
 *  - duplicate completions from slow-but-alive workers are resolved
 *    idempotently against the recorded config-hash + FNV-1a
 *    checksum pair;
 *  - every observed failure is recorded in the per-worker crash
 *    ledger, which lands in the campaign's failure manifest.
 *
 * In front of the queue sit the result stores (CampaignStores: the
 * `--journal` and `--cache` stores): points resolved from them are
 * never leased, so a warm-cache re-run performs zero simulations.
 * The stores are the daemon's only persistent state. A daemon
 * restarted with `--resume` resolves what they hold and leases every
 * other point afresh, attempt budget and all; lease and attempt
 * history lives only in the crash ledger of the run that saw it.
 *
 * The daemon is single-threaded: one poll() loop multiplexes the
 * listener and every worker connection, and frames demux through a
 * per-type handler table — the same registry-of-handlers idiom as
 * mp::MpEndpoint, with frame types in place of message tags.
 */

#ifndef TB_SVC_CAMPAIGND_HH_
#define TB_SVC_CAMPAIGND_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/campaign_supervisor.hh"
#include "svc/crash_ledger.hh"
#include "svc/frame.hh"
#include "svc/result_cache.hh"
#include "svc/work_queue.hh"

namespace tb {
namespace svc {

/** Missed heartbeat intervals after which a worker is declared dead. */
constexpr unsigned kHeartbeatMisses = 3;

/**
 * How long run() keeps answering after every point is resolved. It
 * exceeds the worker's 100 ms connect-retry step, so a worker whose
 * first connect raced the daemon's startup still hears Done.
 */
constexpr std::uint64_t kLingerMs = 250;

/** Knobs of one daemon instance. */
struct ServiceOptions
{
    std::string listen;              ///< unix:PATH or tcp:HOST:PORT
    std::string campaign = "svc";    ///< name used in summaries
    std::uint64_t heartbeatMs = 1000;
    QueuePolicy queue;
};

/** Daemon-side counters, emitted as a `"kind": "service"` line. */
struct ServiceStats
{
    std::uint64_t workersSeen = 0;
    std::uint64_t leases = 0;
    std::uint64_t leasesExpired = 0;
    std::uint64_t heartbeatTimeouts = 0;
    std::uint64_t disconnects = 0;       ///< with leases outstanding
    std::uint64_t protocolErrors = 0;
    std::uint64_t duplicates = 0;        ///< benign (matching) dups
    std::uint64_t duplicateMismatches = 0;
    std::uint64_t staleResults = 0;
    std::uint64_t resultsAccepted = 0;
    std::uint64_t cacheHits = 0; ///< points resolved from a store
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;

    std::string summaryJson(const std::string& campaign) const;
};

/** Canonical fingerprint of a point-key table (Hello handshake). */
std::uint64_t fingerprintKeys(const std::vector<std::uint64_t>& keys);

/** One campaign's daemon. */
class CampaignService
{
  public:
    /**
     * Serve the campaign whose point i has config hash @p keys[i]:
     * the stores resolve points before any worker connects, a
     * worker's Hello must match the table's fingerprint and every
     * result must carry its point's key.
     */
    CampaignService(ServiceOptions opts,
                    std::vector<std::uint64_t> keys);
    ~CampaignService();

    CampaignService(const CampaignService&) = delete;
    CampaignService& operator=(const CampaignService&) = delete;

    /**
     * Result stores to resolve points from and store completions
     * in; may be null. When they resume (`--resume`), the run is a
     * daemon restart, ledgered as one `daemon-restart` event once
     * the stored points are resolved.
     */
    void attachStores(CampaignStores* stores) { stores_ = stores; }

    /**
     * Serve every point until each is Done or Failed (or SIGINT),
     * then linger briefly answering late Hellos with Done, then close
     * and unlink the listener. Never throws for worker failures —
     * they are ledgered and retried. Throws FatalError only when the
     * listen address is unusable.
     */
    harness::SupervisorReport run();

    /** Artifacts by point index ("" for failed/not-run points). */
    const std::vector<std::string>& results() const
    {
        return results_;
    }

    const ServiceStats& stats() const { return stats_; }
    const CrashLedger& ledger() const { return ledger_; }

  private:
    struct Connection;

    void preResolveStored();
    std::uint64_t nowMs() const;
    void acceptConnections();
    void serviceConnection(Connection* conn);
    void dispatchFrame(Connection* conn, const Frame& frame);
    void closeConnection(Connection* conn, LeaseLoss loss,
                         const std::string& detail);
    void failLeases(Connection* conn, LeaseLoss loss,
                    const std::string& detail);
    void checkDeadlines();
    void broadcastDone();
    bool send(Connection* conn, FrameType type,
              const std::string& payload);

    // Frame handlers (the per-type demux table, mp_endpoint-style).
    void onHello(Connection* conn, const Frame& f);
    void onLeaseRequest(Connection* conn, const Frame& f);
    void onHeartbeat(Connection* conn, const Frame& f);
    void onResult(Connection* conn, const Frame& f);
    void onPointError(Connection* conn, const Frame& f);
    void onGoodbye(Connection* conn, const Frame& f);

    ServiceOptions opts_;
    CampaignStores* stores_ = nullptr;
    const std::vector<std::uint64_t> keys_;
    const std::uint64_t fingerprint_;

    int listenFd_ = -1;
    std::unique_ptr<WorkQueue> queue_;
    std::vector<std::string> results_;
    std::vector<std::unique_ptr<Connection>> conns_;
    std::map<FrameType,
             std::function<void(Connection*, const Frame&)>>
        handlers_;
    CrashLedger ledger_;
    ServiceStats stats_;
    std::uint64_t nextWorkerId_ = 1;
};

} // namespace svc
} // namespace tb

#endif // TB_SVC_CAMPAIGND_HH_
