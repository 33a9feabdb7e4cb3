/**
 * @file
 * Lease-based work queue of campaign sweep points.
 *
 * The daemon's bookkeeping core, kept free of sockets and clocks so
 * every failure path is unit-testable: all methods take the current
 * wall-clock milliseconds as a parameter (the daemon samples a
 * monotonic clock; tests pass literals).
 *
 * Lifecycle of a point:
 *
 *   Pending --lease--> Leased --complete--> Done
 *      ^                  |
 *      |     expire / worker death / point error
 *      +------------------+  (attempt budget left: backoff, retry)
 *                         |
 *                         +--> Failed (budget exhausted)
 *
 * Robustness properties:
 *  - a lease carries a sim-independent deadline; an expired lease
 *    returns the point to the queue with its retry budget decremented
 *    and a deterministic exponential backoff (the supervisor's
 *    backoffDelayMs, so distributed retries pace exactly like local
 *    ones);
 *  - duplicate completions (a re-leased point whose original worker
 *    was slow, not dead) are resolved idempotently: a duplicate whose
 *    config key and checksum match the recorded result is benign and
 *    counted, a mismatch is a determinism violation surfaced as a
 *    protocol error;
 *  - every transition is attributable to a worker id, so the daemon
 *    can write an exact crash ledger.
 */

#ifndef TB_SVC_WORK_QUEUE_HH_
#define TB_SVC_WORK_QUEUE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign_supervisor.hh"

namespace tb {
namespace svc {

/** Retry/lease policy of one queue. */
struct QueuePolicy
{
    unsigned maxAttempts = 1;          ///< attempts per point
    std::uint64_t backoffBaseMs = 100; ///< doubles per attempt
    std::uint64_t backoffCapMs = 10000;
    std::uint64_t leaseMs = 0;         ///< per-lease deadline; 0 = none
    std::uint64_t seed = 1;            ///< backoff jitter seed
};

/** Why a lease came back to the queue (ledger vocabulary). */
enum class LeaseLoss
{
    Expired,         ///< lease deadline passed without a result
    Disconnect,      ///< worker socket died (EOF/EPIPE)
    HeartbeatLost,   ///< socket open but heartbeats stopped
    ProtocolError,   ///< worker sent garbage; connection dropped
    WorkerError,     ///< worker reported a point failure
};

const char* leaseLossName(LeaseLoss loss);

/** Outcome of offering a completion to the queue. */
enum class CompleteOutcome
{
    Accepted,          ///< first completion; result recorded
    DuplicateMatch,    ///< point already done, same key+checksum
    DuplicateMismatch, ///< point done with a *different* result
    Rejected,          ///< unknown point / already failed
};

/** One granted lease. */
struct LeaseGrant
{
    bool granted = false;
    std::size_t point = 0;
    unsigned attempt = 0;        ///< 1-based attempt number
    std::uint64_t retryAfterMs = 0; ///< when !granted: hint to re-ask
};

/** Work-queue of a fixed point space. */
class WorkQueue
{
  public:
    WorkQueue(std::size_t count, const QueuePolicy& policy);

    /**
     * Resolve point @p i without work (result-store hit). @p key and
     * @p checksum record the replayed artifact's identity so a late
     * duplicate submission from a reconnecting worker is classified
     * DuplicateMatch, not a determinism violation.
     */
    void resolveStored(std::size_t i, harness::PointOutcome how,
                       std::uint64_t key, std::uint64_t checksum);

    /**
     * Try to lease the lowest eligible point to @p worker. When
     * nothing is eligible, retryAfterMs hints how long the worker
     * should wait: the nearest backoff expiry, or a default poll
     * interval when everything is leased out.
     */
    LeaseGrant lease(std::uint64_t worker, std::uint64_t nowMs);

    /**
     * Offer a completion for @p point from @p worker. @p checksum is
     * the FNV-1a of the artifact; @p key the point's config hash.
     * Duplicate completions are resolved against the recorded
     * (key, checksum) pair.
     */
    CompleteOutcome complete(std::size_t point, std::uint64_t worker,
                             std::uint64_t key,
                             std::uint64_t checksum);

    /**
     * Return @p point to the queue after a lost lease or a reported
     * failure. Consumes one attempt; with budget left the point is
     * re-eligible after its deterministic backoff, otherwise it is
     * Failed with @p outcome and @p message recorded.
     */
    void fail(std::size_t point, LeaseLoss loss,
              harness::PointOutcome outcome,
              const std::string& message, std::uint64_t nowMs);

    /** Points currently leased by @p worker (crash handling). */
    std::vector<std::size_t> leasedBy(std::uint64_t worker) const;

    /** Leases whose deadline has passed at @p nowMs. */
    std::vector<std::size_t> expired(std::uint64_t nowMs) const;

    /** Record a heartbeat for @p point (refreshes nothing by itself;
     *  heartbeat liveness is per-connection in the daemon, but the
     *  queue validates the worker still holds the lease). */
    bool heartbeat(std::size_t point, std::uint64_t worker) const;

    /** All points Done or Failed. */
    bool allResolved() const { return unresolved_ == 0; }

    /**
     * Millisecond timestamp of the next interesting queue event
     * (earliest backoff expiry or lease deadline), or UINT64_MAX —
     * the daemon bounds its poll timeout with this.
     */
    std::uint64_t nextEventMs() const;

    /** Fill a supervisor-shaped report (outcome per point). */
    void fillReport(harness::SupervisorReport* report) const;

    std::size_t size() const { return points_.size(); }
    std::uint64_t retries() const { return retries_; }

    /** Per-point bookkeeping (exposed for the daemon/tests). */
    struct Point
    {
        enum class State { Pending, Leased, Done, Failed };
        State state = State::Pending;
        unsigned attempts = 0; ///< attempts started
        std::uint64_t leasedTo = 0;
        std::uint64_t leaseDeadlineMs = 0; ///< 0 = no deadline
        std::uint64_t notBeforeMs = 0;     ///< backoff gate
        std::uint64_t key = 0;             ///< config hash (on Done)
        std::uint64_t checksum = 0;        ///< artifact FNV (on Done)
        harness::PointOutcome outcome = harness::PointOutcome::NotRun;
        std::string message;
    };

    const Point& point(std::size_t i) const { return points_.at(i); }

  private:
    QueuePolicy policy_;
    std::vector<Point> points_;
    std::size_t unresolved_ = 0;
    std::uint64_t retries_ = 0;
};

} // namespace svc
} // namespace tb

#endif // TB_SVC_WORK_QUEUE_HH_
