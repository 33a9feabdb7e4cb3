/**
 * @file
 * Campaign supervisor: production-job-runner semantics for sweep
 * campaigns.
 *
 * Every campaign point is independent: it builds its own Machine from
 * its (config, seed), so points shard across --jobs worker threads
 * that claim indices from a shared counter, and results are deposited
 * by index so the artifact is byte-identical at any job count. Around
 * that execution model the supervisor adds the machinery a long
 * campaign needs:
 *
 *  - a per-point wall-clock **deadline** enforced by a watchdog, so a
 *    hung point is classified and the campaign moves on;
 *  - a **retry policy** (max attempts, exponential backoff with
 *    deterministic seed-derived jitter);
 *  - **continue-on-error** execution that classifies every point
 *    outcome (ok / exception / checker-violation / timeout / crash)
 *    into a failure manifest with a one-line repro command;
 *  - optional **crash isolation** (`--isolate`): each point forks into
 *    a child process, so a SIGSEGV/abort is recorded as a point
 *    failure instead of taking down the campaign;
 *  - **store hooks** (svc::CampaignStores behind attachCache): a
 *    point already in a result store is replayed instead of run, and
 *    every completed point is stored, so a resumed campaign's final
 *    artifact is byte-identical to an unbroken run.
 *
 * Points return their artifact as a string (deposited by index,
 * emitted in order by the caller) because that is the only result
 * shape that survives both the process boundary of --isolate and the
 * disk boundary of a result store.
 *
 * Caveats, by mode: without --isolate a timed-out point's thread is
 * *abandoned* (it cannot be killed portably) — the memory it may
 * still touch is kept alive by the supervisor, but a truly wedged
 * point still burns a core until process exit, and a crashing point
 * still kills the process. `--isolate` bounds both: the child is
 * SIGKILLed on deadline and dies alone on a crash.
 */

#ifndef TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
#define TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/posix_io.hh"
#include "sim/thread_safety.hh"

namespace tb {
namespace harness {

/** Classification of one supervised point. */
enum class PointOutcome
{
    Ok,               ///< point completed, result deposited
    Cached,           ///< skipped: artifact replayed from a result store
    Exception,        ///< threw (FatalError or other std::exception)
    CheckerViolation, ///< threw PanicError (protocol/liveness checker)
    Timeout,          ///< exceeded the per-point deadline
    Crash,            ///< child died on a signal / unknown exit (--isolate)
    NotRun,           ///< never attempted (campaign interrupted)
};

/** Short lower-case name ("ok", "timeout", ...) of @p o. */
const char* outcomeName(PointOutcome o);

/** Knobs of one supervised campaign. */
struct SupervisorPolicy
{
    /** Worker threads; 0 and 1 both mean "run inline". */
    unsigned jobs = 1;
    /** Attempts per point (1 = no retry). */
    unsigned maxAttempts = 1;
    /** First-retry backoff; doubles per attempt. 0 disables waiting. */
    std::uint64_t backoffBaseMs = 100;
    /** Upper bound on any single backoff delay. */
    std::uint64_t backoffCapMs = 10000;
    /** Per-point wall-clock deadline; 0 = none. */
    std::uint64_t deadlineMs = 0;
    /** Fork every point into a child process. */
    bool isolate = false;
    /** Seed for the deterministic backoff jitter. */
    std::uint64_t seed = 1;
};

/** What happened to one point (indexed like the campaign). */
struct PointRecord
{
    PointOutcome outcome = PointOutcome::NotRun;
    unsigned attempts = 0;    ///< attempts actually executed
    std::string message;      ///< failure diagnostic ("" when ok)
    std::string repro;        ///< one-line repro command ("" if none)
};

/** Aggregated result of a supervised campaign. */
struct SupervisorReport
{
    std::vector<PointRecord> points;
    std::uint64_t retries = 0; ///< attempts beyond each point's first
    bool interrupted = false;  ///< SIGINT stopped the campaign early

    /** Points with the given outcome. */
    std::size_t count(PointOutcome o) const;
    /** Failed points (exception/checker/timeout/crash). */
    std::size_t failures() const;
    /** No failures and not interrupted. */
    bool ok() const { return failures() == 0 && !interrupted; }

    /**
     * Failure manifest: one JSON line per non-ok point with its
     * outcome, attempt count, diagnostic and repro command, plus a
     * trailing line when the campaign was interrupted.
     */
    void writeManifest(std::ostream& os,
                       const std::string& campaign) const;

    /**
     * Supervisor counters as a single campaign-JSON line
     * (`"kind": "supervisor"`), the shape scripts/compare_bench.py
     * surfaces next to the benchmark metrics.
     */
    std::string summaryJson(const std::string& campaign) const;
};

/** The work and metadata of one campaign's points. */
struct PointTask
{
    /** Run point i, return its serialized artifact. Required. */
    std::function<std::string(std::size_t)> run;
    /**
     * Config hash of point i: everything that shapes its result
     * (sweep shape, flags, workload knobs, seed). It is the point's
     * only identity in a result store. Optional; see keyOf().
     */
    std::function<std::uint64_t(std::size_t)> key;
    /**
     * Workload seed of point i. Optional and read by nothing: stores
     * identify a point by its key alone. Kept so callers that set it
     * still compile.
     */
    std::function<std::uint64_t(std::size_t)> seed;
    /** One-line repro command for point i. Optional. */
    std::function<std::string(std::size_t)> repro;

    /** Key of point i: key(i), or a hash of the index when unset. */
    std::uint64_t keyOf(std::size_t i) const
    {
        return key ? key(i) : fnv1a64("point:" + std::to_string(i));
    }
};

/** Supervised executor for a fixed-size set of independent points. */
class CampaignSupervisor
{
  public:
    explicit CampaignSupervisor(SupervisorPolicy policy = {})
        : policy_(policy)
    {}
    ~CampaignSupervisor();

    CampaignSupervisor(const CampaignSupervisor&) = delete;
    CampaignSupervisor& operator=(const CampaignSupervisor&) = delete;

    /**
     * Result store hooks (svc::CampaignStores, passed as functions to
     * keep harness free of a svc dependency). A lookup hit classifies
     * the point Cached and skips the simulation. Successful points
     * are offered to @p store. Both run on the supervising thread of
     * the point (callers must supply thread-safe hooks when
     * jobs > 1).
     */
    void
    attachCache(
        std::function<bool(std::uint64_t, std::string*)> lookup,
        std::function<void(std::uint64_t, const std::string&)> store)
    {
        cacheLookup_ = std::move(lookup);
        cacheStore_ = std::move(store);
    }

    /**
     * Run all @p count points under the policy. Never throws for
     * point failures — every point is classified in the returned
     * report and successful results are available via results().
     */
    SupervisorReport run(std::size_t count, const PointTask& task);

    /** Artifacts of ok/cached points, by index ("" otherwise). */
    const std::vector<std::string>& results() const { return results_; }

    /**
     * Backoff before retry @p attempt (the one about to run, >= 2) of
     * point @p index: base << (attempt-2), capped, plus deterministic
     * jitter in [0, delay/2] derived from (policy.seed, index,
     * attempt). Pure function — tests assert exact sequences.
     */
    static std::uint64_t backoffDelayMs(const SupervisorPolicy& p,
                                        std::size_t index,
                                        unsigned attempt);

    /**
     * Install the campaign SIGINT handler: first ^C requests a stop
     * (workers finish their current attempt, completed points are
     * already in the stores, the caller emits the manifest), a second
     * ^C falls back to default handling.
     */
    static void installSigintHandler();

    /** Whether a stop was requested (SIGINT). */
    static bool interruptRequested();

    /** Reset the interrupt flag (tests). */
    static void clearInterruptForTest();

    /** Join abandoned timed-out attempt threads (tests only). */
    void joinAbandonedForTest();

    /** One attempt's classification (exposed for the executor fns). */
    struct Attempt
    {
        PointOutcome outcome = PointOutcome::Exception;
        std::string payload; ///< result (ok) or diagnostic
    };

  private:
    Attempt runAttemptInProcess(const PointTask& task, std::size_t i);
    Attempt runAttemptForked(const PointTask& task, std::size_t i);
    void supervisePoint(const PointTask& task, std::size_t i,
                        SupervisorReport* report);

    SupervisorPolicy policy_;
    std::function<bool(std::uint64_t, std::string*)> cacheLookup_;
    std::function<void(std::uint64_t, const std::string&)> cacheStore_;
    /// Sized before the workers start, then written without mu_:
    /// slot i (like the report's points[i]) belongs to the one worker
    /// that claimed index i.
    std::vector<std::string> results_;
    Mutex mu_;
    /// Timed-out attempt threads, kept alive until process exit.
    std::vector<std::thread> abandoned_ TB_GUARDED_BY(mu_);
    std::atomic<std::uint64_t> retries_{0};
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
