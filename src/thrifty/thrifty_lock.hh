/**
 * @file
 * Thrifty lock — the paper's stated future work ("extending this
 * concept ... to other synchronization constructs, such as locks"),
 * implemented with the same ingredients as the thrifty barrier.
 *
 * A conventional test-and-test-and-set lock spins on the lock word;
 * under contention with long critical sections that spinning burns
 * energy exactly like barrier spinning does. The thrifty lock:
 *
 *  1. attempts the acquire with one fetch-op at the lock word's home
 *     (test-and-set);
 *  2. on failure, predicts its *wait time* with a per-lock last-value
 *     predictor (trained on this thread's previously observed waits,
 *     the lock analogue of the PC-indexed BIT table);
 *  3. if the predicted wait fits a sleep state's round trip, arms the
 *     flag monitor on the lock word (want == 0, i.e.\ "released") and
 *     sleeps — the releasing store's invalidation is the external
 *     wake-up; a timer provides the internal wake-up, hybrid-style;
 *  4. on wake it *retries* the fetch-op: lock handoff is racy (other
 *     waiters may win), so the loop re-decides spin-vs-sleep on every
 *     failed attempt. Mutual exclusion derives from the atomic
 *     fetch-op alone; the sleeping machinery only affects timing and
 *     energy.
 *
 * Unlike the barrier there is no release timestamp bookkeeping: wait
 * times are observed directly (failed attempt -> acquisition), so no
 * BRTS chain is needed. Fairness is that of the underlying
 * test-and-set lock (none guaranteed).
 */

#ifndef TB_THRIFTY_THRIFTY_LOCK_HH_
#define TB_THRIFTY_THRIFTY_LOCK_HH_

#include <string>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "power/sleep_states.hh"
#include "sim/inline_function.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace tb {
namespace thrifty {

/** Aggregate statistics for one lock. */
struct LockStats
{
    std::uint64_t acquisitions = 0;
    std::uint64_t immediateAcquires = 0; ///< free at first attempt
    std::uint64_t sleeps = 0;
    std::uint64_t spinWaits = 0;
    double waitTicks = 0.0; ///< total time between first attempt and
                            ///< acquisition
};

/** A mutual-exclusion lock with thrifty (sleep-on-wait) semantics. */
class ThriftyLock : public SimObject
{
  public:
    /**
     * @param queue       Simulation event queue.
     * @param num_threads Threads that may contend (for per-thread
     *                    predictor state).
     * @param memory      Memory system to allocate the lock word in.
     * @param states      Sleep states available to waiters; pass an
     *                    empty table for a conventional spin lock.
     */
    ThriftyLock(EventQueue& queue, unsigned num_threads,
                mem::MemorySystem& memory,
                power::SleepStateTable states, std::string name);

    /**
     * Acquire the lock for @p tc's thread; @p cont runs in the
     * critical section. Threads must not acquire recursively.
     */
    void acquire(cpu::ThreadContext& tc, Continuation cont);

    /** Release the lock (must be held by @p tc's thread). */
    void release(cpu::ThreadContext& tc, Continuation cont);

    /** True while some thread holds the lock (for tests). */
    bool held() const;

    /** Address of the lock word (tests inspect its cache state). */
    Addr lockAddress() const { return lockAddr; }

    const LockStats& statistics() const { return stats; }

  private:
    /** One acquisition attempt; retries until it wins. */
    void tryAcquire(cpu::ThreadContext& tc, ThreadId tid,
                    Continuation cont);

    /** Failed attempt: decide between spinning and sleeping. */
    void waitForRelease(cpu::ThreadContext& tc, ThreadId tid,
                        Continuation cont);

    mem::Backend& backend;
    power::SleepStateTable states;
    Addr lockAddr;

    /** Last observed wait per thread (the lock-wait predictor). */
    std::vector<Tick> lastWait;
    /** First failed-attempt tick of the in-flight wait per thread. */
    std::vector<Tick> waitStart;

    LockStats stats;
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_THRIFTY_LOCK_HH_
