/**
 * @file
 * Event-driven model of a cache-coherent spinloop.
 *
 * A spinning thread loads the flag once (installing a shared copy),
 * then hits in its cache on every iteration; nothing observable
 * happens until the coherence protocol invalidates the line, at which
 * point the next "iteration" misses and fetches the fresh value. The
 * simulator therefore models the spin as: load -> (value mismatch) ->
 * watch the line -> on invalidation reload -> recheck. Timing and
 * traffic are identical to iterating the loop; the CPU accrues spin
 * power for the whole dwell through Cpu::beginSpin()/endSpin().
 */

#ifndef TB_THRIFTY_SPIN_WAIT_HH_
#define TB_THRIFTY_SPIN_WAIT_HH_

#include <cstdint>

#include "cpu/thread_context.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace tb {
namespace thrifty {

/**
 * Spin until the word at @p flag reads @p want, then continue.
 * Assumes the CPU is Active on entry; it is Active again when
 * @p cont runs.
 */
void spinOnFlag(cpu::ThreadContext& tc, Addr flag, std::uint64_t want,
                Continuation cont);

/**
 * Bounded variant for faulty machines (docs/ROBUSTNESS.md): spin on
 * @p flag like spinOnFlag, but give the cache-hit loop only @p budget
 * ticks of trust. If the budget expires without the flag flipping,
 * @p on_escalate runs once and the loop escalates to re-reading the
 * flag through the coherence protocol every @p recheck ticks — making
 * progress even if the invalidation that should end the quiet
 * cache-hit loop was lost. @p cont still runs exactly once, when the
 * flag finally reads @p want.
 */
void spinOnFlagBounded(EventQueue& eq, cpu::ThreadContext& tc, Addr flag,
                       std::uint64_t want, Tick budget, Tick recheck,
                       Continuation on_escalate, Continuation cont);

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_SPIN_WAIT_HH_
