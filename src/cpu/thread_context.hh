/**
 * @file
 * Software thread executing on one CPU.
 *
 * The simulator is timing-directed rather than instruction-driven: a
 * thread's program is a chain of continuations issuing compute
 * intervals, coherent memory accesses and barrier arrivals. Compute
 * intervals occupy the CPU at active power; memory accesses traverse
 * the real cache/directory/NoC models and stall the thread for their
 * true latency (memory stalls land in the Compute bucket, as in the
 * paper).
 */

#ifndef TB_CPU_THREAD_CONTEXT_HH_
#define TB_CPU_THREAD_CONTEXT_HH_

#include <string>

#include "cpu/cpu.hh"
#include "mem/cache_controller.hh"
#include "sim/inline_function.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace tb {
namespace cpu {

/** One software thread bound to one CPU (dedicated environment). */
class ThreadContext : public SimObject
{
  public:
    ThreadContext(EventQueue& queue, ThreadId tid, Cpu& cpu,
                  mem::CacheController& controller, std::string name);

    ThreadId tid() const { return threadId; }
    Cpu& cpu() { return theCpu; }
    mem::CacheController& controller() { return ctrl; }

    /** Busy-compute for @p duration ticks, then continue. */
    void compute(Tick duration, Continuation cont);

    /** Coherent load; @p cont receives the value. */
    void load(Addr a, ValueContinuation cont);

    /** Coherent store. */
    void store(Addr a, std::uint64_t v, Continuation cont);

    /**
     * Atomic fetch-op at @p a's home; @p op receives the home's tick
     * at the serialization point, @p cont gets the old value.
     */
    void atomic(Addr a, mem::RmwOp op, ValueContinuation cont);

    /**
     * Mark this thread finished; used by the run loop to detect
     * program completion.
     */
    void markDone() { done = true; }
    bool isDone() const { return done; }

  private:
    ThreadId threadId;
    Cpu& theCpu;
    mem::CacheController& ctrl;
    bool done = false;
};

} // namespace cpu
} // namespace tb

#endif // TB_CPU_THREAD_CONTEXT_HH_
