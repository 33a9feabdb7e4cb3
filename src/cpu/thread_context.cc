#include "cpu/thread_context.hh"

#include <utility>

namespace tb {
namespace cpu {

ThreadContext::ThreadContext(EventQueue& queue, ThreadId tid, Cpu& cpu,
                             mem::CacheController& controller,
                             std::string name)
    : SimObject(queue, std::move(name)),
      threadId(tid),
      theCpu(cpu),
      ctrl(controller)
{}

void
ThreadContext::compute(Tick duration, Continuation cont)
{
    eq.scheduleIn(duration, std::move(cont));
}

void
ThreadContext::load(Addr a, ValueContinuation cont)
{
    ctrl.load(a, std::move(cont));
}

void
ThreadContext::store(Addr a, std::uint64_t v, Continuation cont)
{
    ctrl.store(a, v, std::move(cont));
}

void
ThreadContext::atomic(Addr a, mem::RmwOp op, ValueContinuation cont)
{
    ctrl.atomicRmw(a, std::move(op), std::move(cont));
}

} // namespace cpu
} // namespace tb
