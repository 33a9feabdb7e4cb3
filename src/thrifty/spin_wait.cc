#include "thrifty/spin_wait.hh"

#include <algorithm>
#include <memory>
#include <utility>

namespace tb {
namespace thrifty {

namespace {

/** Self-rescheduling spin step shared through a small control block. */
struct SpinLoop : std::enable_shared_from_this<SpinLoop>
{
    cpu::ThreadContext& tc;
    Addr flag;
    std::uint64_t want;
    Continuation cont;

    SpinLoop(cpu::ThreadContext& t, Addr f, std::uint64_t w,
             Continuation c)
        : tc(t), flag(f), want(w), cont(std::move(c))
    {}

    void
    step()
    {
        auto self = shared_from_this();
        tc.load(flag, [self](std::uint64_t v) {
            if (v == self->want) {
                self->tc.cpu().endSpin();
                self->cont();
                return;
            }
            // Cache hit loop until the protocol yanks the line.
            self->tc.controller().watchLine(self->flag,
                                            [self]() { self->step(); });
        });
    }
};

/**
 * Bounded spin step. The quiet cache-hit loop is only trusted until
 * `deadline`; past it every wait is a short `recheck` period followed
 * by a fresh coherent load, so progress no longer depends on an
 * invalidation arriving. `gen` stamps the armed watch + timeout pair:
 * whichever fires first bumps it, turning the loser into a no-op.
 */
struct BoundedSpin : std::enable_shared_from_this<BoundedSpin>
{
    EventQueue& eq;
    cpu::ThreadContext& tc;
    Addr flag;
    std::uint64_t want;
    Tick deadline;
    Tick recheck;
    Continuation onEscalate;
    Continuation cont;

    bool escalated = false;
    std::uint64_t gen = 0;
    EventHandle timeout;

    BoundedSpin(EventQueue& q, cpu::ThreadContext& t, Addr f,
                std::uint64_t w, Tick dl, Tick rc,
                Continuation esc, Continuation c)
        : eq(q), tc(t), flag(f), want(w), deadline(dl), recheck(rc),
          onEscalate(std::move(esc)), cont(std::move(c))
    {}

    void
    step()
    {
        auto self = shared_from_this();
        tc.load(flag, [self](std::uint64_t v) {
            if (v == self->want) {
                self->finish();
                return;
            }
            self->arm();
        });
    }

    void
    arm()
    {
        auto self = shared_from_this();
        const std::uint64_t g = ++gen;
        tc.controller().watchLine(flag, [self, g]() {
            if (g != self->gen)
                return;
            self->timeout.cancel();
            self->step();
        });
        const Tick when =
            std::max(escalated ? eq.now() + recheck : deadline,
                     eq.now());
        timeout = eq.schedule(when, [self, g]() {
            if (g != self->gen)
                return;
            self->expire();
        });
    }

    void
    expire()
    {
        ++gen; // orphan the armed watch before clearing it
        // Each node runs one thread, so the only watch on this line at
        // this controller is ours.
        tc.controller().clearWatches(flag);
        if (!escalated) {
            escalated = true;
            if (onEscalate)
                onEscalate();
        }
        step();
    }

    void
    finish()
    {
        ++gen;
        timeout.cancel();
        tc.cpu().endSpin();
        cont();
    }
};

} // namespace

void
spinOnFlag(cpu::ThreadContext& tc, Addr flag, std::uint64_t want,
           Continuation cont)
{
    tc.cpu().beginSpin();
    auto loop =
        std::make_shared<SpinLoop>(tc, flag, want, std::move(cont));
    loop->step();
}

void
spinOnFlagBounded(EventQueue& eq, cpu::ThreadContext& tc, Addr flag,
                  std::uint64_t want, Tick budget, Tick recheck,
                  Continuation on_escalate, Continuation cont)
{
    tc.cpu().beginSpin();
    auto loop = std::make_shared<BoundedSpin>(
        eq, tc, flag, want, eq.now() + budget, recheck,
        std::move(on_escalate), std::move(cont));
    loop->step();
}

} // namespace thrifty
} // namespace tb
