#include "mem/dram.hh"

#include <utility>

namespace tb {
namespace mem {

Dram::Dram(EventQueue& queue, const DramConfig& config, std::string name,
           const Hooks* hooks)
    : SimObject(queue, std::move(name)), cfg(config), hooks_(hooks)
{}

Tick
Dram::reserveBus(Tick earliest)
{
    Tick start = std::max(earliest, busFreeAt);
    if (start > earliest) {
        hot.busStallTicks +=
            static_cast<double>(start - earliest);
    }
    busFreeAt = start + cfg.busTransfer;
    return busFreeAt;
}

void
Dram::read(Continuation done)
{
    hot.reads.inc();
    const Tick data_ready = curTick() + cfg.accessLatency;
    const Tick finish = reserveBus(data_ready);
    eq.schedule(finish, std::move(done));
}

void
Dram::write()
{
    hot.writes.inc();
    reserveBus(curTick());
}

} // namespace mem
} // namespace tb
