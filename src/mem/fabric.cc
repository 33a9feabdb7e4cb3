#include "mem/fabric.hh"

#include <utility>

#include "sim/logging.hh"

namespace tb {
namespace mem {

Fabric::Fabric(noc::Network& network, AddressMap& address_map,
               const Hooks* hooks)
    : net(network), map(address_map), hooks_(hooks)
{
    controllers.assign(net.config().nodes(), nullptr);
    directories.assign(net.config().nodes(), nullptr);
}

void
Fabric::registerController(NodeId node, MsgSink& sink)
{
    if (node >= controllers.size())
        fatal("controller registration outside topology: ", node);
    controllers[node] = &sink;
}

void
Fabric::registerDirectory(NodeId node, MsgSink& sink)
{
    if (node >= directories.size())
        fatal("directory registration outside topology: ", node);
    directories[node] = &sink;
}

void
Fabric::toDirectory(NodeId from, Msg msg)
{
    const NodeId dst = map.home(msg.line);
    MsgSink* sink = directories.at(dst);
    if (!sink)
        panic("no directory registered at node ", dst);
    if (auto* ob = observer())
        ob->onMessageSent(from, dst, msg, true);
    const unsigned bytes = msg.bytes();
    auto deliver = [this, dst, sink, m = std::move(msg)]() {
        if (auto* ob = observer())
            ob->onMessageDelivered(dst, m, true);
        sink->receive(m);
    };
    static_assert(
        noc::Network::Deliver::fitsInline<decltype(deliver)>(),
        "a coherence delivery must fit the flight's payload slot");
    // Everything above the fabric must come through these wrappers.
    // tblint-allow(TBL024): the fabric IS the sanctioned send wrapper
    net.send(from, dst, bytes, std::move(deliver));
}

void
Fabric::sendControl(NodeId from, NodeId to, unsigned bytes,
                    noc::Network::Deliver fn)
{
    // tblint-allow(TBL024): sanctioned wrapper (see toDirectory).
    net.send(from, to, bytes, std::move(fn));
}

Tick
Fabric::minMessageLatency() const
{
    return net.config().minCrossNodeLatency();
}

void
Fabric::toController(NodeId from, NodeId dst, Msg msg)
{
    MsgSink* sink = controllers.at(dst);
    if (!sink)
        panic("no controller registered at node ", dst);
    if (auto* ob = observer())
        ob->onMessageSent(from, dst, msg, false);
    const unsigned bytes = msg.bytes();
    auto deliver = [this, dst, sink, m = std::move(msg)]() {
        if (auto* ob = observer())
            ob->onMessageDelivered(dst, m, false);
        sink->receive(m);
    };
    static_assert(
        noc::Network::Deliver::fitsInline<decltype(deliver)>(),
        "a coherence delivery must fit the flight's payload slot");
    // tblint-allow(TBL024): sanctioned wrapper (see toDirectory).
    net.send(from, dst, bytes, std::move(deliver));
}

} // namespace mem
} // namespace tb
