#include "svc/net_faults.hh"

#include <cerrno>

#include <sys/socket.h>

#include "fault/fault_spec.hh"
#include "harness/posix_io.hh"
#include "sim/logging.hh"

namespace tb {
namespace svc {

namespace {

constexpr const char* kWhat = "net-faults spec";

} // namespace

bool
NetFaultSpec::enabled() const
{
    return shortWrite > 0.0 || splitRead > 0.0 || delay > 0.0 ||
           disconnect > 0.0 || corrupt > 0.0;
}

std::string
NetFaultSpec::summary() const
{
    std::string out = "seed=" + std::to_string(seed);
    auto rate = [&](const char* key, double v) {
        if (v > 0.0)
            out += std::string(",") + key + "=" +
                   fault::spec::renderRate(v);
    };
    rate("short-write", shortWrite);
    rate("split-read", splitRead);
    if (delay > 0.0) {
        out += ",delay=" + fault::spec::renderRate(delay) + ":" +
               std::to_string(delayMs);
    }
    rate("disconnect", disconnect);
    rate("corrupt", corrupt);
    return out;
}

NetFaultSpec
NetFaultSpec::parse(const std::string& text)
{
    NetFaultSpec s;
    for (const fault::spec::Pair& p :
         fault::spec::splitPairs(kWhat, text)) {
        auto noArg = [&]() {
            if (!p.arg.empty())
                fatal(kWhat, ": ", p.key,
                      " does not take a :arg suffix");
        };
        if (p.key == "seed") {
            noArg();
            s.seed = fault::spec::parseCount(kWhat, p.key, p.value);
        } else if (p.key == "all") {
            noArg();
            const double v =
                fault::spec::parseRate(kWhat, p.key, p.value);
            s.shortWrite = s.splitRead = s.delay = v;
            s.disconnect = s.corrupt = v;
        } else if (p.key == "short-write") {
            noArg();
            s.shortWrite =
                fault::spec::parseRate(kWhat, p.key, p.value);
        } else if (p.key == "split-read") {
            noArg();
            s.splitRead =
                fault::spec::parseRate(kWhat, p.key, p.value);
        } else if (p.key == "delay") {
            s.delay = fault::spec::parseRate(kWhat, p.key, p.value);
            if (!p.arg.empty())
                s.delayMs =
                    fault::spec::parseCount(kWhat, p.key, p.arg);
        } else if (p.key == "disconnect") {
            noArg();
            s.disconnect =
                fault::spec::parseRate(kWhat, p.key, p.value);
        } else if (p.key == "corrupt") {
            noArg();
            s.corrupt = fault::spec::parseRate(kWhat, p.key, p.value);
        } else {
            fatal(kWhat, ": unknown key '", p.key,
                  "' (see docs/ROBUSTNESS.md for the grammar)");
        }
    }
    return s;
}

std::string
NetFaultCounters::summaryJson(const std::string& worker) const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"kind\": \"net-faults\", \"worker\": \"%s\", "
        "\"short_writes\": %llu, \"split_reads\": %llu, "
        "\"delays\": %llu, \"disconnects\": %llu, "
        "\"corruptions\": %llu, \"total\": %llu}\n",
        worker.c_str(),
        static_cast<unsigned long long>(shortWrites),
        static_cast<unsigned long long>(splitReads),
        static_cast<unsigned long long>(delays),
        static_cast<unsigned long long>(disconnects),
        static_cast<unsigned long long>(corruptions),
        static_cast<unsigned long long>(total()));
    return buf;
}

void
FaultyTransport::configure(const NetFaultSpec& spec,
                           const std::string& streamName)
{
    spec_ = spec;
    counters_ = NetFaultCounters{};
    // Salt the spec seed with the worker identity so every worker of
    // one chaos run draws a distinct — but reproducible — stream.
    rng_ = tb::Random(spec.seed * 0x9e3779b97f4a7c15ULL ^
                      harness::fnv1a64(streamName));
}

bool
FaultyTransport::sendFrame(int fd, FrameType type,
                           const std::string& payload)
{
    if (!spec_.enabled())
        return svc::sendFrame(fd, type, payload);

    if (spec_.delay > 0.0 && rng_.chance(spec_.delay)) {
        ++counters_.delays;
        harness::pollOne(-1, 0, static_cast<int>(spec_.delayMs));
    }

    std::string wire = encodeFrame(type, payload);

    if (spec_.corrupt > 0.0 && rng_.chance(spec_.corrupt)) {
        // Flip one bit anywhere in the wire frame. A header hit
        // poisons the daemon's FrameReader (close + ledger); a
        // payload hit is caught by the result checksum or the
        // malformed-payload path. FNV-1a cannot collide on a single
        // bit flip, so a corrupted artifact is never accepted.
        ++counters_.corruptions;
        const std::size_t at = rng_.uniformInt(wire.size());
        wire[at] = static_cast<char>(
            wire[at] ^ (1u << rng_.uniformInt(8)));
    }

    if (spec_.disconnect > 0.0 && rng_.chance(spec_.disconnect)) {
        // Dead peer mid-frame: ship a prefix, then slam the socket
        // shut in both directions. The injected errno routes callers
        // into the same reconnect path a daemon SIGKILL would.
        ++counters_.disconnects;
        const std::size_t cut = rng_.uniformInt(wire.size());
        if (cut > 0)
            harness::writeFull(fd, wire.data(), cut);
        ::shutdown(fd, SHUT_RDWR);
        errno = ECONNRESET;
        return false;
    }

    if (spec_.shortWrite > 0.0 && rng_.chance(spec_.shortWrite) &&
        wire.size() > 1) {
        // Tear the frame across two writes with a pause between so
        // the peer's incremental FrameReader observes a partial
        // frame and must wait for the rest.
        ++counters_.shortWrites;
        const std::size_t cut = 1 + rng_.uniformInt(wire.size() - 1);
        if (!harness::writeFull(fd, wire.data(), cut))
            return false;
        harness::pollOne(-1, 0, 1);
        return harness::writeFull(fd, wire.data() + cut,
                                  wire.size() - cut);
    }

    return harness::writeFull(fd, wire.data(), wire.size());
}

int
FaultyTransport::recvFrame(int fd, Frame* out, std::string* err)
{
    if (!spec_.enabled())
        return svc::recvFrame(fd, out, err);

    if (spec_.delay > 0.0 && rng_.chance(spec_.delay)) {
        ++counters_.delays;
        harness::pollOne(-1, 0, static_cast<int>(spec_.delayMs));
    }

    if (!(spec_.splitRead > 0.0 && rng_.chance(spec_.splitRead)))
        return svc::recvFrame(fd, out, err);

    // Fragmented receive: pull the header in two pieces, then the
    // payload in two pieces, reassembling exactly the way a TCP
    // segment boundary would force a peer to.
    ++counters_.splitReads;
    char header[kFrameHeaderSize];
    const std::size_t first =
        1 + rng_.uniformInt(kFrameHeaderSize - 1);
    ssize_t r = harness::readFull(fd, header, first);
    if (r == 0)
        return 0;
    if (r < 0 ||
        harness::readFull(fd, header + first,
                          kFrameHeaderSize - first) !=
            static_cast<ssize_t>(kFrameHeaderSize - first)) {
        *err = errno ? errnoMessage(errno)
                     : "connection closed mid-frame";
        return -1;
    }
    std::uint32_t length = 0;
    if (!parseFrameHeader(header, &out->type, &length, err))
        return -1;
    out->payload.resize(length);
    if (length > 0) {
        const std::size_t cut =
            length > 1 ? 1 + rng_.uniformInt(length - 1) : length;
        if (harness::readFull(fd, out->payload.data(), cut) !=
                static_cast<ssize_t>(cut) ||
            (cut < length &&
             harness::readFull(fd, out->payload.data() + cut,
                               length - cut) !=
                 static_cast<ssize_t>(length - cut))) {
            *err = errno ? errnoMessage(errno)
                         : "connection closed mid-frame";
            return -1;
        }
    }
    return 1;
}

} // namespace svc
} // namespace tb
