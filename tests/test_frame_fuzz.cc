/**
 * @file
 * TBF1 protocol fuzzing (docs/ROBUSTNESS.md, "Network fault
 * injection"): thousands of deterministically mutated frames —
 * truncated, oversized, desynchronized, bit-flipped, version-bumped —
 * driven through FrameReader and PayloadReader, plus an in-process
 * daemon serving a real campaign while raw fuzz clients hammer its
 * handler table. The invariant everywhere: poison-and-ledger, never
 * crash, never hang, and the healthy campaign still completes
 * byte-identically.
 */

#include "svc/frame.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/campaign_supervisor.hh"
#include "harness/posix_io.hh"
#include "sim/random.hh"
#include "svc/campaignd.hh"
#include "svc/net.hh"
#include "svc/worker.hh"

namespace tb {
namespace {

using harness::fnv1a64;
using svc::Frame;
using svc::FrameReader;
using svc::FrameType;
using svc::PayloadReader;

std::string
randomPayload(tb::Random& rng)
{
    std::string p;
    const int fields = static_cast<int>(rng.uniformInt(4));
    for (int f = 0; f < fields; ++f) {
        if (rng.chance(0.5)) {
            svc::appendU64(&p, rng.next());
        } else {
            std::string s;
            const std::size_t len =
                static_cast<std::size_t>(rng.uniformInt(40));
            for (std::size_t i = 0; i < len; ++i)
                s.push_back(
                    static_cast<char>(rng.uniformInt(256)));
            svc::appendString(&p, s);
        }
    }
    return p;
}

std::string
randomValidWire(tb::Random& rng)
{
    static const FrameType kTypes[] = {
        FrameType::Hello,      FrameType::LeaseRequest,
        FrameType::Heartbeat,  FrameType::Result,
        FrameType::PointError, FrameType::Goodbye,
        FrameType::HelloAck,   FrameType::LeaseGrant,
        FrameType::NoWork,     FrameType::Done,
        FrameType::ResultAck,  FrameType::Reject,
    };
    const FrameType t =
        kTypes[rng.uniformInt(sizeof(kTypes) / sizeof(kTypes[0]))];
    return svc::encodeFrame(t, randomPayload(rng));
}

/** Apply one deterministic mutation to @p wire. */
void
mutate(std::string* wire, tb::Random& rng)
{
    if (wire->empty())
        return;
    switch (rng.uniformInt(7)) {
      case 0: // truncate: the peer died mid-frame
        wire->resize(rng.uniformInt(wire->size()));
        break;
      case 1: { // oversized length field: must never allocate
        if (wire->size() >= svc::kFrameHeaderSize) {
            const std::uint32_t huge =
                svc::kMaxFramePayload + 1 +
                static_cast<std::uint32_t>(rng.uniformInt(1 << 20));
            (*wire)[8] = static_cast<char>(huge & 0xff);
            (*wire)[9] = static_cast<char>((huge >> 8) & 0xff);
            (*wire)[10] = static_cast<char>((huge >> 16) & 0xff);
            (*wire)[11] = static_cast<char>((huge >> 24) & 0xff);
        }
        break;
      }
      case 2: // bad magic
        (*wire)[rng.uniformInt(4)] =
            static_cast<char>(rng.uniformInt(256));
        break;
      case 3: // wrong protocol version
        if (wire->size() >= 6)
            (*wire)[4 + rng.uniformInt(2)] =
                static_cast<char>(1 + rng.uniformInt(255));
        break;
      case 4: { // single bit flip anywhere
        const std::size_t at = rng.uniformInt(wire->size());
        (*wire)[at] = static_cast<char>(
            (*wire)[at] ^ (1u << rng.uniformInt(8)));
        break;
      }
      case 5: { // desync: garbage prepended before the frame
        std::string junk;
        const std::size_t n = 1 + rng.uniformInt(16);
        for (std::size_t i = 0; i < n; ++i)
            junk.push_back(static_cast<char>(rng.uniformInt(256)));
        *wire = junk + *wire;
        break;
      }
      default: { // duplicate a random slice in place
        const std::size_t from = rng.uniformInt(wire->size());
        const std::size_t len =
            1 + rng.uniformInt(wire->size() - from);
        wire->insert(from, wire->substr(from, len));
        break;
      }
    }
}

TEST(FrameFuzz, MutatedFramesNeverCrashOrHangTheReader)
{
    std::size_t driven = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        tb::Random rng(seed);
        for (int iter = 0; iter < 250; ++iter) {
            std::string wire;
            const int frames = 1 + static_cast<int>(rng.uniformInt(3));
            for (int k = 0; k < frames; ++k)
                wire += randomValidWire(rng);
            const int mutations =
                1 + static_cast<int>(rng.uniformInt(2));
            for (int m = 0; m < mutations; ++m)
                mutate(&wire, rng);
            ++driven;

            FrameReader reader;
            std::vector<Frame> decoded;
            bool poisoned = false;
            std::size_t at = 0;
            while (at < wire.size()) {
                const std::size_t chunk = std::min<std::size_t>(
                    1 + rng.uniformInt(64), wire.size() - at);
                std::vector<Frame> out;
                const bool ok =
                    reader.feed(wire.data() + at, chunk, &out);
                for (Frame& f : out)
                    decoded.push_back(std::move(f));
                at += chunk;
                if (!ok) {
                    poisoned = true;
                    EXPECT_FALSE(reader.error().empty())
                        << "poison must carry a diagnostic";
                    break;
                }
            }
            if (poisoned) {
                // Framing is unrecoverable once desynchronized: a
                // poisoned reader must stay poisoned even for bytes
                // that would otherwise be a pristine frame.
                const std::string clean =
                    svc::encodeFrame(FrameType::Done, "");
                std::vector<Frame> out;
                EXPECT_FALSE(
                    reader.feed(clean.data(), clean.size(), &out));
                EXPECT_TRUE(out.empty());
            }
            for (const Frame& f : decoded)
                EXPECT_LE(f.payload.size(), svc::kMaxFramePayload);
        }
    }
    EXPECT_GE(driven, 1000u)
        << "the acceptance bar is >= 1000 mutated frames";
}

TEST(FrameFuzz, PayloadReaderNeverReadsPastTheEnd)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        tb::Random rng(seed);
        for (int iter = 0; iter < 300; ++iter) {
            std::string p;
            const std::size_t len =
                static_cast<std::size_t>(rng.uniformInt(48));
            for (std::size_t i = 0; i < len; ++i)
                p.push_back(static_cast<char>(rng.uniformInt(256)));
            PayloadReader r(p);
            // Read a random mix well past any plausible content; the
            // reader must fail closed (ok() false), never throw or
            // over-read.
            for (int reads = 0; reads < 8; ++reads) {
                if (rng.chance(0.5))
                    (void)r.u64();
                else
                    (void)r.str();
            }
            if (r.ok()) {
                EXPECT_LE(p.size(), std::size_t(64));
            }
        }
    }
}

TEST(FrameFuzz, ParseFrameHeaderRejectsEveryCorruption)
{
    const std::string good = svc::encodeFrame(FrameType::Done, "");
    ASSERT_GE(good.size(), svc::kFrameHeaderSize);
    FrameType t;
    std::uint32_t len = 0;
    std::string err;
    EXPECT_TRUE(
        svc::parseFrameHeader(good.data(), &t, &len, &err));
    EXPECT_EQ(t, FrameType::Done);
    EXPECT_EQ(len, 0u);

    for (std::size_t at = 0; at < 6; ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = good;
            bad[at] = static_cast<char>(bad[at] ^ (1u << bit));
            err.clear();
            EXPECT_FALSE(svc::parseFrameHeader(bad.data(), &t, &len,
                                               &err))
                << "magic/version byte " << at << " bit " << bit;
            EXPECT_FALSE(err.empty());
        }
    }
}

/**
 * The daemon's handler table under fire: six deterministic fuzz
 * clients stream mutated and garbage frames (including valid headers
 * with payloads that never arrive) while a healthy worker completes
 * the campaign. Protocol errors are counted and ledgered; the report
 * stays ok and the artifacts stay byte-identical.
 */
TEST(FrameFuzz, DaemonSurvivesFuzzClientsAndCompletes)
{
    harness::ignoreSigpipe();
    const std::size_t kCount = 6;
    const std::string path =
        testing::TempDir() + "tb_svc_fuzz.sock";
    std::remove(path.c_str());
    const std::string addr = "unix:" + path;

    std::vector<std::uint64_t> keys(kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        keys[i] = fnv1a64("fuzz-test|point:" + std::to_string(i));

    svc::ServiceOptions so;
    so.listen = addr;
    so.campaign = "fuzz-test";
    so.heartbeatMs = 50; // reap half-frame fuzz connections fast
    so.queue.maxAttempts = 3;
    so.queue.backoffBaseMs = 1;
    svc::CampaignService service(so, keys);

    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(); });

    const auto fuzzClient = [&](std::uint64_t seed) {
        tb::Random rng(seed);
        std::string err;
        int fd = -1;
        for (int i = 0; i < 100 && fd < 0; ++i) {
            fd = svc::connectTo(addr, &err);
            if (fd < 0)
                harness::pollOne(-1, 0, 20);
        }
        if (fd < 0)
            return;
        const int bursts = 2 + static_cast<int>(rng.uniformInt(4));
        for (int b = 0; b < bursts; ++b) {
            std::string wire = randomValidWire(rng);
            mutate(&wire, rng);
            if (!wire.empty() &&
                !harness::writeFull(fd, wire.data(), wire.size()))
                break; // daemon already closed us: exactly right
            harness::pollOne(-1, 0, 1);
        }
        ::close(fd);
    };
    std::vector<std::thread> fuzzers;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        fuzzers.emplace_back(fuzzClient, seed);

    svc::WorkerOptions wo;
    wo.connect = addr;
    wo.count = kCount;
    wo.keys = keys;
    wo.name = "healthy";
    svc::CampaignWorker w(wo);
    std::string err;
    const bool ok = w.run(
        [](std::size_t i) {
            return "fuzz artifact " + std::to_string(i) + "\n";
        },
        &err);
    for (std::thread& t : fuzzers)
        t.join();
    daemon.join();

    EXPECT_TRUE(ok) << err;
    EXPECT_TRUE(report.ok())
        << "fuzz traffic must never fail the campaign";
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i],
                  "fuzz artifact " + std::to_string(i) + "\n");
    EXPECT_GT(service.stats().protocolErrors, 0u)
        << "at least one fuzz stream must have registered";
    EXPECT_FALSE(service.ledger().empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace tb
