/**
 * @file
 * Distributed campaign service integration tests, all in-process over
 * a Unix-domain socket: a daemon thread runs CampaignService::run
 * while worker threads (and hand-rolled raw-frame clients standing in
 * for crashed or misbehaving workers) drive the TBF1 protocol.
 * Covers: multi-worker completion with artifacts identical to a
 * serial run, lease reassignment after a worker dies mid-lease,
 * heartbeat-loss detection, fingerprint rejection of a mismatched
 * worker, the crash ledger, and warm-cache daemon runs resolving
 * without a single lease.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/campaign_journal.hh"
#include "harness/campaign_supervisor.hh"
#include "harness/posix_io.hh"
#include "svc/campaignd.hh"
#include "svc/frame.hh"
#include "svc/net.hh"
#include "svc/result_cache.hh"
#include "svc/service_journal.hh"
#include "svc/worker.hh"

namespace tb {
namespace {

using harness::fnv1a64;
using harness::PointOutcome;
using svc::CampaignService;
using svc::CampaignWorker;
using svc::Frame;
using svc::FrameType;
using svc::PayloadReader;
using svc::ServiceOptions;
using svc::WorkerOptions;

std::string
socketAddr(const std::string& name)
{
    const std::string path =
        testing::TempDir() + "tb_svc_" + name + ".sock";
    std::remove(path.c_str());
    return "unix:" + path;
}

std::vector<std::uint64_t>
testKeys(std::size_t count)
{
    std::vector<std::uint64_t> keys(count);
    for (std::size_t i = 0; i < count; ++i)
        keys[i] = fnv1a64("dist-test|point:" + std::to_string(i));
    return keys;
}

std::string
artifactOf(std::size_t i)
{
    return "artifact " + std::to_string(i) + "\n";
}

WorkerOptions
workerOpts(const std::string& addr, std::size_t count,
           const std::string& name)
{
    WorkerOptions wo;
    wo.connect = addr;
    wo.count = count;
    wo.keys = testKeys(count);
    wo.name = name;
    return wo;
}

/**
 * Minimal raw-frame client: connect + Hello, so tests can exercise
 * daemon failure paths (abrupt close mid-lease, heartbeat silence,
 * bad fingerprints) that a well-behaved CampaignWorker never takes.
 */
struct RawClient
{
    int fd = -1;

    bool hello(const std::string& addr, std::size_t count,
               std::uint64_t fingerprint)
    {
        std::string err;
        // Retry while the daemon thread starts up.
        for (int i = 0; i < 100 && fd < 0; ++i) {
            fd = svc::connectTo(addr, &err);
            if (fd < 0)
                harness::pollOne(-1, 0, 20);
        }
        if (fd < 0)
            return false;
        std::string p;
        svc::appendU64(&p, count);
        svc::appendU64(&p, fingerprint);
        svc::appendString(&p, "raw-client");
        if (!svc::sendFrame(fd, FrameType::Hello, p))
            return false;
        Frame f;
        return svc::recvFrame(fd, &f, &err) == 1 &&
               f.type == FrameType::HelloAck;
    }

    Frame request(FrameType type, const std::string& payload = "")
    {
        std::string err;
        Frame f;
        if (!svc::sendFrame(fd, type, payload) ||
            svc::recvFrame(fd, &f, &err) != 1)
            f.type = FrameType::Reject;
        return f;
    }

    ~RawClient()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

TEST(Distributed, WorkersCompleteCampaignIdenticallyToSerial)
{
    const std::size_t kCount = 12;
    const std::string addr = socketAddr("basic");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    so.queue.maxAttempts = 1;

    CampaignService service(so);
    service.setKeys(testKeys(kCount));

    harness::SupervisorReport report;
    std::thread daemon(
        [&]() { report = service.run(kCount); });

    const auto workerMain = [&](const std::string& name) {
        CampaignWorker w(workerOpts(addr, kCount, name));
        std::string err;
        EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    };
    std::thread w1(workerMain, "w1");
    std::thread w2(workerMain, "w2");
    std::thread w3(workerMain, "w3");
    w1.join();
    w2.join();
    w3.join();
    daemon.join();

    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.count(PointOutcome::Ok), kCount);
    ASSERT_EQ(service.results().size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i], artifactOf(i))
            << "results must be what a serial run produces";
    EXPECT_EQ(service.stats().resultsAccepted, kCount);
    EXPECT_TRUE(service.ledger().empty());
}

/** Milliseconds on the host's steady clock since @p t0. */
long long
elapsedMs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Regression: run() used to leave its listener open until the
 * destructor, so a worker connecting after the campaign resolved sat
 * unaccepted in the backlog, blocked forever on its HelloAck. Now the
 * listener is closed and unlinked when run() returns, and the late
 * worker fails its connect within its connect budget.
 */
TEST(Distributed, WorkerConnectingAfterCampaignEndsFailsInBoundedTime)
{
    const std::size_t kCount = 3;
    const std::string addr = socketAddr("late");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });
    {
        CampaignWorker w(workerOpts(addr, kCount, "first"));
        std::string err;
        EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    }
    daemon.join();
    ASSERT_TRUE(report.ok());

    WorkerOptions wo = workerOpts(addr, kCount, "late");
    wo.connectWaitMs = 300;
    CampaignWorker late(wo);
    std::string err;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(late.run(artifactOf, &err));
    EXPECT_LT(elapsedMs(t0), 3000);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(err.find("no reply to hello"), std::string::npos)
        << "the connect itself must fail: " << err;
    EXPECT_EQ(late.stats().leases, 0u);
}

/** A worker that connects while run() lingers is told Done and
 *  returns success without leasing anything. */
TEST(Distributed, WorkerConnectingDuringLingerIsToldDone)
{
    const std::size_t kCount = 3;
    const std::string addr = socketAddr("linger");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });
    {
        CampaignWorker w(workerOpts(addr, kCount, "first"));
        std::string err;
        EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    }
    // Every point is resolved; the daemon is lingering.
    CampaignWorker late(workerOpts(addr, kCount, "late"));
    std::string err;
    EXPECT_TRUE(late.run(artifactOf, &err)) << err;
    EXPECT_EQ(late.stats().leases, 0u);
    daemon.join();
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(service.ledger().empty())
        << "a late worker told Done is not a failure";
}

/** The handshake read has a deadline: a listener that accepts the
 *  connection but never answers fails the worker, not hangs it. */
TEST(Distributed, HandshakeTimesOutOnSilentDaemon)
{
    const std::string addr = socketAddr("silent");
    std::string err;
    const int listener = svc::listenOn(addr, &err);
    ASSERT_GE(listener, 0) << err;

    WorkerOptions wo = workerOpts(addr, 2, "patient");
    wo.connectWaitMs = 0;
    CampaignWorker w(wo);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(w.run(artifactOf, &err));
    EXPECT_LT(elapsedMs(t0), 10000);
    EXPECT_NE(err.find("no reply to hello"), std::string::npos) << err;
    ::close(listener);
    svc::cleanupAddress(addr);
}

TEST(Distributed, DeadWorkerLeaseReassigned)
{
    const std::size_t kCount = 4;
    const std::string addr = socketAddr("reassign");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    so.queue.maxAttempts = 2; // one retry for the lost lease
    so.queue.backoffBaseMs = 1;

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });

    // A worker takes a lease and dies (socket closes abruptly): the
    // in-process stand-in for SIGKILL.
    {
        RawClient crash;
        ASSERT_TRUE(crash.hello(addr, kCount,
                                svc::fingerprintKeys(testKeys(kCount))));
        const Frame grant = crash.request(FrameType::LeaseRequest);
        ASSERT_EQ(grant.type, FrameType::LeaseGrant);
        // Destructor closes the socket with the lease outstanding.
    }

    // A healthy worker finishes everything, the orphaned point
    // included.
    CampaignWorker w(workerOpts(addr, kCount, "survivor"));
    std::string err;
    EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    daemon.join();

    EXPECT_TRUE(report.ok()) << "the campaign completes despite the "
                                "dead worker";
    EXPECT_EQ(report.count(PointOutcome::Ok), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i], artifactOf(i));

    // The death is in the ledger, attributed and classified.
    EXPECT_GE(service.stats().disconnects, 1u);
    ASSERT_FALSE(service.ledger().empty());
    std::ostringstream jsonl;
    service.ledger().writeJsonl(jsonl, "dist-test");
    EXPECT_NE(jsonl.str().find("\"kind\": \"crash-ledger\""),
              std::string::npos);
    EXPECT_NE(jsonl.str().find("disconnect"), std::string::npos);
    EXPECT_NE(jsonl.str().find("raw-client"), std::string::npos);
}

TEST(Distributed, SilentWorkerDeclaredDeadByHeartbeat)
{
    const std::size_t kCount = 2;
    const std::string addr = socketAddr("heartbeat");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    so.heartbeatMs = 25; // dead after ~3 missed intervals
    so.queue.maxAttempts = 2;
    so.queue.backoffBaseMs = 1;

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });

    // Lease a point, then go silent with the socket still open — a
    // worker wedged inside a simulation.
    RawClient wedged;
    ASSERT_TRUE(wedged.hello(addr, kCount,
                             svc::fingerprintKeys(testKeys(kCount))));
    ASSERT_EQ(wedged.request(FrameType::LeaseRequest).type,
              FrameType::LeaseGrant);

    CampaignWorker w(workerOpts(addr, kCount, "alive"));
    std::string err;
    EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    daemon.join();

    EXPECT_TRUE(report.ok());
    EXPECT_GE(service.stats().heartbeatTimeouts, 1u);
    std::ostringstream jsonl;
    service.ledger().writeJsonl(jsonl, "dist-test");
    EXPECT_NE(jsonl.str().find("heartbeat-timeout"),
              std::string::npos);
}

TEST(Distributed, MismatchedFingerprintRejected)
{
    const std::size_t kCount = 3;
    const std::string addr = socketAddr("fingerprint");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });

    // A worker built from a different sweep (wrong count and keys)
    // must be turned away at Hello, before it can lease anything.
    WorkerOptions wrong = workerOpts(addr, kCount, "imposter");
    wrong.keys[0] ^= 1;
    {
        CampaignWorker w(wrong);
        std::string err;
        EXPECT_FALSE(w.run(artifactOf, &err));
        EXPECT_NE(err.find("rejected"), std::string::npos) << err;
    }

    CampaignWorker w(workerOpts(addr, kCount, "genuine"));
    std::string err;
    EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    daemon.join();
    EXPECT_TRUE(report.ok());
}

TEST(Distributed, WarmCacheRunNeedsNoWorkers)
{
    const std::size_t kCount = 5;
    const std::string cacheDir = testing::TempDir() + "tb_dist_warm";
    // Pre-populate via a cold daemon run with one worker.
    {
        const std::string addr = socketAddr("warm_cold");
        ServiceOptions so;
        so.listen = addr;
        so.campaign = "dist-test";
        CampaignService service(so);
        service.setKeys(testKeys(kCount));
        svc::ResultCache cache;
        // Wipe stale entries so the cold run is genuinely cold.
        ASSERT_TRUE(cache.open(cacheDir));
        for (std::uint64_t k : testKeys(kCount))
            std::remove(cache.entryPath(k).c_str());
        service.attachCache(&cache);
        harness::SupervisorReport report;
        std::thread daemon([&]() { report = service.run(kCount); });
        CampaignWorker w(workerOpts(addr, kCount, "filler"));
        std::string err;
        ASSERT_TRUE(w.run(artifactOf, &err)) << err;
        daemon.join();
        ASSERT_TRUE(report.ok());
        ASSERT_EQ(cache.stats().stores, kCount);
    }

    // Warm run: every point resolves from the cache before any worker
    // could connect — zero leases, zero simulations.
    const std::string addr = socketAddr("warm_hot");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    svc::ResultCache cache;
    ASSERT_TRUE(cache.open(cacheDir));
    service.attachCache(&cache);
    const harness::SupervisorReport report = service.run(kCount);

    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.count(PointOutcome::Cached), kCount);
    EXPECT_EQ(service.stats().cacheHits, kCount);
    EXPECT_EQ(service.stats().leases, 0u);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i], artifactOf(i));
}

TEST(Distributed, JournalResolvesPointsBeforeWorkers)
{
    const std::size_t kCount = 3;
    const std::string journalPath =
        testing::TempDir() + "tb_dist_journal.jsonl";
    std::remove(journalPath.c_str());
    const auto keys = testKeys(kCount);

    {
        harness::CampaignJournal j;
        j.open(journalPath, /*resume=*/false);
        j.record(1, keys[1], 0, artifactOf(1));
    }

    const std::string addr = socketAddr("journal");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    CampaignService service(so);
    service.setKeys(keys);
    harness::CampaignJournal j;
    j.open(journalPath, /*resume=*/true);
    service.attachJournal(&j);

    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });
    int executed = 0;
    CampaignWorker w(workerOpts(addr, kCount, "w"));
    std::string err;
    ASSERT_TRUE(w.run(
        [&](std::size_t i) {
            ++executed;
            return artifactOf(i);
        },
        &err))
        << err;
    daemon.join();

    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.count(PointOutcome::Journaled), 1u);
    EXPECT_EQ(report.count(PointOutcome::Ok), 2u);
    EXPECT_EQ(executed, 2) << "the journaled point never reruns";
    EXPECT_EQ(service.stats().journalHits, 1u);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i], artifactOf(i));
    std::remove(journalPath.c_str());
}

TEST(Distributed, PointErrorsExhaustBudgetIntoManifest)
{
    const std::size_t kCount = 2;
    const std::string addr = socketAddr("pointerr");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    so.queue.maxAttempts = 2;
    so.queue.backoffBaseMs = 1;

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });

    CampaignWorker w(workerOpts(addr, kCount, "w"));
    std::string err;
    // Point 1 always throws: each attempt becomes a PointError frame,
    // the daemon retries it, then fails it for good.
    EXPECT_TRUE(w.run(
        [](std::size_t i) -> std::string {
            if (i == 1)
                throw std::runtime_error("injected point failure");
            return artifactOf(i);
        },
        &err))
        << err;
    daemon.join();

    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.count(PointOutcome::Ok), 1u);
    EXPECT_EQ(report.count(PointOutcome::Exception), 1u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(service.results()[0], artifactOf(0));
    EXPECT_TRUE(service.results()[1].empty());

    std::ostringstream manifest;
    report.writeManifest(manifest, "dist-test");
    EXPECT_NE(manifest.str().find("injected point failure"),
              std::string::npos);
    std::ostringstream jsonl;
    service.ledger().writeJsonl(jsonl, "dist-test");
    EXPECT_NE(jsonl.str().find("point-error"), std::string::npos);
}

/**
 * The worker half of crash recovery, against a hand-rolled fake
 * daemon: the first daemon incarnation grants a lease and dies
 * mid-exchange; the worker finishes the simulation locally, reconnects
 * under backoff, re-announces its identity by name, and resubmits the
 * stashed result to the second incarnation. No work is lost and no
 * point reruns.
 */
TEST(Distributed, WorkerReconnectsAndResubmitsAfterDaemonLoss)
{
    const std::size_t kCount = 1;
    const std::string addr = socketAddr("reconnect");
    std::string lerr;
    const int lfd = svc::listenOn(addr, &lerr);
    ASSERT_GE(lfd, 0) << lerr;

    WorkerOptions wo = workerOpts(addr, kCount, "phoenix");
    wo.reconnectWaitMs = 30000; // the "restart" is instant here
    CampaignWorker w(wo);
    std::string werr;
    bool ok = false;
    int executed = 0;
    std::thread worker([&]() {
        ok = w.run(
            [&](std::size_t i) {
                ++executed;
                return artifactOf(i);
            },
            &werr);
    });

    const auto expectFrame = [](int fd, FrameType t) {
        Frame f;
        std::string err;
        EXPECT_EQ(svc::recvFrame(fd, &f, &err), 1) << err;
        EXPECT_EQ(f.type, t) << svc::frameTypeName(f.type);
        return f;
    };
    const auto sendAck = [](int fd, std::uint64_t workerId) {
        std::string p;
        svc::appendU64(&p, workerId);
        svc::appendU64(&p, 50); // heartbeatMs
        svc::appendU64(&p, 0);  // leaseMs
        svc::appendU64(&p, 0);  // flags: keys not wanted
        ASSERT_TRUE(svc::sendFrame(fd, FrameType::HelloAck, p));
    };

    // Incarnation 1: handshake, grant point 0, die mid-lease.
    {
        const int fd = harness::acceptOne(lfd);
        ASSERT_GE(fd, 0);
        expectFrame(fd, FrameType::Hello);
        sendAck(fd, 7);
        expectFrame(fd, FrameType::LeaseRequest);
        std::string grant;
        svc::appendU64(&grant, 0); // point
        svc::appendU64(&grant, 1); // attempt
        ASSERT_TRUE(svc::sendFrame(fd, FrameType::LeaseGrant, grant));
        ::close(fd); // SIGKILL stand-in: lease outstanding, peer gone
    }

    // Incarnation 2: the worker comes back by name and leads with the
    // finished point; ack it and end the campaign.
    {
        const int fd = harness::acceptOne(lfd);
        ASSERT_GE(fd, 0);
        const Frame hello = expectFrame(fd, FrameType::Hello);
        PayloadReader hr(hello.payload);
        EXPECT_EQ(hr.u64(), kCount);
        EXPECT_EQ(hr.u64(), svc::fingerprintKeys(testKeys(kCount)));
        EXPECT_EQ(hr.str(), "phoenix")
            << "identity is re-announced by name after reconnect";
        sendAck(fd, 8); // the restarted daemon hands out a new id

        const Frame res = expectFrame(fd, FrameType::Result);
        PayloadReader rr(res.payload);
        EXPECT_EQ(rr.u64(), 0u);
        EXPECT_EQ(rr.u64(), testKeys(kCount)[0]);
        EXPECT_EQ(rr.u64(), fnv1a64(artifactOf(0)));
        EXPECT_EQ(rr.str(), artifactOf(0))
            << "the pre-crash simulation result survives the "
               "reconnect verbatim";
        std::string ack;
        svc::appendU64(&ack, 0);
        ASSERT_TRUE(svc::sendFrame(fd, FrameType::ResultAck, ack));
        expectFrame(fd, FrameType::LeaseRequest);
        ASSERT_TRUE(svc::sendFrame(fd, FrameType::Done, ""));
        expectFrame(fd, FrameType::Goodbye);
        ::close(fd);
    }
    worker.join();
    ::close(lfd);
    svc::cleanupAddress(addr);

    EXPECT_TRUE(ok) << werr;
    EXPECT_EQ(executed, 1) << "the point never reruns";
    EXPECT_EQ(w.stats().reconnects, 1u);
    EXPECT_EQ(w.stats().leases, 1u);
    EXPECT_EQ(w.stats().results, 1u);
}

/**
 * The daemon half of crash recovery: a service journal written by a
 * "dead" incarnation (a lease outstanding on attempt 3, one point
 * completed) is resumed by a fresh daemon, which restores the
 * scheduling state — attempt counts intact, completed work replayed,
 * the restart ledgered — and finishes the campaign with a new worker.
 */
TEST(Distributed, DaemonResumeRestoresSchedulingState)
{
    const std::size_t kCount = 3;
    const auto keys = testKeys(kCount);
    const std::string journalPath =
        testing::TempDir() + "tb_dist_resume.jsonl";
    const std::string svcPath = journalPath + ".svc";
    std::remove(journalPath.c_str());
    std::remove(svcPath.c_str());

    // The dead incarnation's journals: point 1 completed (result in
    // the completion journal, done event in the service journal);
    // point 0 lost twice and leased out on attempt 3 at the kill.
    {
        harness::CampaignJournal j;
        j.open(journalPath, /*resume=*/false);
        j.record(1, keys[1], 0, artifactOf(1));
    }
    {
        svc::ServiceJournal sj;
        sj.open(svcPath, /*resume=*/false);
        sj.recordCampaign(svc::fingerprintKeys(keys), kCount);
        sj.recordLease(0, 1, "w-old");
        sj.recordLoss(0, 1, "disconnect");
        sj.recordLease(0, 2, "w-old");
        sj.recordLoss(0, 2, "heartbeat-timeout");
        sj.recordLease(0, 3, "w-old");
        sj.recordLease(1, 1, "w-old");
        sj.recordDone(1);
    }

    const std::string addr = socketAddr("svc_resume");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    so.queue.maxAttempts = 9;
    so.queue.backoffBaseMs = 1;
    so.queue.backoffCapMs = 4;
    CampaignService service(so);
    service.setKeys(keys);
    harness::CampaignJournal j;
    j.open(journalPath, /*resume=*/true);
    service.attachJournal(&j);
    svc::ServiceJournal sj;
    sj.open(svcPath, /*resume=*/true);
    service.attachServiceJournal(&sj);

    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });
    CampaignWorker w(workerOpts(addr, kCount, "w-new"));
    std::string err;
    ASSERT_TRUE(w.run(artifactOf, &err)) << err;
    daemon.join();

    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.count(PointOutcome::Journaled), 1u);
    EXPECT_EQ(report.count(PointOutcome::Ok), 2u);
    // Point 0 carries its pre-crash history: restored at 3 attempts,
    // +1 for the post-restart lease that completed it.
    EXPECT_EQ(report.points[0].attempts, 4u);
    EXPECT_EQ(report.points[2].attempts, 1u);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i], artifactOf(i));

    // The restart itself lands in the crash ledger, so the manifest
    // records that this campaign crossed a daemon death.
    std::ostringstream jsonl;
    service.ledger().writeJsonl(jsonl, "dist-test");
    EXPECT_NE(jsonl.str().find("daemon-restart"), std::string::npos);
    std::remove(journalPath.c_str());
    std::remove(svcPath.c_str());
}

/**
 * Protocol hardening under the fault injector: every outbound frame
 * torn into two raw writes and every inbound header fragmented, yet
 * the campaign completes byte-identically with a clean ledger — frame
 * reassembly is invisible to the daemon.
 */
TEST(Distributed, TornFramesCompleteCampaignIdentically)
{
    const std::size_t kCount = 8;
    const std::string addr = socketAddr("faulty");
    ServiceOptions so;
    so.listen = addr;
    so.campaign = "dist-test";
    so.queue.maxAttempts = 1;

    CampaignService service(so);
    service.setKeys(testKeys(kCount));
    harness::SupervisorReport report;
    std::thread daemon([&]() { report = service.run(kCount); });

    WorkerOptions wo = workerOpts(addr, kCount, "chaos");
    wo.netFaults.seed = 11;
    wo.netFaults.shortWrite = 1.0; // tear every outbound frame
    wo.netFaults.splitRead = 1.0;  // fragment every inbound header
    CampaignWorker w(wo);
    std::string err;
    EXPECT_TRUE(w.run(artifactOf, &err)) << err;
    daemon.join();

    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.count(PointOutcome::Ok), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(service.results()[i], artifactOf(i));
    EXPECT_GT(w.faultCounters().shortWrites, 0u);
    EXPECT_GT(w.faultCounters().splitReads, 0u);
    EXPECT_TRUE(service.ledger().empty())
        << "torn frames are reassembled, never misread as crashes";
}

} // namespace
} // namespace tb
