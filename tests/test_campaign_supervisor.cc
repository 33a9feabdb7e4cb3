/**
 * @file
 * CampaignSupervisor tests: deterministic retry/backoff sequencing,
 * continue-on-error outcome classification, timeout classification of
 * a deliberately hung point, forked-crash containment under isolate
 * mode, the failure manifest / counter surfaces, and byte-identical
 * artifacts of real experiments at any --jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign_supervisor.hh"
#include "harness/experiment.hh"
#include "harness/result_serde.hh"
#include "sim/logging.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace {

using harness::CampaignSupervisor;
using harness::PointOutcome;
using harness::PointTask;
using harness::SupervisorPolicy;
using harness::SupervisorReport;

TEST(SupervisorBackoff, DeterministicExponentialWithJitter)
{
    SupervisorPolicy p;
    p.backoffBaseMs = 100;
    p.backoffCapMs = 10000;
    p.seed = 42;

    // Same (seed, index, attempt) -> same delay, every time.
    for (unsigned attempt = 2; attempt <= 6; ++attempt) {
        EXPECT_EQ(CampaignSupervisor::backoffDelayMs(p, 7, attempt),
                  CampaignSupervisor::backoffDelayMs(p, 7, attempt));
    }

    // Exponential base with jitter in [0, delay/2]: attempt k's delay
    // lies in [base << (k-2), 1.5 * (base << (k-2))].
    for (unsigned attempt = 2; attempt <= 5; ++attempt) {
        const std::uint64_t base = 100ull << (attempt - 2);
        const std::uint64_t d =
            CampaignSupervisor::backoffDelayMs(p, 3, attempt);
        EXPECT_GE(d, base) << "attempt " << attempt;
        EXPECT_LE(d, base + base / 2) << "attempt " << attempt;
    }

    // The cap bounds arbitrarily late attempts.
    EXPECT_LE(CampaignSupervisor::backoffDelayMs(p, 3, 30),
              p.backoffCapMs);

    // Different seeds decorrelate the jitter (some attempt differs).
    SupervisorPolicy q = p;
    q.seed = 43;
    bool differs = false;
    for (unsigned attempt = 2; attempt <= 8 && !differs; ++attempt) {
        differs |= CampaignSupervisor::backoffDelayMs(p, 3, attempt) !=
                   CampaignSupervisor::backoffDelayMs(q, 3, attempt);
    }
    EXPECT_TRUE(differs);

    // First attempt and disabled backoff never wait.
    EXPECT_EQ(CampaignSupervisor::backoffDelayMs(p, 3, 1), 0u);
    SupervisorPolicy off = p;
    off.backoffBaseMs = 0;
    EXPECT_EQ(CampaignSupervisor::backoffDelayMs(off, 3, 4), 0u);
}

TEST(Supervisor, RetriesUntilSuccessAndCountsAttempts)
{
    SupervisorPolicy p;
    p.jobs = 2;
    p.maxAttempts = 4;
    p.backoffBaseMs = 1; // keep the test fast but exercise the sleep
    CampaignSupervisor sup(p);

    // Point 2 fails twice then succeeds; point 5 always fails.
    std::array<std::atomic<int>, 8> calls{};
    PointTask task;
    task.run = [&](std::size_t i) {
        const int n = ++calls[i];
        if (i == 2 && n <= 2)
            throw std::runtime_error("flaky");
        if (i == 5)
            throw std::runtime_error("always broken");
        return "ok:" + std::to_string(i);
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };

    const SupervisorReport r = sup.run(8, task);
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Ok);
    EXPECT_EQ(r.points[2].attempts, 3u);
    EXPECT_EQ(r.points[5].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.points[5].attempts, 4u);
    EXPECT_EQ(r.points[5].message, "always broken");
    EXPECT_EQ(r.points[5].repro, "bench --only-point 5");
    EXPECT_EQ(r.retries, 2u + 3u); // two for point 2, three for point 5
    EXPECT_EQ(r.failures(), 1u);
    EXPECT_FALSE(r.ok());
    for (std::size_t i = 0; i < 8; ++i) {
        if (i != 5) {
            EXPECT_EQ(sup.results()[i], "ok:" + std::to_string(i));
        }
    }
    EXPECT_TRUE(sup.results()[5].empty());

    // The exhausted budget lands in the manifest; the point that
    // recovered on a retry does not.
    std::ostringstream manifest;
    r.writeManifest(manifest, "test");
    const std::string m = manifest.str();
    EXPECT_EQ(std::count(m.begin(), m.end(), '\n'), 1) << m;
    EXPECT_NE(m.find("\"point\": 5"), std::string::npos) << m;
    EXPECT_NE(m.find("\"attempts\": 4"), std::string::npos) << m;
    EXPECT_NE(m.find("always broken"), std::string::npos) << m;
}

TEST(Supervisor, ClassifiesPanicAsCheckerViolation)
{
    CampaignSupervisor sup(SupervisorPolicy{});
    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i == 1)
            panic("SWMR violated on line 0x40");
        if (i == 2)
            fatal("bad configuration");
        return "fine";
    };
    const SupervisorReport r = sup.run(3, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::CheckerViolation);
    EXPECT_NE(r.points[1].message.find("SWMR"), std::string::npos);
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.count(PointOutcome::CheckerViolation), 1u);
    EXPECT_EQ(r.count(PointOutcome::Exception), 1u);
}

TEST(Supervisor, TimeoutClassifiesHungPoint)
{
    SupervisorPolicy p;
    p.jobs = 2;
    p.deadlineMs = 50;
    CampaignSupervisor sup(p);

    // The hung point blocks on a latch the test releases *after* the
    // supervisor has given up on it, proving the campaign finished
    // around a point that was still running.
    struct Latch
    {
        std::mutex mu;
        std::condition_variable cv;
        bool release = false;
    };
    auto latch = std::make_shared<Latch>();

    PointTask task;
    task.run = [latch](std::size_t i) -> std::string {
        if (i == 1) {
            std::unique_lock<std::mutex> lock(latch->mu);
            latch->cv.wait(lock, [&]() { return latch->release; });
        }
        return "done:" + std::to_string(i);
    };
    const SupervisorReport r = sup.run(4, task);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::Timeout);
    EXPECT_NE(r.points[1].message.find("deadline"),
              std::string::npos);
    EXPECT_EQ(r.count(PointOutcome::Ok), 3u);
    EXPECT_EQ(r.failures(), 1u);

    {
        std::lock_guard<std::mutex> lock(latch->mu);
        latch->release = true;
    }
    latch->cv.notify_all();
    sup.joinAbandonedForTest();
}

TEST(Supervisor, IsolateContainsCrashingPoint)
{
    SupervisorPolicy p;
    p.jobs = 1; // fork from a single-threaded supervisor
    p.isolate = true;
    CampaignSupervisor sup(p);

    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i == 1) {
            // SIGKILL dies identically under every sanitizer — the
            // classifier sees a signaled child either way.
            std::raise(SIGKILL);
        }
        if (i == 2)
            throw std::runtime_error("forked exception");
        return "isolated:" + std::to_string(i);
    };
    const SupervisorReport r = sup.run(4, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(sup.results()[0], "isolated:0");
    EXPECT_EQ(r.points[1].outcome, PointOutcome::Crash);
    EXPECT_NE(r.points[1].message.find("signal"), std::string::npos);
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.points[2].message, "forked exception");
    EXPECT_EQ(r.points[3].outcome, PointOutcome::Ok);
    EXPECT_EQ(sup.results()[3], "isolated:3");
    EXPECT_EQ(r.failures(), 2u);
}

TEST(Supervisor, IsolateEnforcesDeadlineWithSigkill)
{
    SupervisorPolicy p;
    p.jobs = 1;
    p.isolate = true;
    p.deadlineMs = 50;
    CampaignSupervisor sup(p);

    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i == 0) {
            for (;;)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        return "quick";
    };
    const SupervisorReport r = sup.run(2, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Timeout);
    EXPECT_NE(r.points[0].message.find("child killed"),
              std::string::npos);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::Ok);
}

TEST(Supervisor, IsolateCarriesLargeArtifactsAcrossThePipe)
{
    SupervisorPolicy p;
    p.isolate = true;
    CampaignSupervisor sup(p);

    // Larger than a pipe buffer (64 KiB on Linux): the parent must
    // drain concurrently or the child deadlocks on write.
    const std::string big(256 * 1024, 'x');
    PointTask task;
    task.run = [&](std::size_t) { return big; };
    const SupervisorReport r = sup.run(1, task);
    ASSERT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(sup.results()[0], big);
}

TEST(Supervisor, ManifestListsEveryFailureWithRepro)
{
    CampaignSupervisor sup(SupervisorPolicy{});
    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i % 2 == 1)
            throw std::runtime_error("odd point " +
                                     std::to_string(i));
        return "even";
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };
    const SupervisorReport r = sup.run(6, task);

    std::ostringstream manifest;
    r.writeManifest(manifest, "test");
    const std::string m = manifest.str();
    for (std::size_t i : {1u, 3u, 5u}) {
        EXPECT_NE(m.find("\"point\": " + std::to_string(i)),
                  std::string::npos)
            << m;
        EXPECT_NE(m.find("bench --only-point " + std::to_string(i)),
                  std::string::npos)
            << m;
    }
    EXPECT_EQ(m.find("\"point\": 0"), std::string::npos) << m;
    EXPECT_NE(m.find("\"outcome\": \"exception\""),
              std::string::npos);

    const std::string summary = r.summaryJson("test");
    EXPECT_NE(summary.find("\"kind\": \"supervisor\""),
              std::string::npos);
    EXPECT_NE(summary.find("\"exceptions\": 3"), std::string::npos);
    EXPECT_NE(summary.find("\"ok\": 3"), std::string::npos);
    EXPECT_NE(summary.find("\"interrupted\": false"),
              std::string::npos);
}

TEST(Supervisor, InterruptStopsClaimingAndMarksNotRun)
{
    CampaignSupervisor::installSigintHandler();
    CampaignSupervisor::clearInterruptForTest();

    SupervisorPolicy p;
    p.jobs = 1; // deterministic claim order for the assertion below
    CampaignSupervisor sup(p);
    PointTask task;
    task.run = [](std::size_t i) {
        if (i == 2)
            std::raise(SIGINT); // the handler only sets the flag
        return "ran:" + std::to_string(i);
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };
    const SupervisorReport r = sup.run(6, task);
    CampaignSupervisor::clearInterruptForTest();

    EXPECT_TRUE(r.interrupted);
    // The in-flight point finishes gracefully; nothing after it runs.
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Ok);
    for (std::size_t i = 3; i < 6; ++i) {
        EXPECT_EQ(r.points[i].outcome, PointOutcome::NotRun) << i;
        EXPECT_EQ(r.points[i].repro,
                  "bench --only-point " + std::to_string(i));
    }
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.failures(), 0u); // interrupted != failed

    std::ostringstream manifest;
    r.writeManifest(manifest, "test");
    EXPECT_NE(manifest.str().find("\"outcome\": \"interrupted\""),
              std::string::npos);
    EXPECT_NE(manifest.str().find("\"outcome\": \"not-run\""),
              std::string::npos);
}

TEST(Supervisor, ZeroPointsIsANoop)
{
    CampaignSupervisor sup(SupervisorPolicy{});
    PointTask task;
    task.run = [](std::size_t) { return "never"; };
    const SupervisorReport r = sup.run(0, task);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.points.size(), 0u);
}

/**
 * The determinism contract end to end: real experiments sharded over
 * four supervisor workers must produce artifacts byte-identical to a
 * serial run. Each point builds its own Machine from (dim, seed), so
 * nothing is shared between workers; the supervisor deposits the
 * serialized results by index.
 */
TEST(Supervisor, ExperimentCampaignMatchesSerialByteForByte)
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 3;

    struct Point
    {
        unsigned dim;
        std::uint64_t seed;
    };
    std::vector<Point> points;
    for (unsigned dim = 1; dim <= 2; ++dim)
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            points.push_back({dim, seed});

    PointTask task;
    task.run = [&](std::size_t i) {
        harness::SystemConfig sys =
            harness::SystemConfig::small(points[i].dim);
        sys.seed = points[i].seed;
        return harness::serializeResult(harness::runExperiment(
            sys, app, harness::ConfigKind::Thrifty));
    };
    const auto campaign = [&](unsigned jobs) {
        SupervisorPolicy policy;
        policy.jobs = jobs;
        CampaignSupervisor sup(policy);
        const SupervisorReport r = sup.run(points.size(), task);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.count(PointOutcome::Ok), points.size());
        return sup.results();
    };

    const std::vector<std::string> serial = campaign(1);
    const std::vector<std::string> parallel = campaign(4);
    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty()) << "point " << i;
        EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
    }
}

} // namespace
} // namespace tb
