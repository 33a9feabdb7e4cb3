/**
 * @file
 * WorkQueue unit tests: the daemon's lease/complete/fail bookkeeping
 * with the clock passed in as a literal, covering lease ordering and
 * deadlines, retry budgets with deterministic backoff, idempotent
 * duplicate completions, late results from expired leases, and the
 * supervisor-shaped report the daemon emits.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/campaign_supervisor.hh"
#include "svc/work_queue.hh"

namespace tb {
namespace {

using harness::PointOutcome;
using svc::CompleteOutcome;
using svc::LeaseGrant;
using svc::LeaseLoss;
using svc::QueuePolicy;
using svc::WorkQueue;

QueuePolicy
policyWith(unsigned attempts, std::uint64_t leaseMs = 0)
{
    QueuePolicy p;
    p.maxAttempts = attempts;
    p.backoffBaseMs = 100;
    p.backoffCapMs = 10000;
    p.leaseMs = leaseMs;
    return p;
}

TEST(WorkQueue, LeasesLowestPendingFirst)
{
    WorkQueue q(3, policyWith(1));
    const LeaseGrant a = q.lease(/*worker=*/1, /*nowMs=*/0);
    const LeaseGrant b = q.lease(2, 0);
    const LeaseGrant c = q.lease(3, 0);
    ASSERT_TRUE(a.granted && b.granted && c.granted);
    EXPECT_EQ(a.point, 0u);
    EXPECT_EQ(b.point, 1u);
    EXPECT_EQ(c.point, 2u);
    EXPECT_EQ(a.attempt, 1u);

    // Everything leased: not granted, short default poll hint.
    const LeaseGrant d = q.lease(4, 0);
    EXPECT_FALSE(d.granted);
    EXPECT_GT(d.retryAfterMs, 0u);
    EXPECT_FALSE(q.allResolved());
}

TEST(WorkQueue, CompleteResolvesAndReports)
{
    WorkQueue q(2, policyWith(1));
    (void)q.lease(1, 0);
    (void)q.lease(1, 0);
    EXPECT_EQ(q.complete(0, 1, /*key=*/0xaa, /*checksum=*/0x11),
              CompleteOutcome::Accepted);
    EXPECT_EQ(q.complete(1, 1, 0xbb, 0x22),
              CompleteOutcome::Accepted);
    EXPECT_TRUE(q.allResolved());

    harness::SupervisorReport r;
    q.fillReport(&r);
    EXPECT_EQ(r.count(PointOutcome::Ok), 2u);
    EXPECT_TRUE(r.ok());
}

TEST(WorkQueue, CompletionFromWrongWorkerRejected)
{
    WorkQueue q(1, policyWith(1));
    (void)q.lease(1, 0);
    EXPECT_EQ(q.complete(0, /*worker=*/99, 0xaa, 0x11),
              CompleteOutcome::Rejected);
    EXPECT_EQ(q.complete(0, 1, 0xaa, 0x11),
              CompleteOutcome::Accepted);
}

TEST(WorkQueue, DuplicateCompletionsIdempotent)
{
    WorkQueue q(1, policyWith(3));
    (void)q.lease(1, 0);
    ASSERT_EQ(q.complete(0, 1, 0xaa, 0x11),
              CompleteOutcome::Accepted);
    // The same artifact again (slow duplicate): benign.
    EXPECT_EQ(q.complete(0, 2, 0xaa, 0x11),
              CompleteOutcome::DuplicateMatch);
    // A *different* artifact for the same point: a determinism
    // violation the daemon must surface, never silently prefer.
    EXPECT_EQ(q.complete(0, 2, 0xaa, 0x99),
              CompleteOutcome::DuplicateMismatch);
    EXPECT_EQ(q.complete(0, 2, 0xbb, 0x11),
              CompleteOutcome::DuplicateMismatch);
}

TEST(WorkQueue, FailConsumesBudgetThenBacksOff)
{
    WorkQueue q(1, policyWith(/*attempts=*/3));
    ASSERT_TRUE(q.lease(1, 1000).granted);
    q.fail(0, LeaseLoss::Disconnect, PointOutcome::Crash,
           "worker died", 1000);

    // Back in Pending but gated by the deterministic backoff.
    EXPECT_FALSE(q.allResolved());
    EXPECT_FALSE(q.lease(2, 1000).granted);
    const std::uint64_t gate = q.nextEventMs();
    EXPECT_GT(gate, 1000u);

    // The hint matches the supervisor's schedule exactly.
    harness::SupervisorPolicy sp;
    sp.backoffBaseMs = 100;
    sp.backoffCapMs = 10000;
    sp.seed = 1;
    EXPECT_EQ(gate - 1000,
              harness::CampaignSupervisor::backoffDelayMs(sp, 0, 2));

    // At the gate the point leases again, as attempt 2.
    const LeaseGrant g = q.lease(2, gate);
    ASSERT_TRUE(g.granted);
    EXPECT_EQ(g.attempt, 2u);
    EXPECT_EQ(q.retries(), 1u);
}

TEST(WorkQueue, BudgetExhaustionFailsThePoint)
{
    WorkQueue q(1, policyWith(/*attempts=*/2));
    std::uint64_t now = 0;
    for (int attempt = 0; attempt < 2; ++attempt) {
        now = q.nextEventMs() == UINT64_MAX ? now : q.nextEventMs();
        ASSERT_TRUE(q.lease(1, now).granted);
        q.fail(0, LeaseLoss::Expired, PointOutcome::Timeout,
               "deadline", now);
    }
    EXPECT_TRUE(q.allResolved());
    harness::SupervisorReport r;
    q.fillReport(&r);
    EXPECT_EQ(r.count(PointOutcome::Timeout), 1u);
    EXPECT_FALSE(r.ok());
    // The failure message names the lease-loss kind and attempts.
    EXPECT_NE(q.point(0).message.find("lease-expired"),
              std::string::npos);
    EXPECT_NE(q.point(0).message.find("2 attempt(s)"),
              std::string::npos);
}

TEST(WorkQueue, LeaseDeadlinesExpire)
{
    WorkQueue q(2, policyWith(2, /*leaseMs=*/500));
    ASSERT_TRUE(q.lease(1, 1000).granted);
    ASSERT_TRUE(q.lease(2, 1200).granted);

    EXPECT_TRUE(q.expired(1400).empty());
    const auto at1500 = q.expired(1500);
    ASSERT_EQ(at1500.size(), 1u);
    EXPECT_EQ(at1500[0], 0u);
    const auto at1700 = q.expired(1700);
    EXPECT_EQ(at1700.size(), 2u);

    // nextEventMs points at the earliest deadline.
    EXPECT_EQ(q.nextEventMs(), 1500u);
}

TEST(WorkQueue, LateResultFromExpiredLeaseAccepted)
{
    WorkQueue q(1, policyWith(3, /*leaseMs=*/500));
    ASSERT_TRUE(q.lease(1, 0).granted);
    q.fail(0, LeaseLoss::Expired, PointOutcome::Timeout, "slow", 500);
    // Worker 1 was slow, not dead: its result arrives while the point
    // waits out the backoff. The work is done and checksummed —
    // accept it rather than re-simulating.
    EXPECT_EQ(q.complete(0, 1, 0xaa, 0x11),
              CompleteOutcome::Accepted);
    EXPECT_TRUE(q.allResolved());
}

TEST(WorkQueue, LeasedByAndHeartbeatTrackOwnership)
{
    WorkQueue q(3, policyWith(1));
    (void)q.lease(7, 0);
    (void)q.lease(8, 0);
    (void)q.lease(7, 0);
    const auto of7 = q.leasedBy(7);
    ASSERT_EQ(of7.size(), 2u);
    EXPECT_EQ(of7[0], 0u);
    EXPECT_EQ(of7[1], 2u);
    EXPECT_TRUE(q.heartbeat(0, 7));
    EXPECT_FALSE(q.heartbeat(0, 8)) << "wrong holder";
    EXPECT_FALSE(q.heartbeat(1, 7));
    ASSERT_EQ(q.complete(1, 8, 1, 1), CompleteOutcome::Accepted);
    EXPECT_FALSE(q.heartbeat(1, 8)) << "done points have no lease";
}

TEST(WorkQueue, ResolveStoredSkipsTheQueue)
{
    WorkQueue q(3, policyWith(1));
    q.resolveStored(0, PointOutcome::Cached, 0xaa, 0xbb);
    q.resolveStored(2, PointOutcome::Cached, 0xcc, 0xdd);

    const LeaseGrant g = q.lease(1, 0);
    ASSERT_TRUE(g.granted);
    EXPECT_EQ(g.point, 1u) << "stored points are never leased";
    ASSERT_EQ(q.complete(1, 1, 1, 1), CompleteOutcome::Accepted);
    EXPECT_TRUE(q.allResolved());

    // A reconnecting worker resubmitting a store-resolved point is
    // classified against the recorded identity, not rejected as a
    // determinism violation.
    EXPECT_EQ(q.complete(0, 9, 0xaa, 0xbb),
              CompleteOutcome::DuplicateMatch);
    EXPECT_EQ(q.complete(0, 9, 0xaa, 0xff),
              CompleteOutcome::DuplicateMismatch);

    harness::SupervisorReport r;
    q.fillReport(&r);
    EXPECT_EQ(r.count(PointOutcome::Cached), 2u);
    EXPECT_EQ(r.count(PointOutcome::Ok), 1u);
    EXPECT_TRUE(r.ok());
}

TEST(WorkQueue, LeaseLossNamesAreLedgerVocabulary)
{
    EXPECT_STREQ(svc::leaseLossName(LeaseLoss::Expired),
                 "lease-expired");
    EXPECT_STREQ(svc::leaseLossName(LeaseLoss::Disconnect),
                 "disconnect");
    EXPECT_STREQ(svc::leaseLossName(LeaseLoss::HeartbeatLost),
                 "heartbeat-timeout");
    EXPECT_STREQ(svc::leaseLossName(LeaseLoss::ProtocolError),
                 "protocol-error");
    EXPECT_STREQ(svc::leaseLossName(LeaseLoss::WorkerError),
                 "point-error");
}

} // namespace
} // namespace tb
