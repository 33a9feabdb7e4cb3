#include "svc/work_queue.hh"

#include <algorithm>
#include <limits>

namespace tb {
namespace svc {

const char*
leaseLossName(LeaseLoss loss)
{
    switch (loss) {
      case LeaseLoss::Expired:       return "lease-expired";
      case LeaseLoss::Disconnect:    return "disconnect";
      case LeaseLoss::HeartbeatLost: return "heartbeat-timeout";
      case LeaseLoss::ProtocolError: return "protocol-error";
      case LeaseLoss::WorkerError:   return "point-error";
    }
    return "?";
}

WorkQueue::WorkQueue(std::size_t count, const QueuePolicy& policy)
    : policy_(policy), points_(count), unresolved_(count)
{}

void
WorkQueue::resolveStored(std::size_t i, harness::PointOutcome how,
                         std::uint64_t key, std::uint64_t checksum)
{
    Point& p = points_.at(i);
    if (p.state == Point::State::Done ||
        p.state == Point::State::Failed)
        return;
    p.state = Point::State::Done;
    p.outcome = how;
    p.key = key;
    p.checksum = checksum;
    --unresolved_;
}

LeaseGrant
WorkQueue::lease(std::uint64_t worker, std::uint64_t nowMs)
{
    LeaseGrant g;
    std::uint64_t nearest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < points_.size(); ++i) {
        Point& p = points_[i];
        if (p.state != Point::State::Pending)
            continue;
        if (p.notBeforeMs > nowMs) {
            nearest = std::min(nearest, p.notBeforeMs);
            continue;
        }
        p.state = Point::State::Leased;
        p.leasedTo = worker;
        ++p.attempts;
        if (p.attempts > 1)
            ++retries_;
        p.leaseDeadlineMs =
            policy_.leaseMs == 0 ? 0 : nowMs + policy_.leaseMs;
        g.granted = true;
        g.point = i;
        g.attempt = p.attempts;
        return g;
    }
    // Nothing leasable: hint when to ask again — the nearest backoff
    // expiry, or a short poll when everything is in flight.
    g.retryAfterMs = nearest == std::numeric_limits<std::uint64_t>::max()
                         ? 100
                         : std::max<std::uint64_t>(nearest - nowMs, 1);
    return g;
}

CompleteOutcome
WorkQueue::complete(std::size_t point, std::uint64_t worker,
                    std::uint64_t key, std::uint64_t checksum)
{
    if (point >= points_.size())
        return CompleteOutcome::Rejected;
    Point& p = points_[point];
    if (p.state == Point::State::Done) {
        // A re-leased point's original worker finished after all.
        // Deterministic simulation means the duplicate must agree
        // bit-for-bit; config-hash + checksum is how we check without
        // keeping every artifact around.
        return p.key == key && p.checksum == checksum
                   ? CompleteOutcome::DuplicateMatch
                   : CompleteOutcome::DuplicateMismatch;
    }
    if (p.state == Point::State::Failed)
        return CompleteOutcome::Rejected;
    // Accept from the current lease holder; also accept a "late"
    // result from a worker whose lease expired while the point is
    // back in Pending — the work is done and verifiable either way.
    if (p.state == Point::State::Leased && p.leasedTo != worker)
        return CompleteOutcome::Rejected;
    p.state = Point::State::Done;
    p.outcome = harness::PointOutcome::Ok;
    p.key = key;
    p.checksum = checksum;
    p.leaseDeadlineMs = 0;
    --unresolved_;
    return CompleteOutcome::Accepted;
}

void
WorkQueue::fail(std::size_t point, LeaseLoss loss,
                harness::PointOutcome outcome,
                const std::string& message, std::uint64_t nowMs)
{
    if (point >= points_.size())
        return;
    Point& p = points_[point];
    if (p.state != Point::State::Leased)
        return;
    p.leasedTo = 0;
    p.leaseDeadlineMs = 0;
    if (p.attempts >= policy_.maxAttempts) {
        p.state = Point::State::Failed;
        p.outcome = outcome;
        p.message = message + " (" + leaseLossName(loss) + ", " +
                    std::to_string(p.attempts) + " attempt(s))";
        --unresolved_;
        return;
    }
    p.state = Point::State::Pending;
    p.message.clear();
    // Deterministic exponential backoff, same schedule as the local
    // supervisor's retry path: base << (attempt-2) + seeded jitter.
    harness::SupervisorPolicy sp;
    sp.backoffBaseMs = policy_.backoffBaseMs;
    sp.backoffCapMs = policy_.backoffCapMs;
    sp.seed = policy_.seed;
    p.notBeforeMs =
        nowMs + harness::CampaignSupervisor::backoffDelayMs(
                    sp, point, p.attempts + 1);
}

std::vector<std::size_t>
WorkQueue::leasedBy(std::uint64_t worker) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (points_[i].state == Point::State::Leased &&
            points_[i].leasedTo == worker)
            out.push_back(i);
    }
    return out;
}

std::vector<std::size_t>
WorkQueue::expired(std::uint64_t nowMs) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const Point& p = points_[i];
        if (p.state == Point::State::Leased &&
            p.leaseDeadlineMs != 0 && nowMs >= p.leaseDeadlineMs)
            out.push_back(i);
    }
    return out;
}

bool
WorkQueue::heartbeat(std::size_t point, std::uint64_t worker) const
{
    return point < points_.size() &&
           points_[point].state == Point::State::Leased &&
           points_[point].leasedTo == worker;
}

std::uint64_t
WorkQueue::nextEventMs() const
{
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    for (const Point& p : points_) {
        if (p.state == Point::State::Pending && p.notBeforeMs != 0)
            next = std::min(next, p.notBeforeMs);
        else if (p.state == Point::State::Leased &&
                 p.leaseDeadlineMs != 0)
            next = std::min(next, p.leaseDeadlineMs);
    }
    return next;
}

void
WorkQueue::fillReport(harness::SupervisorReport* report) const
{
    report->points.assign(points_.size(), harness::PointRecord{});
    for (std::size_t i = 0; i < points_.size(); ++i) {
        harness::PointRecord& r = report->points[i];
        r.outcome = points_[i].outcome;
        r.attempts = points_[i].attempts;
        r.message = points_[i].message;
    }
    report->retries = retries_;
}

} // namespace svc
} // namespace tb
