#include "svc/campaignd.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <limits>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harness/posix_io.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"
#include "svc/net.hh"

namespace tb {
namespace svc {

/** One worker connection's demux state. */
struct CampaignService::Connection
{
    int fd = -1;
    std::uint64_t workerId = 0; ///< 0 until Hello
    std::string name;           ///< "pid@host" from Hello
    FrameReader reader;
    std::uint64_t lastActivityMs = 0;
    bool closing = false;  ///< Goodbye received / Reject sent
    bool helloed = false;

    std::string label() const
    {
        return name.empty() ? "worker#" + std::to_string(workerId)
                            : name;
    }
};

std::string
ServiceStats::summaryJson(const std::string& campaign) const
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("campaign", campaign)
        .field("kind", "service")
        .field("workers", workersSeen)
        .field("leases", leases)
        .field("leases_expired", leasesExpired)
        .field("heartbeat_timeouts", heartbeatTimeouts)
        .field("disconnects", disconnects)
        .field("protocol_errors", protocolErrors)
        .field("duplicates", duplicates)
        .field("duplicate_mismatches", duplicateMismatches)
        .field("stale_results", staleResults)
        .field("results", resultsAccepted)
        .field("journal_hits", journalHits)
        .field("cache_hits", cacheHits)
        .field("cache_misses", cacheMisses)
        .field("cache_evictions", cacheEvictions);
    w.endObject();
    os << '\n';
    return os.str();
}

std::uint64_t
fingerprintKeys(const std::vector<std::uint64_t>& keys)
{
    std::string bytes;
    bytes.reserve(8 * (keys.size() + 1));
    appendU64(&bytes, keys.size());
    for (std::uint64_t k : keys)
        appendU64(&bytes, k);
    return harness::fnv1a64(bytes);
}

CampaignService::CampaignService(ServiceOptions opts)
    : opts_(std::move(opts))
{
    handlers_[FrameType::Hello] =
        [this](Connection* c, const Frame& f) { onHello(c, f); };
    handlers_[FrameType::Keys] =
        [this](Connection* c, const Frame& f) { onKeys(c, f); };
    handlers_[FrameType::LeaseRequest] =
        [this](Connection* c, const Frame& f) {
            onLeaseRequest(c, f);
        };
    handlers_[FrameType::Heartbeat] =
        [this](Connection* c, const Frame& f) { onHeartbeat(c, f); };
    handlers_[FrameType::Result] =
        [this](Connection* c, const Frame& f) { onResult(c, f); };
    handlers_[FrameType::PointError] =
        [this](Connection* c, const Frame& f) { onPointError(c, f); };
    handlers_[FrameType::Goodbye] =
        [this](Connection* c, const Frame& f) { onGoodbye(c, f); };
}

CampaignService::~CampaignService()
{
    for (auto& c : conns_) {
        if (c->fd >= 0)
            ::close(c->fd);
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        cleanupAddress(opts_.listen);
    }
}

void
CampaignService::setKeys(std::vector<std::uint64_t> keys)
{
    keys_ = std::move(keys);
    haveKeys_ = true;
    fingerprint_ = fingerprintKeys(keys_);
}

std::uint64_t
CampaignService::nowMs() const
{
    using namespace std::chrono;
    // Genuine wall clock: lease deadlines and heartbeat liveness must
    // run on host time, independent of any simulation's virtual clock.
    return static_cast<std::uint64_t>(
        duration_cast<milliseconds>(
            // tblint-allow(TBL002): host time for lease/heartbeat deadlines
            steady_clock::now().time_since_epoch())
            .count());
}

void
CampaignService::preResolveStored()
{
    if (!haveKeys_)
        return;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        const WorkQueue::Point& p = queue_->point(i);
        if (p.state != WorkQueue::Point::State::Pending)
            continue;
        std::string stored;
        if (journal_ && journal_->active() &&
            journal_->lookup(i, keys_[i], &stored)) {
            results_[i] = std::move(stored);
            queue_->resolveStored(i,
                                  harness::PointOutcome::Journaled,
                                  keys_[i],
                                  harness::fnv1a64(results_[i]));
            ++stats_.journalHits;
            continue;
        }
        if (cache_ && cache_->lookup(keys_[i], &stored)) {
            results_[i] = std::move(stored);
            queue_->resolveStored(i, harness::PointOutcome::Cached,
                                  keys_[i],
                                  harness::fnv1a64(results_[i]));
            if (journal_ && journal_->active()) {
                journal_->record(
                    i, keys_[i],
                    i < seeds_.size() ? seeds_[i] : 0, results_[i]);
            }
        }
    }
    if (cache_) {
        stats_.cacheHits = cache_->stats().hits;
        stats_.cacheMisses = cache_->stats().misses;
        stats_.cacheEvictions = cache_->stats().evictions;
    }
    if (svcJournal_ && svcJournal_->active())
        svcJournal_->recordCampaign(fingerprint_, keys_.size());
}

void
CampaignService::recoverServiceState()
{
    if (!svcJournal_ || !svcJournal_->active() ||
        svcJournal_->loaded() == 0)
        return;
    const std::uint64_t now = nowMs();
    std::size_t restored = 0, requeued = 0;
    for (const auto& [i, rec] : svcJournal_->recovered()) {
        if (i >= queue_->size())
            continue; // journal from a larger campaign: fatal later
        if (queue_->point(i).state !=
            WorkQueue::Point::State::Pending)
            continue; // completion journal already resolved it
        // Re-arm the consumed attempts and replay the backoff that
        // was pending at the crash, so the restarted queue paces
        // retries exactly like the dead daemon would have.
        std::uint64_t notBefore = 0;
        if (rec.attempts >= 1) {
            harness::SupervisorPolicy sp;
            sp.backoffBaseMs = opts_.queue.backoffBaseMs;
            sp.backoffCapMs = opts_.queue.backoffCapMs;
            sp.seed = opts_.queue.seed;
            notBefore =
                now + harness::CampaignSupervisor::backoffDelayMs(
                          sp, i, rec.attempts + 1);
        }
        queue_->restore(i, rec.attempts, notBefore);
        ++restored;
        if (rec.outstanding)
            ++requeued;
    }
    // The restart itself is a crash event: the previous daemon died
    // with this scheduling state on the books. Ledgering it puts the
    // SIGKILL in the failure manifest next to the worker losses.
    ledger_.add(0, "daemon", "daemon-restart", -1,
                "recovered " +
                    std::to_string(svcJournal_->loaded()) +
                    " service-journal event(s): " +
                    std::to_string(restored) +
                    " unresolved point(s) restored, " +
                    std::to_string(requeued) +
                    " outstanding lease(s) requeued");
}

void
CampaignService::failPoint(std::size_t point, LeaseLoss loss,
                           harness::PointOutcome outcome,
                           const std::string& message,
                           std::uint64_t now)
{
    queue_->fail(point, loss, outcome, message, now);
    if (svcJournal_ && svcJournal_->active()) {
        svcJournal_->recordLoss(point, queue_->point(point).attempts,
                                leaseLossName(loss));
    }
}

bool
CampaignService::send(Connection* conn, FrameType type,
                      const std::string& payload)
{
    if (conn->fd < 0)
        return false;
    if (!sendFrame(conn->fd, type, payload)) {
        closeConnection(conn, LeaseLoss::Disconnect,
                        "send failed: " + errnoMessage(errno));
        return false;
    }
    return true;
}

void
CampaignService::failLeases(Connection* conn, LeaseLoss loss,
                            const std::string& detail)
{
    const std::uint64_t now = nowMs();
    for (std::size_t point : queue_->leasedBy(conn->workerId)) {
        ledger_.add(conn->workerId, conn->label(),
                    leaseLossName(loss), static_cast<long>(point),
                    detail);
        failPoint(point, loss, harness::PointOutcome::Crash,
                  "worker " + conn->label() + " lost: " + detail,
                  now);
    }
}

void
CampaignService::closeConnection(Connection* conn, LeaseLoss loss,
                                 const std::string& detail)
{
    if (conn->fd < 0)
        return;
    const bool hadLeases =
        !queue_->leasedBy(conn->workerId).empty();
    if (hadLeases) {
        ++stats_.disconnects;
        failLeases(conn, loss, detail);
    } else if (!conn->closing && !queue_->allResolved()) {
        // A connection that dies without leases and without a
        // Goodbye is still a worker failure worth ledgering (e.g.
        // killed between leases), just not a lease loss. Once every
        // point is resolved (run() lingering), workers leave on Done
        // and a dropped socket is no failure.
        ledger_.add(conn->workerId, conn->label(),
                    leaseLossName(loss), -1, detail);
    }
    ::close(conn->fd);
    conn->fd = -1;
}

void
CampaignService::onHello(Connection* conn, const Frame& f)
{
    PayloadReader r(f.payload);
    const std::uint64_t count = r.u64();
    const std::uint64_t fp = r.u64();
    const std::string name = r.str();
    if (!r.ok()) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, name, "protocol-error", -1,
                    "malformed hello payload");
        std::string p;
        appendString(&p, "malformed hello");
        send(conn, FrameType::Reject, p);
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "malformed hello");
        return;
    }
    conn->workerId = nextWorkerId_++;
    conn->name = name;
    ++stats_.workersSeen;
    std::string reject;
    if (count != queue_->size()) {
        reject = "point count mismatch: daemon serves " +
                 std::to_string(queue_->size()) +
                 " points, worker built for " + std::to_string(count);
    } else if (haveKeys_ && fp != fingerprint_) {
        reject = "config fingerprint mismatch: daemon " +
                 std::to_string(fingerprint_) + ", worker " +
                 std::to_string(fp) +
                 " (different sweep/flags/binary?)";
    }
    if (!reject.empty()) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1, reject);
        std::string p;
        appendString(&p, reject);
        send(conn, FrameType::Reject, p);
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError, reject);
        return;
    }
    if (!haveKeys_ && fingerprint_ == 0) {
        // Generic mode: first worker defines the fingerprint; its
        // Keys upload fills the table. Later workers must match.
        fingerprint_ = fp;
    } else if (!haveKeys_ && fp != fingerprint_) {
        const std::string msg =
            "config fingerprint mismatch against first worker";
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1, msg);
        std::string p;
        appendString(&p, msg);
        send(conn, FrameType::Reject, p);
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError, msg);
        return;
    }
    if (queue_->allResolved()) {
        // Late arrival while run() lingers: nothing left to lease.
        send(conn, FrameType::Done, "");
        conn->closing = true;
        return;
    }
    conn->helloed = true;
    std::string p;
    appendU64(&p, conn->workerId);
    appendU64(&p, opts_.heartbeatMs);
    appendU64(&p, opts_.queue.leaseMs);
    appendU64(&p, haveKeys_ ? 0 : kHelloAckWantKeys);
    send(conn, FrameType::HelloAck, p);
}

void
CampaignService::onKeys(Connection* conn, const Frame& f)
{
    if (haveKeys_)
        return; // table already known; fingerprint was checked
    if (f.payload.size() != 8 * queue_->size()) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1, "keys frame has wrong length");
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "keys frame has wrong length");
        return;
    }
    PayloadReader r(f.payload);
    std::vector<std::uint64_t> keys(queue_->size());
    for (std::uint64_t& k : keys)
        k = r.u64();
    if (fingerprintKeys(keys) != fingerprint_) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1, "keys do not match hello fingerprint");
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "keys do not match hello fingerprint");
        return;
    }
    keys_ = std::move(keys);
    haveKeys_ = true;
    preResolveStored();
}

void
CampaignService::onLeaseRequest(Connection* conn, const Frame&)
{
    if (queue_->allResolved() ||
        harness::CampaignSupervisor::interruptRequested()) {
        send(conn, FrameType::Done, "");
        return;
    }
    const LeaseGrant g = queue_->lease(conn->workerId, nowMs());
    if (!g.granted) {
        std::string p;
        appendU64(&p, g.retryAfterMs);
        send(conn, FrameType::NoWork, p);
        return;
    }
    ++stats_.leases;
    if (svcJournal_ && svcJournal_->active())
        svcJournal_->recordLease(g.point, g.attempt, conn->label());
    std::string p;
    appendU64(&p, g.point);
    appendU64(&p, g.attempt);
    send(conn, FrameType::LeaseGrant, p);
}

void
CampaignService::onHeartbeat(Connection* conn, const Frame& f)
{
    PayloadReader r(f.payload);
    const std::uint64_t point = r.u64();
    // Heartbeats for a lease this worker no longer holds are a
    // benign race (its lease expired and was re-granted); activity
    // time was already refreshed by the caller.
    (void)queue_->heartbeat(static_cast<std::size_t>(point),
                            conn->workerId);
}

void
CampaignService::onResult(Connection* conn, const Frame& f)
{
    PayloadReader r(f.payload);
    const std::uint64_t point = r.u64();
    const std::uint64_t key = r.u64();
    const std::uint64_t checksum = r.u64();
    std::string artifact = r.str();
    if (!r.ok() || point >= queue_->size()) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1, "malformed result frame");
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "malformed result frame");
        return;
    }
    const std::size_t i = static_cast<std::size_t>(point);
    std::string problem;
    if (harness::fnv1a64(artifact) != checksum)
        problem = "result checksum does not match artifact";
    else if (haveKeys_ && keys_[i] != key)
        problem = "result config hash does not match the point key";
    if (!problem.empty()) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    static_cast<long>(i), problem);
        failPoint(i, LeaseLoss::ProtocolError,
                  harness::PointOutcome::Crash,
                  "worker " + conn->label() + ": " + problem,
                  nowMs());
        std::string p;
        appendU64(&p, point);
        send(conn, FrameType::ResultAck, p);
        return;
    }
    switch (queue_->complete(i, conn->workerId, key, checksum)) {
      case CompleteOutcome::Accepted:
        results_[i] = std::move(artifact);
        ++stats_.resultsAccepted;
        if (journal_ && journal_->active()) {
            journal_->record(i, key,
                             i < seeds_.size() ? seeds_[i] : 0,
                             results_[i]);
        }
        if (svcJournal_ && svcJournal_->active())
            svcJournal_->recordDone(i);
        if (cache_) {
            cache_->store(key, results_[i]);
            stats_.cacheMisses = cache_->stats().misses;
            stats_.cacheEvictions = cache_->stats().evictions;
        }
        break;
      case CompleteOutcome::DuplicateMatch:
        ++stats_.duplicates;
        break;
      case CompleteOutcome::DuplicateMismatch:
        ++stats_.duplicateMismatches;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    static_cast<long>(i),
                    "duplicate completion disagrees with recorded "
                    "config-hash/checksum — determinism violation");
        break;
      case CompleteOutcome::Rejected:
        ++stats_.staleResults;
        break;
    }
    std::string p;
    appendU64(&p, point);
    send(conn, FrameType::ResultAck, p);
}

void
CampaignService::onPointError(Connection* conn, const Frame& f)
{
    PayloadReader r(f.payload);
    const std::uint64_t point = r.u64();
    const std::uint64_t outcome = r.u64();
    const std::string message = r.str();
    if (!r.ok() || point >= queue_->size()) {
        ++stats_.protocolErrors;
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "malformed point-error frame");
        return;
    }
    const harness::PointOutcome po =
        outcome ==
                static_cast<std::uint64_t>(
                    harness::PointOutcome::CheckerViolation)
            ? harness::PointOutcome::CheckerViolation
        : outcome == static_cast<std::uint64_t>(
                         harness::PointOutcome::Crash)
            ? harness::PointOutcome::Crash
            : harness::PointOutcome::Exception;
    ledger_.add(conn->workerId, conn->label(), "point-error",
                static_cast<long>(point), message);
    failPoint(static_cast<std::size_t>(point),
              LeaseLoss::WorkerError, po, message, nowMs());
    std::string p;
    appendU64(&p, point);
    send(conn, FrameType::ResultAck, p);
}

void
CampaignService::onGoodbye(Connection* conn, const Frame& f)
{
    PayloadReader r(f.payload);
    const std::string reason = r.str();
    conn->closing = true;
    // Leaving with leases outstanding is a failure, however polite.
    if (!queue_->leasedBy(conn->workerId).empty())
        failLeases(conn, LeaseLoss::Disconnect,
                   "goodbye with leases outstanding: " + reason);
    ::close(conn->fd);
    conn->fd = -1;
}

void
CampaignService::dispatchFrame(Connection* conn, const Frame& frame)
{
    if (!conn->helloed && frame.type != FrameType::Hello) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1,
                    std::string("frame before hello: ") +
                        frameTypeName(frame.type));
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "frame before hello");
        return;
    }
    const auto it = handlers_.find(frame.type);
    if (it == handlers_.end()) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1,
                    std::string("unexpected frame type: ") +
                        frameTypeName(frame.type));
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        "unexpected frame type");
        return;
    }
    it->second(conn, frame);
}

void
CampaignService::acceptConnections()
{
    const int fd = harness::acceptOne(listenFd_);
    if (fd < 0)
        return; // EAGAIN or transient accept failure
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->lastActivityMs = nowMs();
    conns_.push_back(std::move(conn));
    // Accept one per poll round; poll re-reports readiness.
}

void
CampaignService::serviceConnection(Connection* conn)
{
    char buf[65536];
    const ssize_t r =
        harness::readSome(conn->fd, buf, sizeof(buf));
    if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        closeConnection(conn, LeaseLoss::Disconnect,
                        "read failed: " + errnoMessage(errno));
        return;
    }
    if (r == 0) {
        closeConnection(conn, LeaseLoss::Disconnect,
                        "connection closed (worker exited or was "
                        "killed)");
        return;
    }
    conn->lastActivityMs = nowMs();
    std::vector<Frame> frames;
    if (!conn->reader.feed(buf, static_cast<std::size_t>(r),
                           &frames)) {
        ++stats_.protocolErrors;
        ledger_.add(conn->workerId, conn->label(), "protocol-error",
                    -1, conn->reader.error());
        conn->closing = true;
        closeConnection(conn, LeaseLoss::ProtocolError,
                        conn->reader.error());
        return;
    }
    for (const Frame& f : frames) {
        if (conn->fd < 0)
            break;
        dispatchFrame(conn, f);
    }
}

void
CampaignService::checkDeadlines()
{
    const std::uint64_t now = nowMs();
    for (std::size_t point : queue_->expired(now)) {
        const WorkQueue::Point& p = queue_->point(point);
        std::string who = "worker#" + std::to_string(p.leasedTo);
        for (const auto& c : conns_) {
            if (c->workerId == p.leasedTo && !c->name.empty())
                who = c->name;
        }
        ++stats_.leasesExpired;
        ledger_.add(p.leasedTo, who,
                    leaseLossName(LeaseLoss::Expired),
                    static_cast<long>(point),
                    "lease deadline of " +
                        std::to_string(opts_.queue.leaseMs) +
                        " ms passed without a result");
        failPoint(point, LeaseLoss::Expired,
                  harness::PointOutcome::Timeout,
                  "lease deadline of " +
                      std::to_string(opts_.queue.leaseMs) +
                      " ms exceeded",
                  now);
    }
    // Heartbeat liveness: a connection whose last activity is older
    // than kHeartbeatMisses intervals is dead even though the socket
    // still looks open (wedged process, dead NAT). Lease-less
    // connections are reaped on the same clock: a healthy idle worker
    // sends LeaseRequests at least once a second, so prolonged
    // silence means the peer is stuck — e.g. a corrupted frame header
    // left the reader waiting for bytes that will never come, or a
    // fuzz client is squatting on the listener — and closing is what
    // unsticks a blocked worker into its reconnect path.
    for (auto& c : conns_) {
        if (c->fd < 0)
            continue;
        if (now - c->lastActivityMs >
            kHeartbeatMisses * opts_.heartbeatMs) {
            ++stats_.heartbeatTimeouts;
            const bool idle = queue_->leasedBy(c->workerId).empty();
            closeConnection(
                c.get(), LeaseLoss::HeartbeatLost,
                idle ? "idle connection reaped (no frames for " +
                           std::to_string(kHeartbeatMisses) +
                           " heartbeat intervals)"
                     : std::to_string(kHeartbeatMisses) +
                           " heartbeat intervals missed");
        }
    }
}

void
CampaignService::broadcastDone()
{
    for (auto& c : conns_) {
        if (c->fd >= 0)
            sendFrame(c->fd, FrameType::Done, "");
    }
}

harness::SupervisorReport
CampaignService::run(std::size_t count)
{
    harness::ignoreSigpipe();
    queue_ = std::make_unique<WorkQueue>(count, opts_.queue);
    results_.assign(count, std::string());
    if (haveKeys_ && keys_.size() != count)
        fatal("campaign service: ", keys_.size(),
              " keys for ", count, " points");
    if (svcJournal_ && svcJournal_->active() &&
        svcJournal_->hasCampaign() && svcJournal_->count() != count) {
        fatal("campaign service: resumed service journal describes ",
              svcJournal_->count(), " points, this campaign has ",
              count, " — wrong --journal file?");
    }
    preResolveStored();
    recoverServiceState();

    std::string err;
    listenFd_ = listenOn(opts_.listen, &err);
    if (listenFd_ < 0)
        fatal("campaign service: ", err);

    // Once every point is resolved, broadcast Done and linger for
    // kLingerMs: a worker launched with the fleet but connecting after
    // the others finished the work is told Done and exits cleanly,
    // instead of failing its connect once the listener is gone.
    bool doneSent = false;
    std::uint64_t lingerEndMs = 0;
    while (!harness::CampaignSupervisor::interruptRequested()) {
        if (queue_->allResolved()) {
            if (!doneSent) {
                broadcastDone();
                doneSent = true;
                lingerEndMs = nowMs() + kLingerMs;
            }
            if (nowMs() >= lingerEndMs)
                break;
        }
        std::vector<struct pollfd> pfds;
        pfds.push_back({listenFd_, POLLIN, 0});
        std::vector<Connection*> polled;
        for (auto& c : conns_) {
            if (c->fd < 0)
                continue;
            pfds.push_back({c->fd, POLLIN, 0});
            polled.push_back(c.get());
        }
        // Bound the wait by the next queue event (backoff expiry or
        // lease deadline) and by the heartbeat check cadence.
        const std::uint64_t now = nowMs();
        std::uint64_t waitMs = opts_.heartbeatMs;
        const std::uint64_t next = queue_->nextEventMs();
        if (next != std::numeric_limits<std::uint64_t>::max())
            waitMs = std::min(
                waitMs, next > now ? next - now : std::uint64_t(1));
        if (doneSent)
            waitMs = std::min(waitMs, lingerEndMs > now
                                          ? lingerEndMs - now
                                          : std::uint64_t(1));
        waitMs = std::max<std::uint64_t>(
            std::min<std::uint64_t>(waitMs, 1000), 10);
        // pollMany reports EINTR as a timeout, so a signal (SIGINT,
        // SIGCHLD from --isolate) re-enters the loop and re-derives
        // its deadline-bounded timeout instead of dying here.
        const int rc = harness::pollMany(pfds.data(), pfds.size(),
                                         static_cast<int>(waitMs));
        if (rc < 0)
            fatal("campaign service: poll: ",
                  errnoMessage(errno));
        if (rc > 0) {
            if (pfds[0].revents & POLLIN)
                acceptConnections();
            for (std::size_t i = 0; i < polled.size(); ++i) {
                if (pfds[i + 1].revents &
                    (POLLIN | POLLHUP | POLLERR))
                    serviceConnection(polled[i]);
            }
        }
        checkDeadlines();
        // Drop fully closed connections.
        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](const std::unique_ptr<Connection>& c) {
                               return c->fd < 0;
                           }),
            conns_.end());
    }

    if (!doneSent)
        broadcastDone();
    // Close the listener now, not in the destructor: a worker whose
    // connect landed in an unserviced backlog would otherwise block
    // waiting for a HelloAck that never comes.
    ::close(listenFd_);
    listenFd_ = -1;
    cleanupAddress(opts_.listen);
    if (journal_)
        journal_->flush();
    if (cache_) {
        stats_.cacheHits = cache_->stats().hits;
        stats_.cacheMisses = cache_->stats().misses;
        stats_.cacheEvictions = cache_->stats().evictions;
    }

    harness::SupervisorReport report;
    queue_->fillReport(&report);
    report.interrupted =
        harness::CampaignSupervisor::interruptRequested();
    return report;
}

} // namespace svc
} // namespace tb
