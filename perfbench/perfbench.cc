/**
 * @file
 * The repository benchmark: three closed-loop workloads driven through
 * the simulator's public entry points, with an optional traced run
 * that breaks host time and work down per layer. See README.md in this
 * directory for the workloads, the metrics and the span file.
 *
 *   perfbench --workload paper64|reproduce|rerun --seed N
 *             --seconds S --trace 0|1 --workdir DIR
 *
 * Prints one line per metric, a "meta" line with the host and plan,
 * and as its last line one JSON object {correct, attempted, failed,
 * metrics}. Exit status 0 only when every correctness check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/campaign_supervisor.hh"
#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "harness/parallel_sim.hh"
#include "harness/report.hh"
#include "harness/result_serde.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "obs/json_writer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "svc/distributed.hh"
#include "svc/result_cache.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace {

using namespace tb;
namespace fs = std::filesystem;

// tblint-allow(TBL002): genuine wall-clock — benchmark timing
using Clock = std::chrono::steady_clock;

const Clock::time_point gEpoch = Clock::now();

/** Seconds since the benchmark started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - gEpoch).count();
}

// ------------------------------------------------------------------
// Order statistics
// ------------------------------------------------------------------

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 if empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/** A tail percentile and the label naming it. */
struct Tail
{
    double value = 0.0;
    std::string label = "p50";
};

/**
 * The highest of p50, p75 and p90 that still has at least ten samples
 * above it (nearest-rank), so the tail is never read off a handful of
 * samples. The ladder stops at p90: higher percentiles of rerun's
 * millisecond replays catch host hiccups, and their run-to-run spread
 * (0.23 of the median at p99, 0.68 at p99.9) is too wide to gate.
 */
Tail
tailOf(std::vector<double> v)
{
    static const std::pair<double, const char*> ladder[] = {
        {90.0, "p90"}, {75.0, "p75"}, {50.0, "p50"}};
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const auto& [p, label] : ladder) {
        std::size_t rank =
            static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        rank = std::max<std::size_t>(rank, 1);
        if (v.size() - rank >= 10 || p == 50.0) {
            t.value = v[rank - 1];
            t.label = label;
            return t;
        }
    }
    return t;
}

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** xorshift64* stream for probe and calibration inputs. */
struct Xorshift
{
    std::uint64_t x;

    std::uint64_t
    next()
    {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        return x * 0x2545f4914f6cdd1dull;
    }
};

// ------------------------------------------------------------------
// Host-speed calibration
// ------------------------------------------------------------------

/**
 * One run of a fixed kernel that stands in for the simulator's kind of
 * work: a small discrete-event network model (binary heap of
 * std::function events, shared_ptr messages, per-hop link reservation,
 * hash-map bookkeeping) plus a heap and a hash-map loop. It is the
 * benchmark's own code and uses only the standard library, so no
 * change to the program can move it. Returns its wall seconds.
 *
 * The host this benchmark was built on drifts in speed by up to 1.6x
 * over minutes (README.md, "Run-to-run spread"). Each part of this
 * kernel, timed alone, followed that drift with correlation about 0.7
 * against a paper64 experiment run next to it; an integer and cache
 * loop did not (0.18).
 */
double
kernelSeconds()
{
    struct Event
    {
        std::uint64_t when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event& o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    struct Message
    {
        unsigned dst, cur;
        std::vector<char> payload;
    };
    const double t0 = now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::uint64_t tick = 0, seq = 0, delivered = 0;
    std::vector<std::uint64_t> linkFree(64 * 6, 0);
    std::unordered_map<std::uint64_t, std::uint64_t> arrivals;
    std::function<void(std::shared_ptr<Message>)> hop =
        [&](std::shared_ptr<Message> m) {
            if (m->cur == m->dst) {
                ++delivered;
                ++arrivals[m->dst];
                return;
            }
            const unsigned dim =
                static_cast<unsigned>(__builtin_ctz(m->cur ^ m->dst));
            std::uint64_t& free = linkFree[m->cur * 6 + dim];
            const std::uint64_t start = std::max(tick, free);
            free = start + 16;
            m->cur ^= 1u << dim;
            events.push({start + 16 + (m->cur & 3), seq++,
                         [&hop, m] { hop(m); }});
        };
    Xorshift rng{0x2545f4914f6cdd1dull};
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t x = rng.next();
        auto m = std::make_shared<Message>();
        m->cur = static_cast<unsigned>(x % 64);
        m->dst = static_cast<unsigned>((x >> 8) % 64);
        m->payload.resize(72);
        events.push({(x >> 20) % 100000, seq++, [&hop, m] { hop(m); }});
    }
    while (!events.empty()) {
        Event e = std::move(const_cast<Event&>(events.top()));
        events.pop();
        tick = e.when;
        e.fn();
    }
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < 4096; ++i)
        heap.push(rng.next());
    std::uint64_t acc = delivered;
    for (int i = 0; i < 30000; ++i) {
        acc += heap.top();
        heap.pop();
        heap.push(rng.next());
    }
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t x = rng.next();
        arrivals[x & 0x3ffff] += static_cast<std::uint64_t>(i);
        acc += arrivals.count((x >> 20) & 0x3ffff);
    }
    const double wall = now() - t0;
    if (acc == 0)
        std::fprintf(stderr, "calibration kernel degenerated\n");
    return wall;
}

/**
 * The kernel's median wall on the reference host (4-core x86-64,
 * GCC 12, Release). Normalised times are "seconds at reference speed".
 */
constexpr double kReferenceKernelSeconds = 0.0075;

/**
 * How many reference-speed seconds one host second is worth right now:
 * the reference over the median of three kernel runs on each of
 * @p threads concurrent threads, matching the parallelism of the work
 * being timed. One thread means the calling thread: running the kernel
 * on a helper thread slowed the next paper64 experiment on the main
 * thread by about 30%.
 */
double
hostSpeed(unsigned threads)
{
    std::vector<double> runs(3 * threads);
    if (threads == 1) {
        for (double& r : runs)
            r = kernelSeconds();
        return kReferenceKernelSeconds / median(runs);
    }
    {
        std::vector<std::jthread> pool; // joined on scope exit
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&runs, t] {
                for (unsigned i = 0; i < 3; ++i)
                    runs[3 * t + i] = kernelSeconds();
            });
    }
    return kReferenceKernelSeconds / median(runs);
}

/**
 * Brackets consecutive stretches of timed work with host-speed samples.
 * factor() samples again and returns the mean of the samples on either
 * side of the stretch since the previous call; multiplying a host time
 * from that stretch by it gives seconds at reference speed.
 */
class SpeedTrack
{
  public:
    explicit SpeedTrack(unsigned threads) : threads_(threads)
    {
        // The first kernel runs of a process pay for page faults and
        // cold caches; keep them out of the first sample.
        hostSpeed(threads_);
        last_ = hostSpeed(threads_);
    }

    double
    factor()
    {
        const double next = hostSpeed(threads_);
        const double f = (last_ + next) / 2;
        last_ = next;
        factors_.push_back(f);
        return f;
    }

    /** Median factor so far: the host's speed against the reference. */
    double
    speed() const
    {
        return factors_.empty() ? last_ : median(factors_);
    }

  private:
    const unsigned threads_;
    double last_ = 0;
    std::vector<double> factors_;
};

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

/** One timed interval at a layer boundary. */
struct Span
{
    std::uint64_t op = 0;     ///< operation every span of it shares
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root of its operation
    std::string name;         ///< "<layer>.<what>"
    double start = 0.0;       ///< seconds since benchmark start
    double end = 0.0;
};

/**
 * In-memory span store, written out once when the benchmark ends.
 * Disabled tracers record nothing and hand out id 0, so untraced code
 * paths can open scopes unconditionally.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    std::uint64_t newId() { return on_ ? next_.fetch_add(1) : 0; }

    void
    record(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    /** Total duration of every span named @p name. */
    double
    total(const std::string& name) const
    {
        double t = 0.0;
        for (const Span& s : spans())
            if (s.name == name)
                t += s.end - s.start;
        return t;
    }

    /** Durations of every span named @p name, in record order. */
    std::vector<double>
    durations(const std::string& name) const
    {
        std::vector<double> d;
        for (const Span& s : spans())
            if (s.name == name)
                d.push_back(s.end - s.start);
        return d;
    }

  private:
    const bool on_;
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span: opened at construction, recorded at destruction. */
class Scope
{
  public:
    Scope(Tracer& t, const char* name, std::uint64_t op,
          std::uint64_t parent)
        : t_(t)
    {
        if (!t_.on())
            return;
        span_.op = op;
        span_.id = t_.newId();
        span_.parent = parent;
        span_.name = name;
        span_.start = now();
    }

    ~Scope()
    {
        if (!t_.on())
            return;
        span_.end = now();
        t_.record(std::move(span_));
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Tracer& t_;
    Span span_;
};

/**
 * Self time per span name: each span's duration minus the part of that
 * interval its direct children cover. Points of one pass run on
 * parallel workers and overlap, so children are merged first.
 */
std::map<std::string, double>
selfTimes(const std::vector<Span>& spans)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span& s : spans)
        if (s.parent != 0)
            kids[s.parent].emplace_back(s.start, s.end);
    std::map<std::string, double> self;
    for (const Span& s : spans) {
        double covered = 0.0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto& iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = iv.front().first, hi = iv.front().second;
            for (const auto& [a, b] : iv) {
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                }
                hi = std::max(hi, b);
            }
            covered += hi - lo;
        }
        self[s.name] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

// ------------------------------------------------------------------
// Exact per-layer counts of one or more experiments
// ------------------------------------------------------------------

/**
 * Sums every stat by "<group>.<name>" with the digits of the group
 * dropped, so "node12.ctrl" adds into "node.ctrl".
 */
class SumVisitor : public stats::StatVisitor
{
  public:
    void
    beginGroup(const std::string& name) override
    {
        group_.clear();
        for (char ch : name)
            if (!std::isdigit(static_cast<unsigned char>(ch)))
                group_ += ch;
    }

    void endGroup() override { group_.clear(); }

    void
    scalar(const std::string& name, double value) override
    {
        sums[group_ + "." + name] += value;
    }

    void
    distribution(const std::string& name,
                 const stats::Distribution& d) override
    {
        sums[group_ + "." + name + ".total"] += d.total();
        sums[group_ + "." + name + ".count"] +=
            static_cast<double>(d.count());
    }

    std::map<std::string, double> sums;

  private:
    std::string group_;
};

/** Work counts accumulated over traced experiments. */
struct Counts
{
    double events = 0, nulls = 0, stalls = 0, gvtRescues = 0;
    unsigned partitions = 0;
    std::map<std::string, double> stats; ///< SumVisitor output
    double instances = 0, arrivals = 0, sleeps = 0, spins = 0,
           cutoffs = 0;
    double spinJ = 0, sleepJ = 0, transitionJ = 0;

    void
    add(const Counts& o)
    {
        events += o.events;
        nulls += o.nulls;
        stalls += o.stalls;
        gvtRescues += o.gvtRescues;
        partitions = std::max(partitions, o.partitions);
        for (const auto& [k, x] : o.stats)
            stats[k] += x;
        instances += o.instances;
        arrivals += o.arrivals;
        sleeps += o.sleeps;
        spins += o.spins;
        cutoffs += o.cutoffs;
        spinJ += o.spinJ;
        sleepJ += o.sleepJ;
        transitionJ += o.transitionJ;
    }

    double
    stat(const std::string& key) const
    {
        const auto it = stats.find(key);
        return it == stats.end() ? 0.0 : it->second;
    }

    /** Sum of every stat whose key starts with @p prefix. */
    double
    statPrefix(const std::string& prefix) const
    {
        double t = 0.0;
        for (auto it = stats.lower_bound(prefix);
             it != stats.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it)
            t += it->second;
        return t;
    }
};

// ------------------------------------------------------------------
// The traced experiment: runExperiment's default path, stage by stage
// ------------------------------------------------------------------

/** The partition plan runExperiment documents for its default. */
unsigned
documentedDefaultPlan(const harness::SystemConfig& sys)
{
    return sys.numNodes() >= 16 ? sys.numNodes() / 8 : 1;
}

/**
 * Run @p app under @p kind exactly as runExperiment(sys, app, kind,
 * RunOptions{}) does on a build without the checker armed by default,
 * but on the caller's partition plan, with one span per stage and the
 * work counts added to @p counts. Returns the serialized result; the
 * caller checks it against runExperiment's own bytes.
 */
std::string
tracedExperiment(const harness::SystemConfig& sys,
                 const workloads::AppProfile& app,
                 harness::ConfigKind kind, unsigned parts, Tracer& t,
                 std::uint64_t op, std::uint64_t parent, Counts* counts)
{
    std::optional<harness::Machine> machine;
    {
        Scope s(t, "harness.machine_build", op, parent);
        machine.emplace(sys, parts);
    }
    thrifty::SyncStats sync;
    std::optional<harness::ConfigBarrierProvider> provider;
    std::optional<workloads::SyntheticProgram> program;
    {
        Scope s(t, "workloads.program_build", op, parent);
        provider.emplace(*machine, kind, nullptr, sync);
        program.emplace(machine->eventQueue(), machine->memory(),
                        machine->threadPtrs(), app, *provider,
                        sys.seed);
        machine->memory().addressMap().seal();
    }
    harness::PdesRunReport rep;
    {
        Scope s(t, "sim.run", op, parent);
        program->start();
        rep = harness::runMachinePdes(*machine, 1);
    }
    harness::ExperimentResult r;
    {
        Scope s(t, "harness.finish", op, parent);
        provider->mergeStats();
        if (!program->finished())
            throw std::runtime_error("traced experiment deadlocked");
        r.app = app.name;
        r.config = harness::configName(kind);
        r.execTime = program->finishTick();
        r.threads = machine->config().numNodes();
        r.sync = std::move(sync);
        const power::EnergyAccount total = machine->totalEnergy();
        for (std::size_t i = 0; i < power::kNumBuckets; ++i) {
            const auto b = static_cast<power::Bucket>(i);
            r.energy[i] = total.energy(b);
            r.time[i] = total.time(b);
        }
    }
    std::string bytes;
    {
        Scope s(t, "obs.serialize", op, parent);
        bytes = harness::serializeResult(r);
    }

    if (counts) {
        Counts c;
        // The serial engine on one thread runs the machine's own queue
        // and leaves the engine stats empty.
        std::uint64_t events = rep.engine.fired;
        if (events == 0)
            events = machine->eventQueue().eventsExecuted();
        c.events = static_cast<double>(events);
        c.nulls = static_cast<double>(rep.engine.nullPublishes);
        c.stalls = static_cast<double>(rep.engine.stallRounds);
        c.gvtRescues = static_cast<double>(rep.engine.gvtRescues);
        c.partitions = rep.partitions;
        SumVisitor v;
        machine->visitStats(v);
        c.stats = std::move(v.sums);
        c.instances = static_cast<double>(r.sync.instances);
        c.arrivals = static_cast<double>(r.sync.arrivals);
        c.sleeps = static_cast<double>(r.sync.sleeps);
        c.spins = static_cast<double>(r.sync.spins);
        c.cutoffs = static_cast<double>(r.sync.cutoffs);
        const auto joules = [&r](power::Bucket b) {
            return r.energy[static_cast<std::size_t>(b)];
        };
        c.spinJ = joules(power::Bucket::Spin);
        c.sleepJ = joules(power::Bucket::Sleep);
        c.transitionJ = joules(power::Bucket::Transition);
        counts->add(c);
    }

    {
        Scope s(t, "harness.teardown", op, parent);
        program.reset();
        provider.reset();
        machine.reset();
    }
    return bytes;
}

/**
 * The partition plan runExperiment picked for (@p app, @p kind): the
 * first candidate whose traced replica reproduces @p reference, the
 * bytes runExperiment returned. Plans order some bookkeeping
 * differently, so only the plan actually used reproduces them. 0 when
 * no candidate does, which is a failed check.
 */
unsigned
detectPlan(const harness::SystemConfig& sys,
           const workloads::AppProfile& app, harness::ConfigKind kind,
           const std::string& reference)
{
    std::vector<unsigned> candidates = {documentedDefaultPlan(sys), 1};
    for (unsigned p = 2; p <= sys.numNodes() / 4; p *= 2)
        candidates.push_back(p);
    Tracer off(false);
    std::vector<unsigned> tried;
    for (unsigned p : candidates) {
        if (std::find(tried.begin(), tried.end(), p) != tried.end())
            continue;
        tried.push_back(p);
        if (tracedExperiment(sys, app, kind, p, off, 0, 0, nullptr) ==
            reference)
            return p;
    }
    return 0;
}

// ------------------------------------------------------------------
// The Figure 5/6 campaign
// ------------------------------------------------------------------

const std::vector<harness::ConfigKind>&
figureConfigs()
{
    static const std::vector<harness::ConfigKind> kinds = {
        harness::ConfigKind::Baseline, harness::ConfigKind::ThriftyHalt,
        harness::ConfigKind::OracleHalt, harness::ConfigKind::Thrifty,
        harness::ConfigKind::Ideal};
    return kinds;
}

/** Everything one campaign pass needs; outlives every pass. */
struct Campaign
{
    harness::SystemConfig sys;
    std::vector<workloads::AppProfile> apps;
    harness::CampaignOptions opts;
    std::vector<std::uint64_t> keys;

    std::size_t
    count() const
    {
        return apps.size() * figureConfigs().size();
    }

    const workloads::AppProfile&
    app(std::size_t i) const
    {
        return apps[i / figureConfigs().size()];
    }

    harness::ConfigKind
    kind(std::size_t i) const
    {
        return figureConfigs()[i % figureConfigs().size()];
    }
};

Campaign
makeCampaign(std::uint64_t seed, unsigned jobs)
{
    Campaign c;
    c.sys = harness::SystemConfig::paperDefault();
    c.sys.seed = seed;
    c.apps = workloads::paperApps();
    // The program's defaults (one engine thread, default partition
    // plan); only the worker count and the store are chosen here.
    c.opts.policy.jobs = jobs;
    for (std::size_t i = 0; i < c.count(); ++i) {
        std::ostringstream id;
        id << "perfbench|" << c.app(i).name << '|'
           << harness::configName(c.kind(i))
           << "|dim=" << c.sys.noc.dimension << "|seed=" << seed
           << "|iters=" << c.app(i).iterations;
        c.keys.push_back(harness::fnv1a64(id.str()));
    }
    return c;
}

/**
 * Point task over @p c. Each call records its host seconds in
 * @p pointSeconds[i]. With @p tracer on, the point runs as a traced
 * replica on plan @p parts under one "harness.point" span whose parent
 * is @p *passSpan, and its work is added to @p counts.
 */
harness::PointTask
pointTask(const Campaign& c, std::vector<double>* pointSeconds,
          std::vector<double>* pointStarts, Tracer& tracer,
          std::uint64_t op, const std::uint64_t* passSpan,
          unsigned parts, Counts* counts, std::mutex* countsMu)
{
    harness::PointTask task;
    task.run = [&c, pointSeconds, pointStarts, &tracer, op, passSpan,
                parts, counts, countsMu](std::size_t i) {
        const double t0 = now();
        std::string bytes;
        if (tracer.on()) {
            Scope point(tracer, "harness.point", op, *passSpan);
            Counts local;
            bytes = tracedExperiment(c.sys, c.app(i), c.kind(i), parts,
                                     tracer, op, point.id(), &local);
            std::lock_guard<std::mutex> lock(*countsMu);
            counts->add(local);
        } else {
            bytes = harness::serializeResult(
                harness::runExperiment(c.sys, c.app(i), c.kind(i)));
        }
        (*pointStarts)[i] = t0;
        (*pointSeconds)[i] = now() - t0;
        return bytes;
    };
    task.key = [&c](std::size_t i) { return c.keys[i]; };
    task.seed = [&c](std::size_t) { return c.sys.seed; };
    return task;
}

/** Results grouped per app in figure order. */
std::vector<std::vector<harness::ExperimentResult>>
groupResults(const Campaign& c, const std::vector<std::string>& results)
{
    const std::size_t k = figureConfigs().size();
    std::vector<std::vector<harness::ExperimentResult>> groups(
        c.apps.size(), std::vector<harness::ExperimentResult>(k));
    for (std::size_t i = 0; i < results.size(); ++i)
        groups[i / k][i % k] = harness::deserializeResult(results[i]);
    return groups;
}

/** The Figure 6 artifact, rendered the way figure6_time renders it. */
std::string
renderFigure6(const std::vector<std::vector<harness::ExperimentResult>>&
                  groups)
{
    std::ostringstream os;
    for (const auto& group : groups) {
        harness::report::printBreakdownGroup(os, group, false);
        harness::report::printStackedBars(os, group, false);
        os << '\n';
    }
    harness::report::printSummary(os, groups,
                                  workloads::targetAppNames());
    return os.str();
}

/** The simulated end-to-end metrics of one set of results. */
struct Simulated
{
    double energySavingPct = 0.0;
    double slowdownPct = 0.0;
    double table2ErrPp = 0.0;
};

/**
 * Thrifty against Baseline, averaged over @p target apps (the Figure
 * 5/6 summary), and the mean Table 2 error of the Baseline imbalance
 * over every app in @p groups.
 */
Simulated
simulatedOf(const std::vector<std::vector<harness::ExperimentResult>>&
                groups,
            const std::vector<std::string>& target)
{
    Simulated s;
    double energy = 0.0, time = 0.0, err = 0.0;
    unsigned n = 0;
    for (const auto& group : groups) {
        const harness::ExperimentResult& base =
            harness::report::baselineOf(group);
        err += std::fabs(base.imbalance() -
                         workloads::appByName(base.app).paperImbalance);
        if (std::find(target.begin(), target.end(), base.app) ==
            target.end())
            continue;
        for (const auto& r : group) {
            if (r.config != harness::configName(
                                harness::ConfigKind::Thrifty))
                continue;
            energy += harness::report::normalizedTotal(r, base, true);
            time += harness::report::normalizedTotal(r, base, false);
            ++n;
        }
    }
    if (n) {
        s.energySavingPct = 100.0 - energy / n;
        s.slowdownPct = time / n - 100.0;
    }
    if (!groups.empty())
        s.table2ErrPp = 100.0 * err / static_cast<double>(groups.size());
    return s;
}

std::uint64_t
dirBytes(const std::string& dir)
{
    std::uint64_t b = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file())
            b += e.file_size();
    return b;
}

/** Remove and recreate @p dir, empty. */
void
freshDir(const std::string& dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

// ------------------------------------------------------------------
// Layer probes
// ------------------------------------------------------------------

/** ns/op of a probe: median and quartiles over its trials. */
struct Probe
{
    double median = 0, q1 = 0, q3 = 0;
    std::size_t trials = 0;
};

/**
 * Run @p trial (returning its operation count) once to warm up, then
 * @p trials times; each trial's host ns per operation is one sample.
 */
Probe
probe(unsigned trials, const std::function<std::uint64_t()>& trial)
{
    trial();
    std::vector<double> ns;
    for (unsigned i = 0; i < trials; ++i) {
        const double t0 = now();
        const std::uint64_t ops = trial();
        ns.push_back((now() - t0) * 1e9 / static_cast<double>(ops));
    }
    return {median(ns), quantile(ns, 0.25), quantile(ns, 0.75),
            ns.size()};
}


/** EventQueue::schedule + run: batches of 128 mixed-tick events. */
std::uint64_t
eqTrial()
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (unsigned r = 0; r < 2048; ++r) {
        const Tick base = eq.now();
        for (unsigned i = 0; i < 128; ++i)
            eq.schedule(base + 1 + (i * 7) % 97, [&fired] { ++fired; },
                        static_cast<int>(i & 3));
        eq.run();
    }
    return fired;
}

/**
 * Network::send at zero load on the 64-node hypercube: one message in
 * flight at a time, between node pairs drawn from @p seed.
 */
std::uint64_t
nocTrial(std::uint64_t seed)
{
    const unsigned msgs = 20000;
    EventQueue eq;
    noc::Network net(eq, harness::SystemConfig::paperDefault().noc);
    const unsigned nodes = net.config().nodes();
    Xorshift rng{seed * 0x9e3779b97f4a7c15ull + 1};
    std::uint64_t delivered = 0;
    std::function<void()> next = [&] {
        if (delivered >= msgs)
            return;
        const std::uint64_t x = rng.next();
        const NodeId src = static_cast<NodeId>(x % nodes);
        const NodeId dst = static_cast<NodeId>((x >> 20) % nodes);
        net.send(src, dst, 8, [&] {
            ++delivered;
            next();
        });
    };
    eq.schedule(1, [&] { next(); });
    eq.run();
    return delivered;
}

/**
 * Coherent store ping-pong between two nodes through
 * MemorySystem::controller: every store is an ownership transfer with
 * an invalidation round trip.
 */
std::uint64_t
memTrial()
{
    const std::uint64_t txns = 40000;
    EventQueue eq;
    noc::NetworkConfig nc;
    nc.dimension = 1;
    noc::Network net(eq, nc);
    mem::MemorySystem mem(eq, net, mem::MemoryConfig{});
    const Addr flag = mem.addressMap().allocShared(mem::kPageBytes);
    std::uint64_t done = 0;
    std::function<void()> next = [&] {
        if (done >= txns)
            return;
        mem.controller(static_cast<NodeId>(done & 1))
            .store(flag, done, [&] {
                ++done;
                next();
            });
    };
    next();
    eq.run();
    return done;
}

/** A small-machine Thrifty experiment, per barrier instance. */
std::uint64_t
barrierTrial(std::uint64_t seed)
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 50;
    harness::SystemConfig sys = harness::SystemConfig::small(2);
    sys.seed = seed;
    return harness::runExperiment(sys, app, harness::ConfigKind::Thrifty)
        .sync.instances;
}

// ------------------------------------------------------------------
// Reporting
// ------------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** The metrics, in the order BENCHMARK.json lists them. */
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"op_s", "s"},
    {"op_s_tail", "s"},
    {"points_per_s", "points/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"energy_saving_pct", "%"},
    {"slowdown_pct", "%"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"harness.machine_build_s", "s"},
    {"workloads.program_build_s", "s"},
    {"sim.run_s", "s"},
    {"harness.finish_s", "s"},
    {"obs.serialize_s", "s"},
    {"harness.teardown_s", "s"},
    {"harness.stage_coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"pdes.partitions", "count"},
    {"pdes.null_per_event", "ratio"},
    {"pdes.stalls_per_event", "ratio"},
    {"pdes.gvt_rescues", "count"},
    {"pdes.speedup_nproc", "x"},
    {"noc.messages", "count"},
    {"noc.hops_mean", "hops"},
    {"noc.latency_mean_ticks", "ticks"},
    {"noc.link_stall_ticks", "ticks"},
    {"noc.events_per_message", "ratio"},
    {"mem.l1_hits", "count"},
    {"mem.l1_misses", "count"},
    {"mem.l1_hit_ratio", "ratio"},
    {"mem.dir_requests", "count"},
    {"mem.dir_rmws", "count"},
    {"mem.invals", "count"},
    {"mem.dram_reads", "count"},
    {"mem.dram_bus_stall_ticks", "ticks"},
    {"thrifty.instances", "count"},
    {"thrifty.sleeps", "count"},
    {"thrifty.spins", "count"},
    {"thrifty.cutoffs", "count"},
    {"thrifty.sleep_ratio", "ratio"},
    {"cpu.external_wakes", "count"},
    {"cpu.timer_wakes", "count"},
    {"power.spin_j", "J"},
    {"power.sleep_j", "J"},
    {"power.transition_j", "J"},
    {"sim.eq_ns_per_event", "ns"},
    {"sim.eq_ns_per_event_q1", "ns"},
    {"sim.eq_ns_per_event_q3", "ns"},
    {"noc.ns_per_msg", "ns"},
    {"noc.ns_per_msg_q1", "ns"},
    {"noc.ns_per_msg_q3", "ns"},
    {"mem.ns_per_coherence_txn", "ns"},
    {"mem.ns_per_coherence_txn_q1", "ns"},
    {"mem.ns_per_coherence_txn_q3", "ns"},
    {"thrifty.ns_per_barrier", "ns"},
    {"thrifty.ns_per_barrier_q1", "ns"},
    {"thrifty.ns_per_barrier_q3", "ns"},
    {"harness.point_s_p50", "s"},
    {"harness.point_s_max", "s"},
    {"harness.worker_idle_ratio", "ratio"},
    {"harness.campaign_setup_s", "s"},
    {"svc.cache_hits", "count"},
    {"svc.cache_misses", "count"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.store_put_s", "s"},
    {"svc.store_get_s", "s"},
    {"svc.store_bytes", "bytes"},
    {"obs.render_s", "s"},
};

/** Everything one workload run produced. */
struct Outcome
{
    std::map<std::string, double> metrics; ///< by kEndToEnd/kPerLayer name
    std::map<std::string, std::size_t> samples;
    std::map<std::string, std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    unsigned plan = 0; ///< partition plan the program picked
    double hostSpeed = 0; ///< host speed against the reference

    void
    set(const std::string& name, double v, std::size_t n,
        std::string note = "")
    {
        metrics[name] = v;
        samples[name] = n;
        if (!note.empty())
            notes[name] = std::move(note);
    }

    /** Record @p n operations failing a check. */
    void
    fail(const std::string& what, std::uint64_t n = 1)
    {
        failed += n;
        failures.push_back(what);
    }
};

/** Per-run settings. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10;
    bool trace = false;
    std::string workdir;
    unsigned nproc = 1;
    unsigned jobs = 1;
};

void
setProbes(Outcome& o, std::uint64_t seed)
{
    const auto put = [&o](const std::string& name, const Probe& p) {
        o.set(name, p.median, p.trials, "median of trials");
        o.set(name + "_q1", p.q1, p.trials);
        o.set(name + "_q3", p.q3, p.trials);
    };
    put("sim.eq_ns_per_event", probe(15, eqTrial));
    put("noc.ns_per_msg", probe(15, [seed] { return nocTrial(seed); }));
    put("mem.ns_per_coherence_txn", probe(15, memTrial));
    put("thrifty.ns_per_barrier",
        probe(15, [seed] { return barrierTrial(seed); }));
}

/**
 * One paper64 experiment at the 8-partition plan on nproc engine
 * threads against the serial plan on one thread.
 */
void
setPdesSpeedup(Outcome& o, const Args& a)
{
    const harness::SystemConfig sys =
        harness::SystemConfig::paperDefault();
    const workloads::AppProfile app = workloads::appByName("Volrend");
    harness::RunOptions serial;
    serial.simPartitions = 1;
    harness::RunOptions parallel;
    parallel.simPartitions = 8;
    parallel.simThreads = a.nproc;
    double t0 = now();
    harness::runExperiment(sys, app, harness::ConfigKind::Thrifty,
                           serial);
    const double ts = now() - t0;
    t0 = now();
    harness::runExperiment(sys, app, harness::ConfigKind::Thrifty,
                           parallel);
    const double tp = now() - t0;
    o.set("pdes.speedup_nproc", ratio(ts, tp), 1,
          "8 partitions on " + std::to_string(a.nproc) +
              " threads vs 1 partition on 1 thread");
}

/** The exact-count per-layer metrics of @p c. */
void
setCounts(Outcome& o, const Counts& c, double simRunSeconds)
{
    const double hopsN = c.stat("noc.hops.count");
    const double latN = c.stat("noc.latency.count");
    const double msgs = c.stat("noc.messages");
    const double l1h = c.stat("node.ctrl.l1Hits");
    const double l1m = c.stat("node.ctrl.l1Misses");
    o.set("sim.events", c.events, 1);
    o.set("sim.ns_per_event", ratio(simRunSeconds * 1e9, c.events), 1);
    o.set("pdes.partitions", c.partitions, 1);
    o.set("pdes.null_per_event", ratio(c.nulls, c.events), 1);
    o.set("pdes.stalls_per_event", ratio(c.stalls, c.events), 1);
    o.set("pdes.gvt_rescues", c.gvtRescues, 1);
    o.set("noc.messages", msgs, 1);
    o.set("noc.hops_mean", ratio(c.stat("noc.hops.total"), hopsN), 1);
    o.set("noc.latency_mean_ticks",
          ratio(c.stat("noc.latency.total"), latN), 1);
    o.set("noc.link_stall_ticks", c.stat("noc.linkStallTicks"), 1);
    o.set("noc.events_per_message", ratio(c.events, msgs), 1);
    o.set("mem.l1_hits", l1h, 1);
    o.set("mem.l1_misses", l1m, 1);
    o.set("mem.l1_hit_ratio", ratio(l1h, l1h + l1m), 1);
    o.set("mem.dir_requests", c.stat("node.dir.requests"), 1);
    o.set("mem.dir_rmws", c.stat("node.dir.rmws"), 1);
    o.set("mem.invals", c.stat("node.ctrl.invsReceived"), 1);
    o.set("mem.dram_reads", c.stat("node.dram.reads"), 1);
    o.set("mem.dram_bus_stall_ticks", c.stat("node.dram.busStallTicks"),
          1);
    o.set("thrifty.instances", c.instances, 1);
    o.set("thrifty.sleeps", c.sleeps, 1);
    o.set("thrifty.spins", c.spins, 1);
    o.set("thrifty.cutoffs", c.cutoffs, 1);
    o.set("thrifty.sleep_ratio", ratio(c.sleeps, c.arrivals), 1);
    o.set("cpu.external_wakes",
          c.statPrefix("node.cpu.wakes.") - c.stat("node.cpu.wakes.timer"),
          1);
    o.set("cpu.timer_wakes", c.stat("node.cpu.wakes.timer"), 1);
    o.set("power.spin_j", c.spinJ, 1);
    o.set("power.sleep_j", c.sleepJ, 1);
    o.set("power.transition_j", c.transitionJ, 1);
}

/**
 * Stage span totals divided by @p per (the experiments they average
 * over; 1 = summed), and the share of the @p opName spans they cover.
 */
void
setStages(Outcome& o, const Tracer& t, const std::string& opName,
          unsigned per)
{
    static const char* stages[] = {
        "harness.machine_build", "workloads.program_build", "sim.run",
        "harness.finish",        "obs.serialize",  "harness.teardown"};
    double staged = 0.0;
    for (const char* s : stages) {
        const std::vector<double> d = t.durations(s);
        o.set(std::string(s) + "_s", sum(d) / per, d.size(),
              per == 1 ? "summed" : "mean per experiment");
        staged += sum(d);
    }
    const double ops = t.total(opName);
    o.set("harness.stage_coverage", ratio(staged, ops), 1,
          "stage spans / " + opName + " spans");
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

constexpr int kSetups = 3;

/** "<what>; host median <m> s" for a note beside a normalised time. */
std::string
rawNote(const std::string& what, const std::vector<double>& raw)
{
    std::ostringstream os;
    os << what << "; host median " << median(raw) << " s";
    return os.str();
}

/**
 * The untimed warm-up every workload's set-up ends with: one Baseline
 * run of the paper64 experiment, which paper64 also keeps as its
 * comparison reference.
 */
harness::ExperimentResult
warmUp(const harness::SystemConfig& sys)
{
    return harness::runExperiment(sys, workloads::appByName("Volrend"),
                                  harness::ConfigKind::Baseline);
}

/**
 * paper64: the thrifty_sim default experiment (Volrend, Thrifty,
 * paperDefault, seed 1) back to back on one host thread.
 */
void
runPaper64(const Args& a, Tracer& tracer, Outcome& o)
{
    SpeedTrack speed(1);
    std::vector<double> setups, rawSetups;
    harness::SystemConfig sys;
    workloads::AppProfile app;
    std::string baseBytes;
    harness::ExperimentResult base;
    for (int s = 0; s < kSetups; ++s) {
        const double t0 = now();
        sys = harness::SystemConfig::paperDefault();
        app = workloads::appByName("Volrend");
        base = warmUp(sys);
        rawSetups.push_back(now() - t0);
        setups.push_back(rawSetups.back() * speed.factor());
        const std::string bytes = harness::serializeResult(base);
        if (s > 0 && bytes != baseBytes)
            o.fail("paper64: Baseline reference differs between set-ups");
        baseBytes = bytes;
    }
    o.set("setup_s", median(setups), setups.size(),
          rawNote("median of set-ups", rawSetups));

    std::vector<double> ops; // host seconds
    std::string reference;
    harness::ExperimentResult first;
    // Returns the experiment's host seconds, 0 when it threw.
    const auto experiment = [&]() {
        ++o.attempted;
        const double t0 = now();
        try {
            const harness::ExperimentResult r = harness::runExperiment(
                sys, app, harness::ConfigKind::Thrifty);
            const std::string bytes = harness::serializeResult(r);
            ops.push_back(now() - t0);
            if (reference.empty()) {
                reference = bytes;
                first = r;
            }
            if (bytes != reference)
                o.fail("paper64: result bytes differ between repeats");
            else if (r.sync.arrivals !=
                     r.sync.instances * static_cast<std::uint64_t>(
                                            r.threads))
                o.fail("paper64: arrivals != instances x threads");
            return ops.back();
        } catch (const std::exception& e) {
            o.fail(std::string("paper64: ") + e.what());
        }
        return 0.0;
    };

    const double start = now();
    if (!tracer.on()) {
        std::vector<double> norm;
        while (now() - start < a.seconds) {
            const double host = experiment();
            const double f = speed.factor();
            if (host > 0.0)
                norm.push_back(host * f);
        }
        const Tail tail = tailOf(norm);
        o.set("op_s", median(norm), norm.size(),
              rawNote("experiment_s", ops));
        o.set("op_s_tail", tail.value, norm.size(), tail.label);
        o.set("points_per_s", ratio(norm.size(), sum(norm)), norm.size(),
              "experiments / their reference-speed seconds");
    } else {
        experiment(); // the reference the traced replicas must match
    }
    if (reference.empty())
        return;

    const Simulated sim = simulatedOf({{base, first}}, {app.name});
    o.set("energy_saving_pct", sim.energySavingPct, 1, "Volrend, T vs B");
    o.set("slowdown_pct", sim.slowdownPct, 1, "Volrend, T vs B");
    o.set("table2_err_pp", sim.table2ErrPp, 1, "Volrend only");

    o.plan = detectPlan(sys, app, harness::ConfigKind::Thrifty, reference);
    if (o.plan == 0)
        o.fail("paper64: no partition plan reproduces runExperiment");
    o.hostSpeed = speed.speed();

    if (!tracer.on())
        return;
    // Traced replicas of the same operation, one span tree each, each
    // paired with an untraced run just before it: host speed drifts by
    // more than the tracing costs, so only adjacent runs compare.
    Counts counts;
    std::vector<double> overheads;
    for (int i = 0; i < 5; ++i) {
        experiment();
        const std::uint64_t op = tracer.newId();
        const double t0 = now();
        std::string bytes;
        {
            Scope root(tracer, "paper64.experiment", op, 0);
            bytes = tracedExperiment(
                sys, app, harness::ConfigKind::Thrifty, o.plan, tracer,
                op, root.id(), i == 0 ? &counts : nullptr);
        }
        overheads.push_back(ratio(now() - t0, ops.back()) - 1);
        if (bytes != reference)
            o.fail("paper64: traced replica differs from runExperiment");
    }
    setStages(o, tracer, "paper64.experiment", overheads.size());
    setCounts(o, counts, o.metrics["sim.run_s"]);
    o.set("trace.overhead_ratio", median(overheads), overheads.size(),
          "median of traced / preceding untraced - 1");
}

/** The simulated metrics of the whole Figure 5/6 matrix. */
void
setCampaignSimulated(
    Outcome& o,
    const std::vector<std::vector<harness::ExperimentResult>>& groups)
{
    const Simulated sim = simulatedOf(groups, workloads::targetAppNames());
    o.set("energy_saving_pct", sim.energySavingPct, 1,
          "Thrifty vs Baseline, target apps");
    o.set("slowdown_pct", sim.slowdownPct, 1,
          "Thrifty vs Baseline, target apps");
    o.set("table2_err_pp", sim.table2ErrPp, 1,
          "mean |imbalance - paper| over 10 apps");
}

/** Per-point times of every pass, and the pass walls. */
struct Passes
{
    std::vector<double> pointSeconds;
    std::vector<double> passSeconds;
};

/**
 * Run one campaign pass of @p c against @p store (already prepared by
 * the caller) and check it. Returns the results, empty on failure.
 */
std::vector<std::string>
campaignPass(Campaign& c, const std::string& store, Tracer& tracer,
             std::uint64_t op, unsigned plan, Counts* counts,
             Passes* passes, svc::CacheStats* cache, Outcome& o,
             double* firstPointDelay)
{
    c.opts.cacheDir = store;
    std::vector<double> pointSeconds(c.count(), 0.0);
    std::vector<double> pointStarts(c.count(), 0.0);
    std::mutex countsMu;
    std::uint64_t passSpan = 0;
    const harness::PointTask task =
        pointTask(c, &pointSeconds, &pointStarts, tracer, op, &passSpan,
                  plan, counts, &countsMu);
    svc::CampaignRun run;
    const double t0 = now();
    try {
        Scope pass(tracer, "harness.pass", op, 0);
        passSpan = pass.id();
        run = svc::runCampaignPoints(c.opts, c.count(), task, nullptr,
                                     "perfbench");
    } catch (const std::exception& e) {
        o.fail(std::string("campaign pass threw: ") + e.what(),
               c.count());
        return {};
    }
    const double wall = now() - t0;
    if (cache)
        *cache = run.cache;
    if (!run.report.ok() || run.results.size() != c.count()) {
        o.fail("campaign pass: " +
                   std::to_string(run.report.failures()) +
                   " supervisor failure(s)",
               std::max<std::uint64_t>(run.report.failures(), 1));
        return {};
    }
    if (passes) {
        for (double s : pointSeconds)
            if (s > 0.0)
                passes->pointSeconds.push_back(s);
        passes->passSeconds.push_back(wall);
    }
    if (firstPointDelay) {
        double first = 0.0;
        for (double s : pointStarts)
            if (s > 0.0 && (first == 0.0 || s < first))
                first = s;
        *firstPointDelay = first > 0.0 ? first - t0 : 0.0;
    }
    return run.results;
}

/**
 * reproduce: the Figure 5/6 matrix through runCampaignPoints, each pass
 * into a fresh, empty result store.
 */
void
runReproduce(const Args& a, Tracer& tracer, Outcome& o)
{
    SpeedTrack speed(a.jobs);
    std::vector<double> setups, rawSetups;
    Campaign c;
    const std::string store = a.workdir + "/reproduce-store";
    for (int s = 0; s < kSetups; ++s) {
        const double t0 = now();
        c = makeCampaign(a.seed, a.jobs);
        freshDir(store);
        warmUp(c.sys);
        rawSetups.push_back(now() - t0);
        setups.push_back(rawSetups.back() * speed.factor());
    }
    o.set("setup_s", median(setups), setups.size(),
          rawNote("median of set-ups", rawSetups));

    Passes passes;
    std::vector<std::string> reference;
    svc::CacheStats cache;
    const auto pass = [&](Tracer& t, std::uint64_t op, unsigned plan,
                          Counts* counts, double* firstDelay) {
        freshDir(store);
        o.attempted += c.count();
        const std::vector<std::string> results = campaignPass(
            c, store, t, op, plan, counts, t.on() ? nullptr : &passes,
            &cache, o, firstDelay);
        if (results.empty())
            return results;
        if (reference.empty())
            reference = results;
        if (cache.hits != 0)
            o.fail("reproduce: fresh store served cache hits");
        for (std::size_t i = 0; i < results.size(); ++i)
            if (results[i] != reference[i])
                o.fail("reproduce: point " + std::to_string(i) +
                       " differs between passes");
        return results;
    };

    Tracer off(false);
    const double start = now();
    if (!tracer.on()) {
        std::vector<double> points, walls; // at reference speed
        while (now() - start < a.seconds) {
            const std::size_t from = passes.pointSeconds.size();
            const std::size_t done = passes.passSeconds.size();
            pass(off, 0, 0, nullptr, nullptr);
            const double f = speed.factor();
            for (std::size_t i = from; i < passes.pointSeconds.size(); ++i)
                points.push_back(passes.pointSeconds[i] * f);
            if (passes.passSeconds.size() > done)
                walls.push_back(passes.passSeconds.back() * f);
        }
        const Tail tail = tailOf(points);
        o.set("op_s", median(points), points.size(),
              rawNote("per campaign point", passes.pointSeconds));
        o.set("op_s_tail", tail.value, points.size(),
              tail.label + " per campaign point");
        o.set("points_per_s",
              ratio(static_cast<double>(walls.size() * c.count()),
                    sum(walls)),
              walls.size(),
              rawNote("points / pass seconds, n = passes",
                      passes.passSeconds));
    } else {
        pass(off, 0, 0, nullptr, nullptr);
    }
    if (reference.empty())
        return;

    setCampaignSimulated(o, groupResults(c, reference));

    const std::size_t volrendT = 3; // Volrend is app 0; Thrifty is kind 3
    o.plan = detectPlan(c.sys, c.app(volrendT), c.kind(volrendT),
                        reference[volrendT]);
    if (o.plan == 0)
        o.fail("reproduce: no partition plan reproduces runExperiment");
    o.hostSpeed = speed.speed();

    if (!tracer.on())
        return;
    // The untraced pass above is the overhead base; now one traced.
    Counts counts;
    double firstDelay = 0.0;
    const std::uint64_t op = tracer.newId();
    const double t0 = now();
    pass(tracer, op, o.plan, &counts, &firstDelay);
    const double tracedWall = now() - t0;
    setStages(o, tracer, "harness.point", 1);
    setCounts(o, counts, o.metrics["sim.run_s"]);
    const std::vector<double> points = tracer.durations("harness.point");
    o.set("harness.point_s_p50", median(points), points.size());
    o.set("harness.point_s_max", quantile(points, 1.0), points.size());
    o.set("harness.worker_idle_ratio",
          1.0 - ratio(sum(points), tracer.total("harness.pass") * a.jobs),
          1, "1 - sum(point) / (pass wall x jobs)");
    o.set("harness.campaign_setup_s", firstDelay, 1,
          "pass start to first point start");
    o.set("svc.cache_hits", static_cast<double>(cache.hits), 1);
    o.set("svc.cache_misses", static_cast<double>(cache.misses), 1);
    o.set("svc.cache_hit_ratio",
          ratio(cache.hits, cache.hits + cache.misses), 1);
    o.set("svc.store_bytes", static_cast<double>(dirBytes(store)), 1);
    o.set("trace.overhead_ratio",
          ratio(tracedWall, median(passes.passSeconds)) - 1, 1,
          "traced pass vs untraced pass - 1");
}

/**
 * Time ResultCache::lookup and ResultCache::store per entry over the
 * entries of @p store (written by a pass of @p c).
 */
void
setStoreProbe(Outcome& o, const Campaign& c, const std::string& store,
              const std::string& scratch)
{
    svc::ResultCache in;
    svc::ResultCache out;
    freshDir(scratch);
    in.open(store);
    out.open(scratch);
    std::vector<double> gets, puts;
    for (int round = 0; round < 5; ++round) {
        for (std::uint64_t key : c.keys) {
            std::string bytes;
            double t0 = now();
            const bool hit = in.lookup(key, &bytes);
            gets.push_back(now() - t0);
            if (!hit) {
                o.fail("rerun: store lost an entry");
                continue;
            }
            t0 = now();
            out.store(key, bytes);
            puts.push_back(now() - t0);
        }
    }
    o.set("svc.store_get_s", median(gets), gets.size(),
          "median per ResultCache::lookup");
    o.set("svc.store_put_s", median(puts), puts.size(),
          "median per ResultCache::store");
    o.set("svc.store_bytes", static_cast<double>(dirBytes(store)), 1);
}

/**
 * rerun: the same campaign replayed against the store a finished pass
 * left behind; every point is a cache hit.
 */
void
runRerun(const Args& a, Tracer& tracer, Outcome& o)
{
    // Set-up fills the store on jobs workers; replays are mostly one
    // thread (rendering) plus short lookups.
    SpeedTrack setupSpeed(a.jobs);
    std::vector<double> setups, rawSetups;
    Campaign c;
    const std::string store = a.workdir + "/rerun-store";
    std::string artifact;
    std::vector<std::string> filled;
    Tracer off(false);
    for (int s = 0; s < kSetups; ++s) {
        const double t0 = now();
        c = makeCampaign(a.seed, a.jobs);
        freshDir(store);
        warmUp(c.sys);
        o.attempted += c.count();
        std::vector<std::string> results = campaignPass(
            c, store, off, 0, 0, nullptr, nullptr, nullptr, o, nullptr);
        if (results.empty())
            return;
        if (s > 0 && results != filled)
            o.fail("rerun: filling passes differ");
        filled = std::move(results);
        artifact = renderFigure6(groupResults(c, filled));
        rawSetups.push_back(now() - t0);
        setups.push_back(rawSetups.back() * setupSpeed.factor());
    }
    o.set("setup_s", median(setups), setups.size(),
          rawNote("median of set-ups, each filling the store",
                  rawSetups));

    // Replays run with CampaignOptions' default of one worker: every
    // point is a cache hit, and with jobs workers a millisecond replay
    // mostly measured starting and joining threads on a busy host (its
    // p90 spread 0.31 of its median over ten runs).
    c.opts.policy.jobs = 1;
    c.opts.cacheDir = store;
    SpeedTrack speed(1);

    // Every replayed point is a cache hit, so the task's run() only
    // executes (and is timed) if the store lost an entry.
    std::vector<double> unusedSeconds(c.count()), unusedStarts(c.count());
    const std::uint64_t noSpan = 0;
    const harness::PointTask task =
        pointTask(c, &unusedSeconds, &unusedStarts, off, 0, &noSpan, 0,
                  nullptr, nullptr);
    std::vector<double> replays;
    svc::CampaignRun last;
    const auto replay = [&](Tracer& t) {
        ++o.attempted;
        const std::uint64_t op = t.newId();
        const double t0 = now();
        try {
            Scope root(t, "harness.replay", op, 0);
            svc::CampaignRun run;
            {
                Scope s(t, "svc.campaign", op, root.id());
                run = svc::runCampaignPoints(c.opts, c.count(), task,
                                             nullptr, "perfbench");
            }
            std::string out;
            {
                Scope s(t, "obs.render", op, root.id());
                out = renderFigure6(groupResults(c, run.results));
            }
            if (!t.on())
                replays.push_back(now() - t0);
            if (!run.report.ok())
                o.fail("rerun: supervisor failure");
            else if (run.cache.misses != 0)
                o.fail("rerun: " + std::to_string(run.cache.misses) +
                       " cache miss(es)");
            else if (out != artifact)
                o.fail("rerun: artifact differs from the filling pass");
            last = std::move(run);
        } catch (const std::exception& e) {
            o.fail(std::string("rerun: ") + e.what());
        }
        return now() - t0;
    };

    const double start = now();
    if (!tracer.on()) {
        // Host speed is sampled every 200 replays (about 0.15 s).
        std::vector<double> norm;
        while (now() - start < a.seconds) {
            const std::size_t from = replays.size();
            for (int i = 0; i < 200 && now() - start < a.seconds; ++i)
                replay(off);
            const double f = speed.factor();
            for (std::size_t i = from; i < replays.size(); ++i)
                norm.push_back(replays[i] * f);
        }
        const Tail tail = tailOf(norm);
        o.set("op_s", median(norm), norm.size(),
              rawNote("rerun_s: per replay", replays));
        o.set("op_s_tail", tail.value, norm.size(),
              "rerun_s_tail: " + tail.label + " per replay");
        o.set("points_per_s",
              ratio(static_cast<double>(norm.size() * c.count()),
                    sum(norm)),
              norm.size(), "points / replay seconds, n = replays");
    } else {
        replay(off);
    }

    setCampaignSimulated(o, groupResults(c, filled));

    const std::size_t volrendT = 3;
    o.plan = detectPlan(c.sys, c.app(volrendT), c.kind(volrendT),
                        filled[volrendT]);
    if (o.plan == 0)
        o.fail("rerun: no partition plan reproduces runExperiment");
    o.hostSpeed = speed.speed();

    if (!tracer.on())
        return;
    // Paired like paper64's replicas: untraced, then traced.
    std::vector<double> overheads;
    for (int i = 0; i < 50; ++i) {
        const double untraced = replay(off);
        overheads.push_back(ratio(replay(tracer), untraced) - 1);
    }
    o.set("svc.cache_hits", static_cast<double>(last.cache.hits), 1);
    o.set("svc.cache_misses", static_cast<double>(last.cache.misses), 1);
    o.set("svc.cache_hit_ratio",
          ratio(last.cache.hits, last.cache.hits + last.cache.misses), 1);
    const std::vector<double> renders = tracer.durations("obs.render");
    o.set("obs.render_s", median(renders), renders.size(),
          "median per replay");
    const std::vector<double> campaigns = tracer.durations("svc.campaign");
    o.set("harness.campaign_setup_s", median(campaigns), campaigns.size(),
          "median runCampaignPoints per replay (no point runs)");
    setStoreProbe(o, c, store, a.workdir + "/rerun-scratch");
    o.set("trace.overhead_ratio", median(overheads), overheads.size(),
          "median of traced / preceding untraced - 1");
}

} // namespace

namespace {

[[noreturn]] void
usage(const char* prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper64|reproduce|rerun --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n",
                 prog);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--workdir")
                a.workdir = v;
            else
                usage(argv[0]);
        } catch (const std::exception&) {
            usage(argv[0]);
        }
    }
    if ((a.workload != "paper64" && a.workload != "reproduce" &&
         a.workload != "rerun") ||
        a.workdir.empty() || !(a.seconds > 0))
        usage(argv[0]);
    a.nproc = std::max(1u, std::thread::hardware_concurrency());
    // Campaign workers: one per host core, at most the 4 the
    // benchmark's figures were sized with.
    a.jobs = std::min(a.nproc, 4u);
    return a;
}

std::string
metaJson(const Args& a, const Outcome& o)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("kind", "meta")
        .field("workload", a.workload)
        .field("seed", a.seed)
        .field("seconds", a.seconds)
        .field("trace", a.trace)
        .field("nproc", a.nproc)
        .field("jobs", a.workload == "reproduce" ? a.jobs : 1u)
        .field("engine_threads", 1u)
        .field("partition_plan", o.plan)
        .field("host_speed", o.hostSpeed)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("compiler", PERFBENCH_COMPILER);
    w.endObject();
    return os.str();
}

void
writeSpans(const std::string& path, const std::string& meta,
           const std::vector<Span>& spans)
{
    std::ofstream f(path);
    f << meta << '\n';
    for (const Span& s : spans) {
        obs::JsonWriter w(f);
        w.beginObject();
        w.field("op", s.op)
            .field("id", s.id)
            .field("parent", s.parent)
            .field("name", s.name)
            .field("start_s", s.start)
            .field("end_s", s.end);
        w.endObject();
        f << '\n';
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const Args a = parseArgs(argc, argv);
    std::error_code ec;
    fs::create_directories(a.workdir, ec);

    Tracer tracer(a.trace);
    Outcome o;
    if (a.workload == "paper64")
        runPaper64(a, tracer, o);
    else if (a.workload == "reproduce")
        runReproduce(a, tracer, o);
    else
        runRerun(a, tracer, o);
    if (o.attempted == 0) {
        o.attempted = 1;
        o.fail("no operation completed");
    }

    if (a.trace) {
        setProbes(o, a.seed);
        setPdesSpeedup(o, a);
    }
    o.set("peak_rss_mb", peakRssMb(), 1, "ru_maxrss");

    const auto& table = a.trace ? kPerLayer : kEndToEnd;
    for (const auto& [name, unit] : table) {
        const auto it = o.metrics.find(name);
        std::printf("%-30s %16.6g %-9s n=%-6zu %s\n", name,
                    it == o.metrics.end() ? 0.0 : it->second, unit,
                    o.samples[name], o.notes[name].c_str());
    }
    // Printed but not in the result object: fail_ratio is 0 on clean
    // code (the object carries failed and attempted instead), and
    // table2_err_pp moves more from seed to seed than any bound a
    // gated metric may have (README.md).
    std::printf("%-30s %16.6g %-9s n=%-6zu %s\n", "table2_err_pp",
                o.metrics["table2_err_pp"], "pp",
                o.samples["table2_err_pp"],
                o.notes["table2_err_pp"].c_str());
    std::printf("%-30s %16.6g %-9s n=%-6llu failed / attempted\n",
                "fail_ratio", ratio(o.failed, o.attempted), "ratio",
                static_cast<unsigned long long>(o.attempted));
    for (const std::string& f : o.failures)
        std::printf("FAILED CHECK: %s\n", f.c_str());

    const std::string meta = metaJson(a, o);
    if (a.trace) {
        const std::vector<Span> spans = tracer.spans();
        for (const auto& [name, self] : selfTimes(spans))
            std::printf("self %-28s %12.6f s\n", name.c_str(), self);
        const std::string path = a.workdir + "/spans-" + a.workload +
                                 "-seed" + std::to_string(a.seed) +
                                 ".jsonl";
        writeSpans(path, meta, spans);
        std::printf("spans: %zu written to %s\n", spans.size(),
                    path.c_str());
    }
    std::printf("%s\n", meta.c_str());

    const bool correct = o.failed == 0;
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.beginObject();
    w.field("correct", correct)
        .field("attempted", o.attempted)
        .field("failed", o.failed);
    w.key("metrics").beginObject();
    for (const auto& [name, unit] : table) {
        const auto it = o.metrics.find(name);
        w.key(name).beginObject();
        w.field("value", it == o.metrics.end() ? 0.0 : it->second)
            .field("unit", unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", out.str().c_str());
    return correct ? 0 : 1;
}
