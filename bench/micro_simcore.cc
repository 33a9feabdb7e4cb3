/**
 * @file
 * Simulator-core microbenchmarks: the throughput numbers the CI
 * perf-smoke job gates on (scripts/compare_bench.py vs
 * BENCH_baseline.json; see docs/PERFORMANCE.md).
 *
 *   micro_simcore [--quick] [--json FILE]
 *
 * Measures, in order:
 *   - calibration       fixed integer workload, normalizes host speed
 *   - eq_schedule_fire  event-queue schedule+fire throughput
 *   - eq_schedule_cancel cancel-heavy schedule/cancel/drain throughput
 *   - coherence_txn     end-to-end coherent store ping-pong rate
 *   - barriers          end-to-end thrifty-barrier instances per second
 * plus the *simulated* latency of one coherence transaction in ticks,
 * which is seed-deterministic and must never drift, and one
 * `"kind": "host"` line recording the host's core count.
 *
 * Each throughput metric repeats a fixed-size trial until at least
 * 0.2 s (--quick) or 0.5 s of host time has passed, five times,
 * interleaved with the other metrics, and reports the median.
 *
 * Every metric is one JSON line in the shared campaign shape
 * (bench_util.hh), so the output greps and diffs like the robustness
 * campaigns do.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"

namespace {

using namespace tb;

// tblint-allow(TBL002): genuine wall-clock — benchmark timing
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One trial's work: how many operations it completed. */
using Trial = std::function<std::uint64_t()>;

/**
 * Run @p trial back to back until at least @p min_wall seconds of
 * host time have passed: a fixed-size trial of a few milliseconds is
 * too short to time on a shared host, a sample this long is not.
 */
bench::MicroMetric
timed(const char* benchmark, const char* unit, double min_wall,
      const Trial& trial)
{
    std::uint64_t ops = 0;
    double wall = 0.0;
    const auto t0 = Clock::now();
    do {
        ops += trial();
        wall = secondsSince(t0);
    } while (wall < min_wall);
    bench::MicroMetric m;
    m.benchmark = benchmark;
    m.unit = unit;
    m.ops = ops;
    m.wallSeconds = wall;
    m.value = static_cast<double>(ops) / wall;
    return m;
}

/**
 * Host-speed calibration: a fixed xorshift64* chain. The perf gate
 * normalizes throughput metrics by the baseline/current calibration
 * ratio, so a slower CI runner does not read as a code regression.
 */
std::uint64_t
calibrationTrial()
{
    const std::uint64_t iters = 10'000'000ull;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x *= 0x2545f4914f6cdd1dull;
    }
    // Keep the chain observable so the loop cannot be folded away.
    if (x == 0)
        std::cerr << "calibration degenerated\n";
    return iters;
}

/** Schedule/fire throughput: batches of short-lived events with mixed
 *  ticks and priorities, queue drained between batches. */
std::uint64_t
eqScheduleFireTrial()
{
    const unsigned rounds = 1000;
    const unsigned batch = 128;
    EventQueue eq;
    std::uint64_t fired = 0;
    for (unsigned r = 0; r < rounds; ++r) {
        const Tick base = eq.now();
        for (unsigned i = 0; i < batch; ++i) {
            eq.schedule(base + 1 + (i * 7) % 97,
                        [&fired]() { ++fired; },
                        static_cast<int>(i & 3));
        }
        eq.run();
    }
    return fired;
}

/** Cancel-heavy mix: half of each batch is canceled before the drain,
 *  exercising lazy cancelation and slot reuse. Ops counts schedules,
 *  cancels and fires. */
std::uint64_t
eqScheduleCancelTrial()
{
    const unsigned rounds = 50;
    const unsigned batch = 4096;
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t ops = 0;
    std::vector<EventHandle> handles;
    handles.reserve(batch);
    for (unsigned r = 0; r < rounds; ++r) {
        handles.clear();
        const Tick base = eq.now();
        for (unsigned i = 0; i < batch; ++i) {
            handles.push_back(
                eq.schedule(base + 1 + (i * 13) % 61,
                            [&fired]() { ++fired; }));
        }
        for (unsigned i = 0; i < batch; i += 2)
            handles[i].cancel();
        ops += batch + batch / 2;
        eq.run();
    }
    return ops + fired;
}

/** Transactions in one coherence trial. */
constexpr std::uint64_t kCoherenceTxns = 20'000;

/**
 * Coherent-store ping-pong between two nodes over the real network:
 * every transaction is an Upgrade/GetX + invalidation round trip.
 * @p sim_ticks receives the trial's simulated duration.
 */
std::uint64_t
coherenceTrial(Tick* sim_ticks)
{
    EventQueue eq;
    noc::NetworkConfig nc;
    nc.dimension = 1; // two nodes
    noc::Network net(eq, nc);
    mem::MemorySystem mem(eq, net, mem::MemoryConfig{});
    const Addr flag = mem.addressMap().allocShared(mem::kPageBytes);

    std::uint64_t done = 0;
    std::function<void()> next = [&]() {
        if (done >= kCoherenceTxns)
            return;
        const NodeId n = static_cast<NodeId>(done & 1);
        mem.controller(n).store(flag, done, [&]() {
            ++done;
            next();
        });
    };
    next();
    eq.run();
    *sim_ticks = eq.now();
    return done;
}

/** End-to-end barriers: one thrifty experiment on a small machine,
 *  counted in completed dynamic barrier instances. */
std::uint64_t
barriersTrial()
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 50;
    harness::SystemConfig sys = harness::SystemConfig::small(2);
    sys.seed = 1;
    return harness::runExperiment(sys, app, harness::ConfigKind::Thrifty)
        .sync.instances;
}

/** The sample with the median value (reps is odd). */
bench::MicroMetric
median(std::vector<bench::MicroMetric> samples)
{
    std::sort(samples.begin(), samples.end(),
              [](const bench::MicroMetric& a,
                 const bench::MicroMetric& b) { return a.value < b.value; });
    return samples[samples.size() / 2];
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--quick] [--json FILE]\n";
            return 2;
        }
    }

    // Every metric runs once per round and the rounds repeat, so a
    // burst of host load lands on one sample of each metric instead
    // of every sample of one; each metric reports its median sample.
    const unsigned reps = 5;
    const double min_wall = quick ? 0.2 : 0.5;
    Tick sim_ticks = 0;
    const Trial coherence = [&]() {
        Tick ticks = 0;
        const std::uint64_t n = coherenceTrial(&ticks);
        if (sim_ticks != 0 && ticks != sim_ticks) {
            std::cerr << "coherence_txn_sim_latency drifted between "
                         "trials\n";
            std::exit(1);
        }
        sim_ticks = ticks;
        return n;
    };
    struct Spec
    {
        const char* benchmark;
        const char* unit;
        Trial trial;
    };
    const std::vector<Spec> specs = {
        {"calibration", "ops/s", calibrationTrial},
        {"eq_schedule_fire", "events/s", eqScheduleFireTrial},
        {"eq_schedule_cancel", "events/s", eqScheduleCancelTrial},
        {"coherence_txn", "txns/s", coherence},
        {"barriers", "barriers/s", barriersTrial},
    };
    std::vector<std::vector<bench::MicroMetric>> samples(specs.size());
    for (unsigned r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            samples[i].push_back(timed(specs[i].benchmark, specs[i].unit,
                                       min_wall, specs[i].trial));
        }
    }

    std::vector<bench::MicroMetric> metrics;
    for (auto& s : samples)
        metrics.push_back(median(std::move(s)));
    // Simulated end-to-end latency of one transaction: deterministic,
    // must never drift.
    bench::MicroMetric latency;
    latency.benchmark = "coherence_txn_sim_latency";
    latency.unit = "ticks";
    latency.ops = kCoherenceTxns;
    latency.value = static_cast<double>(sim_ticks) /
                    static_cast<double>(kCoherenceTxns);
    metrics.push_back(latency);

    std::ostringstream out;
    for (const auto& m : metrics)
        bench::printMicroJson(out, m);
    // The host the numbers came from: the gate prints it next to the
    // baseline's, since a throughput baseline means little without it.
    obs::JsonWriter host(out);
    host.beginObject();
    host.field("campaign", "simcore")
        .field("kind", "host")
        .field("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()))
        .field("reps", static_cast<std::uint64_t>(reps))
        .field("min_wall_s", min_wall);
    host.endObject();
    out << '\n';
    std::cout << out.str();

    if (!jsonPath.empty()) {
        std::ofstream f(jsonPath);
        if (!f) {
            std::cerr << "cannot write " << jsonPath << "\n";
            return 1;
        }
        f << out.str();
    }
    return 0;
}
