/**
 * @file
 * Generic campaign worker: lease points from a tb_campaignd and run
 * an arbitrary command per point, capturing its stdout as the
 * artifact. The per-point config hash is derived from the command
 * line, so every worker of one campaign must be launched with the
 * same command — a mismatched worker is rejected at Hello.
 *
 *   tb_worker --connect ADDR --count N [--name S]
 *             [--net-faults SPEC] [--reconnect-ms N] -- CMD [ARGS...]
 *
 * Per lease of point I the worker runs `CMD ARGS... --only-point I`
 * (the repro-mode surface every campaign binary already has); a
 * non-zero exit becomes a PointError frame, never a dead worker.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/posix_io.hh"
#include "sim/logging.hh"
#include "svc/net.hh"
#include "svc/worker.hh"

namespace {

[[noreturn]] void
usage(const char* complaint)
{
    std::fprintf(stderr,
                 "tb_worker: %s\n"
                 "usage: tb_worker --connect ADDR --count N "
                 "[--name S]\n"
                 "       [--net-faults SPEC] [--reconnect-ms N] "
                 "-- CMD [ARGS...]\n",
                 complaint);
    std::exit(2);
}

/** Run @p cmd, capture stdout; throws FatalError on non-zero exit. */
std::string
runCommand(const std::string& cmd)
{
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        tb::fatal("cannot run '", cmd, "'");
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = ::pclose(pipe);
    if (status != 0)
        tb::fatal("'", cmd, "' exited with status ", status,
                  (out.empty() ? "" : ": " + out));
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tb;

    svc::WorkerOptions wo;
    std::vector<std::string> cmd;

    int i = 1;
    for (; i < argc; ++i) {
        const std::string opt = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage((std::string("option ") + opt +
                       " needs a value")
                          .c_str());
            }
            return argv[++i];
        };
        if (opt == "--connect")
            wo.connect = value();
        else if (opt == "--count")
            wo.count = static_cast<std::size_t>(
                std::strtoull(value(), nullptr, 10));
        else if (opt == "--name")
            wo.name = value();
        else if (opt == "--net-faults")
            wo.netFaults = svc::NetFaultSpec::parse(value());
        else if (opt == "--reconnect-ms")
            wo.reconnectWaitMs =
                std::strtoull(value(), nullptr, 10);
        else if (opt == "--") {
            ++i;
            break;
        } else {
            usage((std::string("unknown option '") + opt + "'")
                      .c_str());
        }
    }
    for (; i < argc; ++i)
        cmd.push_back(argv[i]);

    if (wo.connect.empty() || !svc::validServiceAddress(wo.connect))
        usage("--connect needs unix:PATH or tcp:HOST:PORT");
    if (wo.count == 0)
        usage("--count must be >= 1");
    if (cmd.empty())
        usage("a command is required after --");

    std::string base;
    for (const std::string& part : cmd)
        base += (base.empty() ? "" : " ") + part;

    // Key = hash of (command line, point index): every worker running
    // the same command agrees, anything else is fingerprint-rejected.
    wo.keys.resize(wo.count);
    for (std::size_t p = 0; p < wo.count; ++p) {
        wo.keys[p] = harness::fnv1a64(base + "|point:" +
                                      std::to_string(p));
    }

    svc::CampaignWorker worker(wo);
    std::string err;
    const bool ok = worker.run(
        [&](std::size_t point) {
            return runCommand(base + " --only-point " +
                              std::to_string(point));
        },
        &err);
    if (wo.netFaults.enabled()) {
        const std::string line =
            worker.faultCounters().summaryJson(worker.name());
        std::fprintf(stderr, "%s", line.c_str());
    }
    if (!ok) {
        std::fprintf(stderr, "tb_worker: %s\n", err.c_str());
        return 1;
    }
    return 0;
}
