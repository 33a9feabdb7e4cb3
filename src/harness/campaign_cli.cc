#include "harness/campaign_cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tb {
namespace harness {

namespace {

[[noreturn]] void
usage(const char* prog, const char* complaint, bool allowQuick)
{
    std::fprintf(
        stderr,
        "%s: %s\n"
        "usage: %s %s[--jobs N] [--sim-threads N] [--sim-partitions P]\n"
        "       [--deadline-ms N] [--retries N]\n"
        "       [--backoff-ms N] [--isolate] [--journal FILE] "
        "[--resume]\n"
        "       [--out FILE] [--manifest FILE] [--only-point I]\n"
        "       [--trace FILE[:categories]] [--stats-json FILE]\n"
        "       [--serve ADDR | --worker ADDR] [--cache DIR]\n"
        "       [--lease-ms N] [--heartbeat-ms N] [--worker-name S]\n"
        "       [--net-faults SPEC] [--reconnect-ms N]\n",
        prog, complaint, prog, allowQuick ? "[--quick] " : "");
    std::exit(2);
}

std::uint64_t
parseU64(const char* prog, const char* opt, const char* text,
         bool allowQuick)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-') != nullptr) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "option %s: '%s' is not a non-negative integer",
                      opt, text);
        usage(prog, buf, allowQuick);
    }
    return v;
}

} // namespace

CampaignOptions
CampaignOptions::parse(int argc, char** argv, bool allowQuick)
{
    CampaignOptions o;
    const char* prog = argc > 0 ? argv[0] : "campaign";

    const auto operand = [&](int& i, const char* opt) -> const char* {
        if (i + 1 >= argc) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "option %s needs a value", opt);
            usage(prog, buf, allowQuick);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        // Accept --opt=value by splitting in place.
        std::string opt = arg;
        const char* inline_val = nullptr;
        const std::size_t eq = opt.find('=');
        if (eq != std::string::npos && opt.compare(0, 2, "--") == 0) {
            inline_val = arg + eq + 1;
            opt.resize(eq);
        }
        const auto value = [&](int& idx) {
            return inline_val ? inline_val
                              : operand(idx, opt.c_str());
        };

        if (opt == "--jobs") {
            o.policy.jobs = static_cast<unsigned>(
                parseU64(prog, "--jobs", value(i), allowQuick));
            if (o.policy.jobs == 0)
                usage(prog, "option --jobs: must be >= 1", allowQuick);
        } else if (opt == "--sim-threads") {
            o.simThreads = static_cast<unsigned>(
                parseU64(prog, "--sim-threads", value(i), allowQuick));
            if (o.simThreads == 0) {
                usage(prog, "option --sim-threads: must be >= 1",
                      allowQuick);
            }
        } else if (opt == "--sim-partitions") {
            o.simPartitions = static_cast<unsigned>(parseU64(
                prog, "--sim-partitions", value(i), allowQuick));
            if (o.simPartitions == 0) {
                usage(prog, "option --sim-partitions: must be >= 1",
                      allowQuick);
            }
        } else if (opt == "--deadline-ms") {
            o.policy.deadlineMs =
                parseU64(prog, "--deadline-ms", value(i), allowQuick);
        } else if (opt == "--retries") {
            o.policy.maxAttempts =
                1 + static_cast<unsigned>(
                        parseU64(prog, "--retries", value(i), allowQuick));
        } else if (opt == "--backoff-ms") {
            o.policy.backoffBaseMs =
                parseU64(prog, "--backoff-ms", value(i), allowQuick);
        } else if (opt == "--isolate") {
            o.policy.isolate = true;
        } else if (opt == "--journal") {
            o.journalPath = value(i);
        } else if (opt == "--resume") {
            o.resume = true;
        } else if (opt == "--out") {
            o.outPath = value(i);
        } else if (opt == "--manifest") {
            o.manifestPath = value(i);
        } else if (opt == "--only-point") {
            o.onlyPoint = static_cast<long>(
                parseU64(prog, "--only-point", value(i), allowQuick));
        } else if (opt == "--trace") {
            // FILE[:categories] — the first ':' splits the two.
            const std::string spec = value(i);
            const std::size_t colon = spec.find(':');
            o.tracePath = spec.substr(0, colon);
            if (o.tracePath.empty()) {
                usage(prog, "option --trace needs a file name",
                      allowQuick);
            }
            if (colon != std::string::npos &&
                !obs::parseCategories(spec.substr(colon + 1),
                                      &o.traceMask)) {
                char buf[160];
                std::snprintf(
                    buf, sizeof(buf),
                    "option --trace: bad category list '%s' "
                    "(known: sim,mem,noc,thrifty,all)",
                    spec.substr(colon + 1).c_str());
                usage(prog, buf, allowQuick);
            }
        } else if (opt == "--stats-json") {
            o.statsJsonPath = value(i);
            if (o.statsJsonPath.empty()) {
                usage(prog, "option --stats-json needs a file name",
                      allowQuick);
            }
        } else if (opt == "--serve") {
            o.serveAddr = value(i);
            if (o.serveAddr.empty())
                usage(prog, "option --serve needs an address",
                      allowQuick);
        } else if (opt == "--worker") {
            o.workerAddr = value(i);
            if (o.workerAddr.empty())
                usage(prog, "option --worker needs an address",
                      allowQuick);
        } else if (opt == "--cache") {
            o.cacheDir = value(i);
            if (o.cacheDir.empty())
                usage(prog, "option --cache needs a directory",
                      allowQuick);
        } else if (opt == "--lease-ms") {
            o.leaseMs =
                parseU64(prog, "--lease-ms", value(i), allowQuick);
        } else if (opt == "--heartbeat-ms") {
            o.heartbeatMs = parseU64(prog, "--heartbeat-ms", value(i),
                                     allowQuick);
            if (o.heartbeatMs == 0) {
                usage(prog, "option --heartbeat-ms: must be >= 1",
                      allowQuick);
            }
        } else if (opt == "--worker-name") {
            o.workerName = value(i);
        } else if (opt == "--net-faults") {
            o.netFaultsSpec = value(i);
            if (o.netFaultsSpec.empty()) {
                usage(prog, "option --net-faults needs a spec",
                      allowQuick);
            }
        } else if (opt == "--reconnect-ms") {
            o.reconnectMs =
                parseU64(prog, "--reconnect-ms", value(i), allowQuick);
        } else if (opt == "--quick" && allowQuick) {
            o.quick = true;
        } else {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "unknown option '%s'",
                          arg);
            usage(prog, buf, allowQuick);
        }
    }

    if (o.resume && o.journalPath.empty())
        usage(prog, "--resume requires --journal FILE", allowQuick);
    if (!o.serveAddr.empty() && !o.workerAddr.empty()) {
        usage(prog, "--serve and --worker are mutually exclusive",
              allowQuick);
    }
    if (!o.workerAddr.empty() && o.onlyPoint >= 0) {
        usage(prog, "--worker and --only-point are mutually exclusive",
              allowQuick);
    }
    if (!o.netFaultsSpec.empty() && o.workerAddr.empty()) {
        usage(prog, "--net-faults requires --worker ADDR",
              allowQuick);
    }
    return o;
}

std::string
CampaignOptions::reproFlags() const
{
    std::string flags;
    if (quick)
        flags += " --quick";
    if (policy.isolate)
        flags += " --isolate";
    // Unlike --sim-threads, the partition count selects the
    // simulation plan and so shapes results: a repro command must
    // carry it. Left unset it means the serial default, which a
    // repro command gets without the flag.
    if (simPartitions != 0)
        flags += " --sim-partitions " + std::to_string(simPartitions);
    return flags;
}

} // namespace harness
} // namespace tb
