#include "harness/campaign_cli.hh"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

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
        "       [--backoff-ms N] [--isolate] [--journal DIR] "
        "[--resume]\n"
        "       [--out FILE] [--manifest FILE] [--only-point I]\n"
        "       [--trace FILE[:categories]] [--stats-json FILE]\n"
        "       [--cache DIR]\n",
        prog, complaint, prog, allowQuick ? "[--quick] " : "");
    std::exit(2);
}

std::uint64_t
optionU64(const char* prog, const char* opt, const char* text,
          bool allowQuick, std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    std::string err;
    if (!parseU64(text, max, &v, &err))
        usage(prog, ("option " + std::string(opt) + ": " + err).c_str(),
              allowQuick);
    return v;
}

} // namespace

bool
parseU64(const char* text, std::uint64_t max, std::uint64_t* out,
         std::string* err)
{
    // strtoull alone would take a sign, leading space and (base 0) an
    // octal or hex prefix; only plain digits reach it here.
    bool digits = *text != '\0';
    for (const char* c = text; *c != '\0'; ++c)
        digits = digits && *c >= '0' && *c <= '9';
    if (!digits) {
        *err = std::string(1, '\'') + text +
               "' is not a non-negative decimal integer";
        return false;
    }
    errno = 0;
    const unsigned long long v = std::strtoull(text, nullptr, 10);
    if (errno == ERANGE || v > max) {
        *err = std::string(text) + " is out of range [0, " +
               std::to_string(max) + "]";
        return false;
    }
    *out = v;
    return true;
}

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
            o.policy.jobs = static_cast<unsigned>(optionU64(
                prog, "--jobs", value(i), allowQuick, UINT_MAX));
            if (o.policy.jobs == 0)
                usage(prog, "option --jobs: must be >= 1", allowQuick);
        } else if (opt == "--sim-threads") {
            o.simThreads = static_cast<unsigned>(optionU64(
                prog, "--sim-threads", value(i), allowQuick, UINT_MAX));
            if (o.simThreads == 0) {
                usage(prog, "option --sim-threads: must be >= 1",
                      allowQuick);
            }
        } else if (opt == "--sim-partitions") {
            o.simPartitions = static_cast<unsigned>(
                optionU64(prog, "--sim-partitions", value(i),
                          allowQuick, UINT_MAX));
            if (o.simPartitions == 0) {
                usage(prog, "option --sim-partitions: must be >= 1",
                      allowQuick);
            }
        } else if (opt == "--deadline-ms") {
            o.policy.deadlineMs = optionU64(
                prog, "--deadline-ms", value(i), allowQuick, kMaxOptionMs);
        } else if (opt == "--retries") {
            // 1 + N attempts must fit.
            o.policy.maxAttempts =
                1 + static_cast<unsigned>(optionU64(
                        prog, "--retries", value(i), allowQuick,
                        UINT_MAX - 1u));
        } else if (opt == "--backoff-ms") {
            o.policy.backoffBaseMs = optionU64(
                prog, "--backoff-ms", value(i), allowQuick, kMaxOptionMs);
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
            o.onlyPoint = static_cast<long>(optionU64(
                prog, "--only-point", value(i), allowQuick, LONG_MAX));
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
        } else if (opt == "--cache") {
            o.cacheDir = value(i);
            if (o.cacheDir.empty())
                usage(prog, "option --cache needs a directory",
                      allowQuick);
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
        usage(prog, "--resume requires --journal DIR", allowQuick);
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
