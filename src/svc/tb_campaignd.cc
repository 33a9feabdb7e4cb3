/**
 * @file
 * Generic campaign daemon: serve any point space over TBF1 without
 * linking the campaign in. The key table (per-point config hashes) is
 * uploaded by the first worker's Keys frame; later workers must match
 * its fingerprint. Accepted artifacts are concatenated in point order
 * to stdout (or --out); the service summary goes to stdout, the
 * failure manifest and crash ledger to stderr (or --manifest).
 * --journal DIR is a result store every accepted point lands in;
 * with --resume the daemon restarts from it, leasing only the points
 * it lacks.
 *
 *   tb_campaignd --listen ADDR --count N [--journal DIR [--resume]]
 *                [--cache DIR] [--lease-ms N] [--heartbeat-ms N]
 *                [--retries N] [--backoff-ms N] [--name S]
 *                [--out FILE] [--manifest FILE]
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "harness/campaign_supervisor.hh"
#include "harness/posix_io.hh"
#include "sim/logging.hh"
#include "svc/campaignd.hh"
#include "svc/net.hh"
#include "svc/result_cache.hh"

namespace {

[[noreturn]] void
usage(const char* complaint)
{
    std::fprintf(
        stderr,
        "tb_campaignd: %s\n"
        "usage: tb_campaignd --listen ADDR --count N\n"
        "       [--journal DIR [--resume]] [--cache DIR]\n"
        "       [--lease-ms N] [--heartbeat-ms N] [--retries N]\n"
        "       [--backoff-ms N] [--name S] [--out FILE] "
        "[--manifest FILE]\n",
        complaint);
    std::exit(2);
}

std::uint64_t
parseU64(const char* opt, const char* text)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-') != nullptr) {
        std::string msg = std::string("option ") + opt + ": '" +
                          text + "' is not a non-negative integer";
        usage(msg.c_str());
    }
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tb;

    svc::ServiceOptions so;
    so.campaign = "campaignd";
    std::size_t count = 0;
    std::string journalPath, cacheDir, outPath, manifestPath;
    bool resume = false;

    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage((std::string("option ") + opt +
                       " needs a value")
                          .c_str());
            }
            return argv[++i];
        };
        if (opt == "--listen")
            so.listen = value();
        else if (opt == "--count")
            count = static_cast<std::size_t>(
                parseU64("--count", value()));
        else if (opt == "--journal")
            journalPath = value();
        else if (opt == "--resume")
            resume = true;
        else if (opt == "--cache")
            cacheDir = value();
        else if (opt == "--lease-ms")
            so.queue.leaseMs = parseU64("--lease-ms", value());
        else if (opt == "--heartbeat-ms")
            so.heartbeatMs = parseU64("--heartbeat-ms", value());
        else if (opt == "--retries") {
            const std::uint64_t n = parseU64("--retries", value());
            if (n >= std::numeric_limits<unsigned>::max())
                usage("option --retries: out of range");
            so.queue.maxAttempts = 1 + static_cast<unsigned>(n);
        }
        else if (opt == "--backoff-ms")
            so.queue.backoffBaseMs = parseU64("--backoff-ms", value());
        else if (opt == "--name")
            so.campaign = value();
        else if (opt == "--out")
            outPath = value();
        else if (opt == "--manifest")
            manifestPath = value();
        else
            usage((std::string("unknown option '") + opt + "'")
                      .c_str());
    }
    if (so.listen.empty() || !svc::validServiceAddress(so.listen))
        usage("--listen needs unix:PATH or tcp:HOST:PORT");
    if (count == 0)
        usage("--count must be >= 1");
    if (resume && journalPath.empty())
        usage("--resume requires --journal DIR");
    if (so.heartbeatMs == 0)
        usage("--heartbeat-ms must be >= 1");

    try {
        svc::ResultCache journal;
        if (!journalPath.empty())
            journal.open(journalPath, /*required=*/true);
        svc::ResultCache cache;
        if (!cacheDir.empty())
            cache.open(cacheDir);
        svc::CampaignStores stores(&journal, resume, &cache);

        harness::CampaignSupervisor::installSigintHandler();
        svc::CampaignService service(so);
        service.attachStores(&stores);

        const harness::SupervisorReport report = service.run(count);

        std::string artifact;
        for (const std::string& r : service.results())
            artifact += r;
        std::cout << artifact;
        std::cout << report.summaryJson(so.campaign)
                  << service.stats().summaryJson(so.campaign)
                  << std::flush;

        std::ostringstream manifest;
        report.writeManifest(manifest, so.campaign);
        service.ledger().writeJsonl(manifest, so.campaign);
        if (!manifest.str().empty())
            std::cerr << manifest.str() << std::flush;
        if (!manifestPath.empty()) {
            if (!report.ok() || !service.ledger().empty())
                harness::writeFileAtomic(manifestPath,
                                         manifest.str());
            else
                std::remove(manifestPath.c_str());
        }
        if (!outPath.empty() && !report.interrupted)
            harness::writeFileAtomic(outPath, artifact);

        if (report.interrupted)
            return 130;
        return report.failures() == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tb_campaignd: %s\n", e.what());
        return 1;
    }
}
