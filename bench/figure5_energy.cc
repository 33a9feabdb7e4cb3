/**
 * @file
 * Reproduces Figure 5: normalized energy consumption of the ten
 * SPLASH-2-like applications under the five configurations
 * (Baseline, Thrifty-Halt, Oracle-Halt, Thrifty, Ideal), broken into
 * Compute / Spin / Transition / Sleep, plus the Section 5.1 headline
 * averages over the five target applications.
 *
 *   figure5_energy [--jobs N] [--deadline-ms N] [--retries N]
 *                  [--backoff-ms N] [--isolate] [--journal DIR]
 *                  [--resume] [--out FILE] [--manifest FILE]
 *                  [--only-point I] [--cache DIR]
 *
 * The 50 (app x configuration) simulations run under the campaign
 * supervisor: sharded over --jobs threads, optionally deadline-bounded
 * / retried / forked per point, and stored in the --journal result
 * store so an interrupted run resumes with byte-identical output (see
 * docs/ROBUSTNESS.md, "Supervised campaigns").
 */

#include <iostream>
#include <sstream>

#include "bench_util.hh"

int
main(int argc, char** argv)
{
    using namespace tb;
    const harness::CampaignOptions opts =
        harness::CampaignOptions::parse(argc, argv,
                                        /*allowQuick=*/false);
    harness::CampaignSupervisor::installSigintHandler();
    const harness::SystemConfig sys =
        harness::SystemConfig::paperDefault();
    const auto apps = workloads::paperApps();
    harness::ObsCapture capture(opts, "figure5_energy");

    if (opts.onlyPoint >= 0) {
        const auto kinds = bench::figureConfigs();
        const std::size_t count = apps.size() * kinds.size();
        if (static_cast<std::size_t>(opts.onlyPoint) >= count) {
            std::cerr << "--only-point " << opts.onlyPoint
                      << " out of range [0, " << count << ")\n";
            return 2;
        }
        const std::size_t a = opts.onlyPoint / kinds.size();
        const std::size_t k = opts.onlyPoint % kinds.size();
        harness::RunOptions ro;
        harness::ObsCapture::PointScope scope;
        capture.arm(opts.onlyPoint, &ro, &scope);
        const harness::ExperimentResult r =
            harness::runExperiment(sys, apps[a], kinds[k], ro);
        capture.deposit(opts.onlyPoint, r, &scope,
                        apps[a].name + "/" +
                            harness::configName(kinds[k]));
        std::cout << harness::serializeResult(r) << '\n';
        if (capture.statsEnabled())
            std::cout << capture.predictionSummaryJson();
        capture.writeFiles();
        return 0;
    }

    bench::banner("Figure 5 — normalized energy consumption", sys);

    std::vector<std::vector<harness::ExperimentResult>> groups;
    const svc::CampaignRun run = bench::runAppConfigMatrixSupervised(
        sys, apps, opts, "figure5_energy", &groups,
        &capture);
    const harness::SupervisorReport& report = run.report;

    std::ostringstream artifact;
    if (report.failures() == 0 && !report.interrupted) {
        for (const auto& group : groups) {
            harness::report::printBreakdownGroup(artifact, group,
                                                 /*use_energy=*/true);
            harness::report::printStackedBars(artifact, group,
                                              /*use_energy=*/true);
            artifact << '\n';
        }
        harness::report::printSummary(artifact, groups,
                                      workloads::targetAppNames());
        artifact
            << "\nPaper reference (Section 5.1): Thrifty saves "
               "~17% energy on the five target\napplications at "
               "~2% slowdown; Thrifty-Halt saves ~11%. Shapes to "
               "check: energy\nordering I <= T <= H <= B on "
               "imbalanced apps, FFT/Cholesky == Baseline, Ocean\n"
               "slightly above Baseline.\n";
        std::cout << artifact.str() << std::flush;
    } else {
        std::cout << "figure withheld: " << report.failures()
                  << " point failure(s)"
                  << (report.interrupted ? ", interrupted" : "")
                  << " — see the failure manifest\n";
    }

    return bench::finishSupervisedCampaign(opts, run,
                                           "figure5_energy",
                                           artifact.str(), &capture);
}
