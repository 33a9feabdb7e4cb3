/**
 * @file
 * Result serde tests: the lossless one-line ExperimentResult
 * serialization that carries a point across the --isolate pipe and
 * into a result store, byte-exact through a store round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/experiment.hh"
#include "harness/posix_io.hh"
#include "harness/result_serde.hh"
#include "sim/logging.hh"
#include "svc/result_cache.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace {

TEST(ResultSerde, RealExperimentRoundTripsLosslessly)
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 3;
    harness::SystemConfig sys = harness::SystemConfig::small(2);
    sys.seed = 5;
    const harness::ExperimentResult r =
        harness::runExperiment(sys, app, harness::ConfigKind::Thrifty);

    const std::string line = harness::serializeResult(r);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const harness::ExperimentResult back =
        harness::deserializeResult(line);

    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.config, r.config);
    EXPECT_EQ(back.execTime, r.execTime);
    EXPECT_EQ(back.totalEnergy(), r.totalEnergy());
    EXPECT_EQ(back.sync.instances, r.sync.instances);
    EXPECT_EQ(back.sync.sleeps, r.sync.sleeps);
    EXPECT_EQ(back.sync.spins, r.sync.spins);

    // Idempotence covers every field the line carries, bit for bit —
    // the byte-identical resume artifact rests on exactly this.
    EXPECT_EQ(harness::serializeResult(back), line);
}

TEST(ResultSerde, EscapedStringsSurviveJournalRoundTrip)
{
    // Every escape class the serializer can emit must come back
    // byte-exact through serialize -> store in the --journal result
    // store -> resume lookup -> deserialize.
    harness::ExperimentResult r;
    r.app = "quote\" slash\\ nl\n tab\t cr\r ctl\x01 end";
    r.config = "Thrifty";
    r.execTime = 123;
    r.threads = 4;
    r.faultSpec = "spec with \"quotes\" and \\u0007: \x07";

    const std::string line = harness::serializeResult(r);
    const std::string dir = testing::TempDir() + "tb_escape_store";
    const std::uint64_t key = harness::fnv1a64("k");
    {
        svc::ResultCache journal;
        ASSERT_TRUE(journal.open(dir, /*required=*/true));
        journal.store(key, line);
    }
    svc::ResultCache journal;
    ASSERT_TRUE(journal.open(dir, /*required=*/true));
    std::string replayed;
    ASSERT_TRUE(journal.lookup(key, &replayed));
    EXPECT_EQ(replayed, line);
    std::remove(journal.entryPath(key).c_str());

    const harness::ExperimentResult back =
        harness::deserializeResult(replayed);
    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.faultSpec, r.faultSpec);
    EXPECT_EQ(harness::serializeResult(back), line);
}

TEST(ResultSerde, RejectsMalformedInput)
{
    EXPECT_THROW(harness::deserializeResult(""), FatalError);
    EXPECT_THROW(harness::deserializeResult("BOGUS1 app=\"x\""),
                 FatalError);
    EXPECT_THROW(harness::deserializeResult("TBRESULT1 app=\"x\""),
                 FatalError);
}

} // namespace
} // namespace tb
