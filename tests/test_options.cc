/**
 * @file
 * Regression tests for the bench flag layer: BenchOptions::parse must
 * never silently accept an argument. Unknown flags, flags outside the
 * binary's declared subset, and malformed values all exit(2) with a
 * diagnostic; --help exits(0). (An earlier version of the harness
 * ignored anything it did not recognize, so `--scale=tiny` typos ran the
 * default configuration without a word.)
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/options.hh"
#include "sim/error.hh"
#include "sim/spec.hh"

namespace {

using namespace dss;
using harness::BenchOptions;

/** argv helper: parse() wants mutable char* in the usual main() shape. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        ptrs.push_back(const_cast<char *>("bench"));
        for (std::string &s : strings)
            ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

BenchOptions
parseArgs(std::vector<std::string> args, unsigned flags = BenchOptions::kAll)
{
    Argv a(std::move(args));
    return BenchOptions::parse(a.argc(), a.argv(), "bench", flags);
}

TEST(BenchOptionsDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(parseArgs({"--bogus"}), testing::ExitedWithCode(2),
                "unknown option '--bogus'");
}

TEST(BenchOptionsDeath, MisspelledFlagIsFatal)
{
    // The regression that motivated this file: a typo used to fall
    // through silently and the bench ran with defaults.
    EXPECT_EXIT(parseArgs({"--engin", "par"}), testing::ExitedWithCode(2),
                "unknown option '--engin'");
}

TEST(BenchOptionsDeath, PositionalArgumentIsFatal)
{
    EXPECT_EXIT(parseArgs({"par"}), testing::ExitedWithCode(2),
                "unknown option 'par'");
}

TEST(BenchOptionsDeath, FlagOutsideDeclaredSubsetIsFatal)
{
    EXPECT_EXIT(parseArgs({"--json", "out.json"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "not supported by this bench");
}

TEST(BenchOptionsDeath, MissingValueIsFatal)
{
    EXPECT_EXIT(parseArgs({"--json"}), testing::ExitedWithCode(2),
                "requires a value");
}

TEST(BenchOptionsDeath, BadEpochValueIsFatal)
{
    EXPECT_EXIT(parseArgs({"--epoch", "0"}), testing::ExitedWithCode(2),
                "positive count");
    EXPECT_EXIT(parseArgs({"--epoch", "8k"}), testing::ExitedWithCode(2),
                "positive count");
}

TEST(BenchOptionsDeath, BadScaleIsFatal)
{
    EXPECT_EXIT(parseArgs({"--scale", "huge"}), testing::ExitedWithCode(2),
                "unknown --scale 'huge'");
}

TEST(BenchOptionsDeath, HelpExitsZero)
{
    // (usage goes to stdout, which EXPECT_EXIT does not capture — the
    // exit code is the assertion here.)
    EXPECT_EXIT(parseArgs({"--help"}), testing::ExitedWithCode(0), "");
}

TEST(BenchOptions, DefaultsToPaperScale)
{
    BenchOptions o = parseArgs({});
    EXPECT_EQ(o.scale, "paper");
}

TEST(BenchOptions, CheckAndFaultFlagsParse)
{
    BenchOptions o = parseArgs(
        {"--check", "--fault-seed", "42", "--fault-rate", "0.01"});
    EXPECT_TRUE(o.check);
    EXPECT_EQ(o.faultSeed, 42u);
    EXPECT_DOUBLE_EQ(o.faultRate, 0.01);

    sim::FaultConfig fc = o.faultConfig();
    EXPECT_EQ(fc.seed, 42u);
    EXPECT_DOUBLE_EQ(fc.rate, 0.01);
}

TEST(BenchOptions, RobustnessFlagsDefaultOff)
{
    BenchOptions o = parseArgs({});
    EXPECT_FALSE(o.check);
    EXPECT_EQ(o.faultSeed, 0u);
    EXPECT_DOUBLE_EQ(o.faultRate, 0.0);
}

TEST(BenchOptionsDeath, MalformedFaultRateIsFatal)
{
    EXPECT_EXIT(parseArgs({"--fault-rate", "lots"}),
                testing::ExitedWithCode(2),
                "--fault-rate needs a probability");
    EXPECT_EXIT(parseArgs({"--fault-rate", "1.5"}),
                testing::ExitedWithCode(2),
                "--fault-rate needs a probability");
    EXPECT_EXIT(parseArgs({"--fault-rate", "-0.1"}),
                testing::ExitedWithCode(2),
                "--fault-rate needs a probability");
}

TEST(BenchOptionsDeath, MalformedFaultSeedIsFatal)
{
    EXPECT_EXIT(parseArgs({"--fault-seed", "12x"}),
                testing::ExitedWithCode(2),
                "--fault-seed needs an integer");
}

TEST(BenchOptions, PlacementFlagsParse)
{
    BenchOptions o = parseArgs({"--placement", "class-affinity:2",
                                "--page-profile", "hist.json"});
    EXPECT_EQ(o.placement.kind, sim::PlacementKind::ClassAffinity);
    EXPECT_EQ(o.placement.arg, "2");
    EXPECT_EQ(o.pageProfilePath, "hist.json");
}

TEST(BenchOptions, PlacementDefaultsToInterleave)
{
    BenchOptions o = parseArgs({});
    EXPECT_EQ(o.placement.kind, sim::PlacementKind::Interleave);
    EXPECT_TRUE(o.pageProfilePath.empty());
}

TEST(BenchOptionsDeath, UnknownPlacementPolicyIsFatal)
{
    EXPECT_EXIT(parseArgs({"--placement", "round-robin"}),
                testing::ExitedWithCode(2),
                "unknown --placement 'round-robin'");
    // profile without a histogram path is malformed, not a default.
    EXPECT_EXIT(parseArgs({"--placement", "profile"}),
                testing::ExitedWithCode(2), "unknown --placement");
}

TEST(BenchOptionsDeath, PlacementFlagsOutsideDeclaredSubsetAreFatal)
{
    EXPECT_EXIT(parseArgs({"--placement", "interleave"},
                          BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--placement' is not supported");
    EXPECT_EXIT(parseArgs({"--page-profile", "h.json"},
                          BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--page-profile' is not supported");
}

TEST(BenchOptions, MemprofFlagParses)
{
    BenchOptions off = parseArgs({});
    EXPECT_FALSE(off.memprof);
    EXPECT_EQ(off.memprofTopN, 20u);

    BenchOptions on = parseArgs({"--memprof"});
    EXPECT_TRUE(on.memprof);
    EXPECT_EQ(on.memprofTopN, 20u);

    BenchOptions topn = parseArgs({"--memprof=7"});
    EXPECT_TRUE(topn.memprof);
    EXPECT_EQ(topn.memprofTopN, 7u);
}

TEST(BenchOptionsDeath, MalformedMemprofCountIsFatal)
{
    EXPECT_EXIT(parseArgs({"--memprof=0"}), testing::ExitedWithCode(2),
                "--memprof=N needs a positive count");
    EXPECT_EXIT(parseArgs({"--memprof=lots"}), testing::ExitedWithCode(2),
                "--memprof=N needs a positive count");
    EXPECT_EXIT(parseArgs({"--memprof="}), testing::ExitedWithCode(2),
                "--memprof=N needs a positive count");
}

TEST(BenchOptionsDeath, MemprofOutsideDeclaredSubsetIsFatal)
{
    EXPECT_EXIT(parseArgs({"--memprof"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--memprof' is not supported");
}

TEST(BenchOptionsDeath, RobustnessFlagsOutsideDeclaredSubsetAreFatal)
{
    EXPECT_EXIT(parseArgs({"--check"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--check' is not supported");
    EXPECT_EXIT(parseArgs({"--fault-rate", "0.1"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--fault-rate' is not supported");
}

TEST(BenchOptions, StreamFlagsParse)
{
    BenchOptions o = parseArgs(
        {"--stream", "24", "--stream-seed", "7", "--stream-policy",
         "shortest", "--trace-cache", "off"},
        BenchOptions::kAll | BenchOptions::kStream);
    EXPECT_EQ(o.streamInstances, 24u);
    EXPECT_EQ(o.streamSeed, 7u);
    EXPECT_EQ(o.streamPolicy, "shortest");
    EXPECT_FALSE(o.traceCache);
}

TEST(BenchOptions, StreamFlagsDefault)
{
    BenchOptions o = parseArgs({}, BenchOptions::kAll | BenchOptions::kStream);
    EXPECT_EQ(o.streamInstances, 0u) << "0 = the bench's own default";
    EXPECT_EQ(o.streamSeed, 42u);
    EXPECT_EQ(o.streamPolicy, "fifo");
    EXPECT_TRUE(o.traceCache);
}

TEST(BenchOptionsDeath, MalformedStreamFlagsAreFatal)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream;
    EXPECT_EXIT(parseArgs({"--stream", "0"}, f), testing::ExitedWithCode(2),
                "--stream");
    EXPECT_EXIT(parseArgs({"--stream-seed", "9x"}, f),
                testing::ExitedWithCode(2),
                "--stream-seed needs an integer");
    EXPECT_EXIT(parseArgs({"--stream-policy", "sjf"}, f),
                testing::ExitedWithCode(2),
                "unknown --stream-policy 'sjf'");
    EXPECT_EXIT(parseArgs({"--trace-cache", "maybe"}, f),
                testing::ExitedWithCode(2), "--trace-cache needs on|off");
}

TEST(BenchOptionsDeath, StreamFlagsOutsideKAllAreFatal)
{
    // kStream is deliberately NOT part of kAll: the single-shot figure
    // binaries must keep rejecting the stream flags.
    EXPECT_EXIT(parseArgs({"--stream", "8"}), testing::ExitedWithCode(2),
                "option '--stream' is not supported");
    EXPECT_EXIT(parseArgs({"--trace-cache", "on"}),
                testing::ExitedWithCode(2),
                "option '--trace-cache' is not supported");
}

TEST(BenchOptions, TraceCacheBoundParses)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream;
    BenchOptions o = parseArgs({"--trace-cache", "16"}, f);
    EXPECT_TRUE(o.traceCache);
    EXPECT_EQ(o.traceCacheCapacity, 16u);

    BenchOptions unbounded = parseArgs({"--trace-cache", "on"}, f);
    EXPECT_TRUE(unbounded.traceCache);
    EXPECT_EQ(unbounded.traceCacheCapacity, 0u) << "0 = unbounded";
}

TEST(BenchOptionsDeath, MalformedTraceCacheBoundIsFatal)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream;
    EXPECT_EXIT(parseArgs({"--trace-cache", "0"}, f),
                testing::ExitedWithCode(2),
                "--trace-cache needs on\\|off or a positive entry bound");
    EXPECT_EXIT(parseArgs({"--trace-cache", "16x"}, f),
                testing::ExitedWithCode(2),
                "--trace-cache needs on\\|off or a positive entry bound");
}

TEST(BenchOptions, ResilienceFlagsParse)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream |
                       BenchOptions::kResilience;
    BenchOptions o = parseArgs({"--deadline", "2500000", "--queue-cap",
                                "4", "--shed", "deadline", "--breaker",
                                "0.5"},
                               f);
    EXPECT_EQ(o.deadlineCycles, 2500000u);
    EXPECT_EQ(o.queueCapacity, 4u);
    EXPECT_EQ(o.shedPolicy, "deadline");
    EXPECT_DOUBLE_EQ(o.breakerThreshold, 0.5);

    // Capacity 0 is a real value (shed whatever cannot start at once).
    EXPECT_EQ(parseArgs({"--queue-cap", "0"}, f).queueCapacity, 0u);
}

TEST(BenchOptions, ResilienceFlagsDefaultOff)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream |
                       BenchOptions::kResilience;
    BenchOptions o = parseArgs({}, f);
    EXPECT_EQ(o.deadlineCycles, 0u);
    EXPECT_EQ(o.queueCapacity, ~std::uint64_t{0}) << "unbounded sentinel";
    EXPECT_EQ(o.shedPolicy, "newest");
    EXPECT_DOUBLE_EQ(o.breakerThreshold, 0.0);
}

TEST(BenchOptionsDeath, MalformedResilienceFlagsAreFatal)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream |
                       BenchOptions::kResilience;
    EXPECT_EXIT(parseArgs({"--deadline", "0"}, f),
                testing::ExitedWithCode(2), "--deadline");
    EXPECT_EXIT(parseArgs({"--queue-cap", "4x"}, f),
                testing::ExitedWithCode(2), "--queue-cap needs a count");
    EXPECT_EXIT(parseArgs({"--shed", "oldest"}, f),
                testing::ExitedWithCode(2), "unknown --shed 'oldest'");
    EXPECT_EXIT(parseArgs({"--breaker", "0"}, f),
                testing::ExitedWithCode(2),
                "--breaker needs a rate in \\(0,1\\]");
    EXPECT_EXIT(parseArgs({"--breaker", "1.5"}, f),
                testing::ExitedWithCode(2),
                "--breaker needs a rate in \\(0,1\\]");
}

TEST(BenchOptions, MachineFlagParses)
{
    BenchOptions o = parseArgs({"--machine", "modern"},
                               BenchOptions::kAll | BenchOptions::kMachine);
    EXPECT_EQ(o.machine, "modern");
}

TEST(BenchOptions, MachineDefaultsToPaper1997)
{
    BenchOptions o = parseArgs({}, BenchOptions::kAll |
                                       BenchOptions::kMachine);
    EXPECT_EQ(o.machine, "paper1997");
}

TEST(BenchOptionsDeath, MachineListExitsZero)
{
    // The preset list goes to stdout (the matcher only sees stderr).
    EXPECT_EXIT(parseArgs({"--machine", "list"},
                          BenchOptions::kAll | BenchOptions::kMachine),
                testing::ExitedWithCode(0), "");
}

TEST(BenchOptionsDeath, MachineOutsideDeclaredSubsetIsFatal)
{
    // kMachine is not part of kAll: only harness::benchMain ORs it in.
    EXPECT_EXIT(parseArgs({"--machine", "modern"}),
                testing::ExitedWithCode(2),
                "option '--machine' is not supported");
}

/** The validation bugfix: geometry mistakes that used to silently mangle
 * set indices now throw a structured SimError naming the field. */
TEST(MachineValidation, RejectsNonPowerOfTwoCacheSize)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.l2().sizeBytes = 100 * 1000; // not a power of two
    EXPECT_THROW(cfg.validate(), sim::SimError);
    EXPECT_THROW(sim::Machine m(cfg), sim::SimError);
}

TEST(MachineValidation, RejectsLineLargerThanCache)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.l1().sizeBytes = 32;
    cfg.l1().lineBytes = 64; // line exceeds capacity
    EXPECT_THROW(cfg.validate(), sim::SimError);
}

TEST(MachineValidation, RejectsNonPowerOfTwoLine)
{
    EXPECT_THROW(sim::MachineConfig::baseline().withLineSize(96),
                 sim::SimError);
}

TEST(MachineValidation, RejectsUndersizedCacheSizes)
{
    // 16-byte L1 cannot hold even one 32 B line.
    EXPECT_THROW(sim::MachineConfig::baseline().withCacheSizes(16, 1 << 20),
                 sim::SimError);
}

TEST(MachineValidation, RejectsNonMonotoneLatencies)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.lat.localMem = 300;
    cfg.lat.remote2Hop = 249; // 2-hop below local memory
    EXPECT_THROW(cfg.validate(), sim::SimError);
}

TEST(MachineValidation, ErrorCarriesStructuredDump)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.l2().sizeBytes = 3000;
    try {
        cfg.validate();
        FAIL() << "expected SimError";
    } catch (const sim::SimError &e) {
        const obs::Json &d = e.dump();
        ASSERT_NE(d.find("field"), nullptr);
        EXPECT_EQ(d.find("field")->asString(), "l2.sizeBytes");
        EXPECT_NE(std::string(e.what()).find("power of two"),
                  std::string::npos);
    }
}

TEST(BenchOptionsDeath, ResilienceFlagsOutsideDeclaredSubsetAreFatal)
{
    // kResilience is not part of kAll: single-shot figure binaries keep
    // rejecting the resilience flags.
    EXPECT_EXIT(parseArgs({"--deadline", "1000"}),
                testing::ExitedWithCode(2),
                "option '--deadline' is not supported");
    EXPECT_EXIT(parseArgs({"--queue-cap", "4"}),
                testing::ExitedWithCode(2),
                "option '--queue-cap' is not supported");
    EXPECT_EXIT(parseArgs({"--shed", "newest"}),
                testing::ExitedWithCode(2),
                "option '--shed' is not supported");
    EXPECT_EXIT(parseArgs({"--breaker", "0.5"}),
                testing::ExitedWithCode(2),
                "option '--breaker' is not supported");
}

TEST(BenchOptions, VerifyFlagsParse)
{
    BenchOptions o = parseArgs({"--verify-procs", "3", "--verify-lines",
                                "2", "--verify-wb", "2", "--verify-depth",
                                "5", "--verify-mutant", "all"},
                               BenchOptions::kVerify);
    EXPECT_EQ(o.verifyProcs, 3u);
    EXPECT_EQ(o.verifyLines, 2u);
    EXPECT_EQ(o.verifyWb, 2u);
    EXPECT_EQ(o.verifyDepth, 5u);
    EXPECT_EQ(o.verifyMutant, -1);
    o = parseArgs({"--verify-mutant", "2"}, BenchOptions::kVerify);
    EXPECT_EQ(o.verifyMutant, 2);
}

TEST(BenchOptions, VerifyFlagsDefault)
{
    BenchOptions o = parseArgs({}, BenchOptions::kVerify);
    EXPECT_EQ(o.verifyProcs, 2u);
    EXPECT_EQ(o.verifyLines, 2u);
    EXPECT_EQ(o.verifyWb, 1u);
    EXPECT_EQ(o.verifyDepth, 0u);
    EXPECT_EQ(o.verifyMutant, 0);
}

TEST(BenchOptionsDeath, VerifyFlagsOutsideKAllAreFatal)
{
    // kVerify is not part of kAll: only the model-checker bench opts in.
    EXPECT_EXIT(parseArgs({"--verify-procs", "2"}),
                testing::ExitedWithCode(2),
                "option '--verify-procs' is not supported");
    EXPECT_EXIT(parseArgs({"--verify-mutant", "1"}),
                testing::ExitedWithCode(2),
                "option '--verify-mutant' is not supported");
}

TEST(BenchOptionsDeath, MalformedVerifyMutantIsFatal)
{
    EXPECT_EXIT(parseArgs({"--verify-mutant", "9"}, BenchOptions::kVerify),
                testing::ExitedWithCode(2), "needs 1-4 or 'all'");
    EXPECT_EXIT(parseArgs({"--verify-mutant", "x"}, BenchOptions::kVerify),
                testing::ExitedWithCode(2), "needs 1-4 or 'all'");
}

} // namespace
