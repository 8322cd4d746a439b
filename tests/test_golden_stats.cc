/**
 * @file
 * Golden-stats regression tests: the full per-processor statistics of the
 * paper's three focus queries (Q3 Index, Q6 Sequential, Q12 Mixed) at the
 * tiny scale, plus two scheduled streams, pinned against checked-in JSON
 * fixtures under tests/golden/.
 *
 * These exist to catch *unintended* behaviour changes: any edit to the
 * caches, directory, write buffer, lock model or replay loop that moves
 * a single counter fails loudly here. When a change is intended,
 * regenerate the fixtures (scripts/regen_golden.sh, or run this binary
 * with DSS_REGEN_GOLDEN=1) and review the fixture diff like code.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/stats_json.hh"
#include "sched/scheduler.hh"
#include "sim/fault.hh"
#include "tpcd/queries.hh"

#ifndef DSS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DSS_GOLDEN_DIR"
#endif

namespace {

using namespace dss;

std::string
goldenPath(const std::string &name)
{
    return std::string(DSS_GOLDEN_DIR) + "/" + name;
}

/**
 * Compare @p actual with fixture @p fixture (or rewrite the fixture when
 * DSS_REGEN_GOLDEN is set); @p what names the run in the failure message.
 */
void
expectFixture(const std::string &actual, const std::string &fixture,
              const std::string &what)
{
    const std::string path = goldenPath(fixture);
    if (std::getenv("DSS_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is) << "missing fixture " << path
                    << " (run scripts/regen_golden.sh)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(want.str(), actual)
        << what << " diverged from " << path
        << "; if intended, regenerate with scripts/regen_golden.sh";
}

void
checkGolden(tpcd::QueryId q, const std::string &fixture)
{
    // A fresh workload per check: tracing a query reads through the live
    // database engine, so traces (and therefore stats) depend on what ran
    // before in this process. Fresh state keeps every fixture independent
    // of test ordering and sharding.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(q);
    sim::SimStats stats =
        harness::runCold(sim::MachineConfig::baseline(), traces);
    expectFixture(obs::toJson(stats).dump(2) + "\n", fixture,
                  "stats for " + tpcd::queryName(q));
}

TEST(GoldenStats, Q3Seq)
{
    checkGolden(tpcd::QueryId::Q3, "q3_seq.json");
}

TEST(GoldenStats, Q6Seq)
{
    checkGolden(tpcd::QueryId::Q6, "q6_seq.json");
}

TEST(GoldenStats, Q12Seq)
{
    checkGolden(tpcd::QueryId::Q12, "q12_seq.json");
}

/**
 * Stream golden: a pinned open-loop stream (8 instances, seed 42, FIFO,
 * trace cache on) through the scheduler, full per-instance statistics
 * included.
 */
TEST(GoldenStats, StreamSeq)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    sched::StreamConfig scfg;
    scfg.instances = 8;
    scfg.seed = 42;
    scfg.mode = sched::ArrivalMode::Open;
    scfg.meanInterarrival = 500000;
    scfg.policy = sched::Policy::Fifo;
    scfg.paramVariants = 2;

    sched::TraceCache cache;
    sched::StreamScheduler sched(wl, sim::MachineConfig::baseline(), scfg,
                                 harness::RunOptions{}, &cache);
    expectFixture(toJson(sched.run(), true).dump(2) + "\n",
                  "stream_seq.json", "stream stats");
}

/**
 * Resilient-stream golden: the full resilience layer at once — a binding
 * deadline, a bounded run queue, the per-class breaker, and seeded node
 * failures with migration.
 */
TEST(GoldenStats, StreamResilienceSeq)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    sched::StreamConfig scfg;
    scfg.instances = 10;
    scfg.seed = 42;
    scfg.mode = sched::ArrivalMode::Open;
    scfg.meanInterarrival = 300000;
    scfg.policy = sched::Policy::Fifo;
    scfg.paramVariants = 2;

    sched::ResilienceConfig res;
    res.deadline = 2200000;
    res.queueCapacity = 3;
    res.shed = sched::ShedPolicy::DeadlineAware;
    res.nodeFailures = true;
    res.breakerThreshold = 0.5;
    res.breakerWindow = 2;
    res.breakerCooldown = 500000;

    sim::FaultConfig fc;
    fc.seed = 7;
    fc.rate = 1.0;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
    fc.nodeMeanUpCycles = 2000000;
    fc.nodeDownCycles = 1200000;
    sim::FaultPlan plan(fc);

    harness::RunOptions opts;
    opts.faults = &plan;
    sched::TraceCache cache;
    sched::StreamScheduler sched(wl, sim::MachineConfig::baseline(), scfg,
                                 opts, &cache, res);
    expectFixture(toJson(sched.run(), true).dump(2) + "\n",
                  "stream_resilience_seq.json", "resilient stream stats");
}

} // namespace
