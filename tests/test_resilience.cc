/**
 * @file
 * Tests for the stream-resilience layer (src/sched/resilience.*): shed
 * policy parsing, per-class deadline resolution, shed-victim total
 * ordering, the circuit breaker's full state machine (trip, cooldown
 * shed, half-open trial, recovery, re-trip, probe-shed reopen), the
 * lazily materialized OutageTable against the FaultPlan's pure outage
 * function, and the scheduler-level behaviours: deadline timeouts,
 * capacity-0 admission, node-failure migration, rerun identity of a
 * fully resilient stream, registry export, and the clean SimError
 * (guardedMain exit 3) when every processor fails permanently with
 * queries still queued.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/guard.hh"
#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/registry.hh"
#include "sched/resilience.hh"
#include "sched/scheduler.hh"
#include "sim/error.hh"
#include "sim/fault.hh"

namespace {

using namespace dss;
using sched::CircuitBreaker;
using sched::Outcome;
using sched::ShedPolicy;

// ------------------------------------------------------------ config layer

TEST(ShedPolicyModel, ParseAndName)
{
    EXPECT_EQ(sched::parseShedPolicy("newest"), ShedPolicy::RejectNewest);
    EXPECT_EQ(sched::parseShedPolicy("class"), ShedPolicy::RejectByClass);
    EXPECT_EQ(sched::parseShedPolicy("deadline"),
              ShedPolicy::DeadlineAware);
    EXPECT_FALSE(sched::parseShedPolicy("oldest").has_value());
    EXPECT_EQ(sched::shedPolicyName(ShedPolicy::RejectByClass), "class");
}

TEST(ResilienceConfigModel, DeadlineForPrefersClassOverride)
{
    sched::ResilienceConfig cfg;
    cfg.deadline = 1000;
    cfg.classDeadlines = {{tpcd::QueryId::Q12, 5000}};
    EXPECT_EQ(cfg.deadlineFor(tpcd::QueryId::Q12), 5000u);
    EXPECT_EQ(cfg.deadlineFor(tpcd::QueryId::Q6), 1000u);
    // An override can also mean "no deadline for this class".
    cfg.classDeadlines.push_back({tpcd::QueryId::Q3, 0});
    EXPECT_EQ(cfg.deadlineFor(tpcd::QueryId::Q3), 0u);
}

TEST(ResilienceConfigModel, EnabledDetection)
{
    sched::ResilienceConfig off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.breakerOn());

    sched::ResilienceConfig d = off;
    d.deadline = 1;
    EXPECT_TRUE(d.enabled());

    sched::ResilienceConfig q = off;
    q.queueCapacity = 0; // 0 is a real (harsh) capacity, not "off"
    EXPECT_TRUE(q.enabled());

    sched::ResilienceConfig nf = off;
    nf.nodeFailures = true;
    EXPECT_TRUE(nf.enabled());

    sched::ResilienceConfig b = off;
    b.breakerThreshold = 0.5;
    EXPECT_TRUE(b.enabled());
    EXPECT_TRUE(b.breakerOn());
}

// ------------------------------------------------------------- shed victim

/** instances[i].id == i so deadline lookup by id stays aligned. */
std::vector<sched::QueryInstance>
victims(std::vector<std::pair<tpcd::QueryId, sim::Cycles>> specs)
{
    std::vector<sched::QueryInstance> out;
    for (unsigned i = 0; i < specs.size(); ++i) {
        sched::QueryInstance q;
        q.id = i;
        q.query = specs[i].first;
        q.arrival = specs[i].second;
        out.push_back(q);
    }
    return out;
}

TEST(ShedVictimModel, RejectNewestPrefersLatestArrivalThenHighestId)
{
    const auto inst = victims({{tpcd::QueryId::Q6, 100},
                               {tpcd::QueryId::Q6, 300},
                               {tpcd::QueryId::Q6, 200}});
    const std::vector<unsigned> ready = {0, 1, 2};
    const std::vector<sim::Cycles> none(inst.size(), 0);
    EXPECT_EQ(ready[sched::shedVictim(ShedPolicy::RejectNewest, inst,
                                      ready, none)],
              1u);

    // Equal arrivals: the higher id is the newer instance.
    const auto tie = victims({{tpcd::QueryId::Q6, 100},
                              {tpcd::QueryId::Q6, 100},
                              {tpcd::QueryId::Q6, 100}});
    EXPECT_EQ(ready[sched::shedVictim(ShedPolicy::RejectNewest, tie,
                                      ready, none)],
              2u);
}

TEST(ShedVictimModel, RejectByClassPrefersSlowestClassThenNewest)
{
    // Q12 (Mixed) ranks slowest of the traced three; among two Q12s the
    // newer arrival goes.
    const auto inst = victims({{tpcd::QueryId::Q12, 100},
                               {tpcd::QueryId::Q6, 900},
                               {tpcd::QueryId::Q12, 500}});
    const std::vector<unsigned> ready = {0, 1, 2};
    const std::vector<sim::Cycles> none(inst.size(), 0);
    EXPECT_EQ(ready[sched::shedVictim(ShedPolicy::RejectByClass, inst,
                                      ready, none)],
              2u);
}

TEST(ShedVictimModel, DeadlineAwarePrefersTightestKeepsDeadlineFree)
{
    const auto inst = victims({{tpcd::QueryId::Q6, 100},
                               {tpcd::QueryId::Q6, 200},
                               {tpcd::QueryId::Q6, 300}});
    const std::vector<unsigned> ready = {0, 1, 2};
    // Instance 1 has the tightest absolute deadline; instance 2 has none
    // (0) and must be the safest keep even though it is the newest.
    const std::vector<sim::Cycles> deadlines = {5000, 2000, 0};
    EXPECT_EQ(ready[sched::shedVictim(ShedPolicy::DeadlineAware, inst,
                                      ready, deadlines)],
              1u);

    // All deadline-free: falls through to newest.
    const std::vector<sim::Cycles> none(inst.size(), 0);
    EXPECT_EQ(ready[sched::shedVictim(ShedPolicy::DeadlineAware, inst,
                                      ready, none)],
              2u);
}

TEST(ShedVictimModel, ReadySubsetIndexingIsRespected)
{
    // `ready` holds indices into `instances`; the victim is a position
    // in `ready`, not an instance id.
    const auto inst = victims({{tpcd::QueryId::Q6, 900},
                               {tpcd::QueryId::Q6, 100},
                               {tpcd::QueryId::Q6, 500}});
    const std::vector<unsigned> ready = {1, 2}; // instance 0 not queued
    const std::vector<sim::Cycles> none(inst.size(), 0);
    const unsigned v =
        sched::shedVictim(ShedPolicy::RejectNewest, inst, ready, none);
    EXPECT_EQ(v, 1u);           // position in ready...
    EXPECT_EQ(ready[v], 2u);    // ...naming instance 2 (arrival 500)
}

// --------------------------------------------------------- circuit breaker

sched::ResilienceConfig
breakerCfg(double threshold = 0.5, unsigned window = 4,
           sim::Cycles cooldown = 1000)
{
    sched::ResilienceConfig cfg;
    cfg.breakerThreshold = threshold;
    cfg.breakerWindow = window;
    cfg.breakerCooldown = cooldown;
    return cfg;
}

TEST(CircuitBreakerModel, DisabledAlwaysAdmits)
{
    CircuitBreaker cb{sched::ResilienceConfig{}};
    EXPECT_FALSE(cb.enabled());
    for (unsigned i = 0; i < 10; ++i) {
        EXPECT_EQ(cb.onArrival("Q6", i, i), CircuitBreaker::Decision::Admit);
        cb.onResolution("Q6", i, Outcome::Timeout, i);
    }
    EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreakerModel, TripsAtThresholdAndShedsDuringCooldown)
{
    CircuitBreaker cb{breakerCfg(0.5, 4, 1000)};
    // Window fills Ok, Ok, Timeout — below 4 entries, no decision yet.
    cb.onResolution("Q12", 0, Outcome::Ok, 10);
    cb.onResolution("Q12", 1, Outcome::Ok, 20);
    cb.onResolution("Q12", 2, Outcome::Timeout, 30);
    EXPECT_EQ(cb.stateOf("Q12"), CircuitBreaker::State::Closed);
    // Fourth outcome brings the window to 2/4 timeouts = threshold: trip.
    cb.onResolution("Q12", 3, Outcome::Timeout, 40);
    EXPECT_EQ(cb.stateOf("Q12"), CircuitBreaker::State::Open);
    EXPECT_EQ(cb.trips(), 1u);
    // Other classes are independent.
    EXPECT_EQ(cb.stateOf("Q6"), CircuitBreaker::State::Closed);
    EXPECT_EQ(cb.onArrival("Q6", 4, 50), CircuitBreaker::Decision::Admit);
    // During the cooldown every arrival of the tripped class sheds.
    EXPECT_EQ(cb.onArrival("Q12", 5, 41), CircuitBreaker::Decision::Shed);
    EXPECT_EQ(cb.onArrival("Q12", 6, 1039), CircuitBreaker::Decision::Shed);
}

TEST(CircuitBreakerModel, HalfOpenTrialOkRecovers)
{
    CircuitBreaker cb{breakerCfg(0.5, 2, 1000)};
    cb.onResolution("Q3", 0, Outcome::Timeout, 100);
    cb.onResolution("Q3", 1, Outcome::Timeout, 200);
    ASSERT_EQ(cb.stateOf("Q3"), CircuitBreaker::State::Open);
    // Cooldown over (openUntil = 200 + 1000): the next arrival probes,
    // and a second arrival while the probe is in flight still sheds.
    EXPECT_EQ(cb.onArrival("Q3", 2, 1200), CircuitBreaker::Decision::Trial);
    EXPECT_EQ(cb.stateOf("Q3"), CircuitBreaker::State::HalfOpen);
    EXPECT_EQ(cb.onArrival("Q3", 3, 1300), CircuitBreaker::Decision::Shed);
    cb.onResolution("Q3", 2, Outcome::Ok, 1400);
    EXPECT_EQ(cb.stateOf("Q3"), CircuitBreaker::State::Closed);
    EXPECT_EQ(cb.recoveries(), 1u);
    // The recovery cleared the window: one more timeout must not re-trip
    // on stale history.
    cb.onResolution("Q3", 4, Outcome::Timeout, 1500);
    EXPECT_EQ(cb.stateOf("Q3"), CircuitBreaker::State::Closed);
}

TEST(CircuitBreakerModel, TrialTimeoutReTripsWithFullCooldown)
{
    CircuitBreaker cb{breakerCfg(0.5, 2, 1000)};
    cb.onResolution("Q3", 0, Outcome::Timeout, 100);
    cb.onResolution("Q3", 1, Outcome::Timeout, 200);
    EXPECT_EQ(cb.onArrival("Q3", 2, 1200), CircuitBreaker::Decision::Trial);
    cb.onResolution("Q3", 2, Outcome::Timeout, 1400);
    EXPECT_EQ(cb.stateOf("Q3"), CircuitBreaker::State::Open);
    EXPECT_EQ(cb.trips(), 2u);
    EXPECT_EQ(cb.recoveries(), 0u);
    // Full cooldown from the failed probe's resolution cycle.
    EXPECT_EQ(cb.onArrival("Q3", 3, 2399), CircuitBreaker::Decision::Shed);
    EXPECT_EQ(cb.onArrival("Q3", 4, 2400), CircuitBreaker::Decision::Trial);
}

TEST(CircuitBreakerModel, TrialShedReopensWithoutExtraCooldown)
{
    CircuitBreaker cb{breakerCfg(0.5, 2, 1000)};
    cb.onResolution("Q3", 0, Outcome::Timeout, 100);
    cb.onResolution("Q3", 1, Outcome::Timeout, 200);
    EXPECT_EQ(cb.onArrival("Q3", 2, 1200), CircuitBreaker::Decision::Trial);
    // The probe never got service (e.g. its queue slot was shed): the
    // class reopens at `now`, so the very next arrival probes again.
    cb.onResolution("Q3", 2, Outcome::ShedQueue, 1250);
    EXPECT_EQ(cb.stateOf("Q3"), CircuitBreaker::State::Open);
    EXPECT_EQ(cb.onArrival("Q3", 3, 1300), CircuitBreaker::Decision::Trial);
}

TEST(CircuitBreakerModel, ShedsDoNotFeedTheWindow)
{
    CircuitBreaker cb{breakerCfg(0.5, 2, 1000)};
    // Sheds and abandons are not service outcomes: the window must stay
    // empty and the class closed no matter how many resolve.
    for (unsigned i = 0; i < 8; ++i)
        cb.onResolution("Q6", i, Outcome::ShedQueue, i * 10);
    cb.onResolution("Q6", 8, Outcome::Abandoned, 100);
    EXPECT_EQ(cb.stateOf("Q6"), CircuitBreaker::State::Closed);
    EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreakerModel, WindowSlidesBelowThreshold)
{
    CircuitBreaker cb{breakerCfg(0.75, 4, 1000)};
    // 2/4 timeouts < 0.75 threshold: the window slides without tripping.
    const Outcome seq[] = {Outcome::Timeout, Outcome::Ok, Outcome::Timeout,
                           Outcome::Ok,      Outcome::Ok, Outcome::Timeout};
    for (unsigned i = 0; i < 6; ++i)
        cb.onResolution("Q12", i, seq[i], i * 10);
    EXPECT_EQ(cb.stateOf("Q12"), CircuitBreaker::State::Closed);
    EXPECT_EQ(cb.trips(), 0u);
    EXPECT_EQ(cb.stateNames().size(), 1u);
    EXPECT_EQ(cb.stateNames()[0].second, "closed");
}

// ------------------------------------------------------------ outage table

TEST(OutageTableModel, InactiveWithoutPlanOrKind)
{
    sched::OutageTable none;
    EXPECT_FALSE(none.active());
    EXPECT_FALSE(none.coveringOutage(0, 0).has_value());
    EXPECT_EQ(none.nextUpAt(0, 123), 123u);
    EXPECT_EQ(none.degradedCyclesIn(0, 1000000), 0u);

    // A plan whose NodeFailure kind cannot fire is equally inactive.
    sim::FaultConfig fc;
    fc.seed = 7;
    fc.rate = 1.0;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::LatencySpike);
    sim::FaultPlan plan(fc);
    sched::OutageTable t(&plan, 4);
    EXPECT_FALSE(t.active());
    EXPECT_FALSE(t.anyOutageIn(0, sim::FaultPlan::kNever));
}

TEST(OutageTableModel, MatchesThePlanPureFunction)
{
    sim::FaultConfig fc;
    fc.seed = 99;
    fc.rate = 1.0;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
    fc.nodeMeanUpCycles = 500000;
    fc.nodeDownCycles = 100000;
    sim::FaultPlan plan(fc);
    sched::OutageTable t(&plan, 2);
    ASSERT_TRUE(t.active());

    for (sim::ProcId p = 0; p < 2; ++p) {
        for (unsigned k = 0; k < 4; ++k) {
            const auto o = plan.nodeOutage(p, k);
            ASSERT_TRUE(o.has_value());
            ASSERT_LT(o->start, o->end);
            // Queried mid-window the table reports exactly this window.
            const auto mid = t.coveringOutage(p, o->start);
            ASSERT_TRUE(mid.has_value());
            EXPECT_EQ(mid->proc, p);
            EXPECT_EQ(mid->index, k);
            EXPECT_EQ(mid->start, o->start);
            EXPECT_EQ(mid->end, o->end);
            // End cycle is back in service; windows never abut.
            EXPECT_FALSE(t.coveringOutage(p, o->end).has_value());
            EXPECT_EQ(t.nextUpAt(p, o->start), o->end);
            EXPECT_EQ(t.nextUpAt(p, o->end), o->end);
            // The next window follows strictly after this one.
            const auto nxt = t.nextOutageAfter(p, o->start);
            ASSERT_TRUE(nxt.has_value());
            EXPECT_EQ(nxt->index, k + 1);
            EXPECT_GT(nxt->start, o->end);
        }
    }
}

TEST(OutageTableModel, PermanentOutageNeverComesBack)
{
    sim::FaultConfig fc;
    fc.seed = 5;
    fc.rate = 1.0;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
    fc.nodeMeanUpCycles = 200000;
    fc.nodeDownCycles = 0; // permanent
    sim::FaultPlan plan(fc);

    const auto first = plan.nodeOutage(0, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->permanent);
    EXPECT_EQ(first->end, sim::FaultPlan::kNever);
    EXPECT_FALSE(plan.nodeOutage(0, 1).has_value()) << "only k=0 exists";

    sched::OutageTable t(&plan, 1);
    const auto cover = t.coveringOutage(0, first->start + 12345);
    ASSERT_TRUE(cover.has_value());
    EXPECT_TRUE(cover->permanent);
    EXPECT_FALSE(t.nextUpAt(0, first->start).has_value());
    EXPECT_EQ(t.nextUpAt(0, first->start - 1), first->start - 1);
}

TEST(OutageTableModel, DegradedCyclesIsTheUnionOfWindows)
{
    sim::FaultConfig fc;
    fc.seed = 31;
    fc.rate = 1.0;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
    fc.nodeMeanUpCycles = 300000;
    fc.nodeDownCycles = 200000;
    sim::FaultPlan plan(fc);
    sched::OutageTable t(&plan, 4);
    const sim::Cycles span = 4000000;

    // Reference union computed directly from the reported windows.
    const auto ws = t.outagesIn(0, span);
    ASSERT_FALSE(ws.empty());
    sim::Cycles covered = 0, total = 0;
    for (const auto &w : ws) {
        ASSERT_TRUE(w.start < span && w.end > 0) << "window outside range";
        const sim::Cycles s = std::max(w.start, covered);
        const sim::Cycles e = std::min(w.end, span);
        if (e > s)
            total += e - s;
        covered = std::max(covered, e);
    }
    EXPECT_EQ(t.degradedCyclesIn(0, span), total);
    EXPECT_LE(total, span);
    // With 4 procs failing independently the per-proc sum exceeds the
    // union whenever windows overlap; the union must never exceed span.
    EXPECT_TRUE(t.anyOutageIn(0, span));
    EXPECT_FALSE(t.anyOutageIn(0, 1)) << "no outage can start at cycle 0";
}

// ------------------------------------------------- scheduler-level behaviour

/** Shared tiny workload (captures are pure; sharing cannot couple tests). */
class ResilienceSim : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        wl_ = new harness::Workload(tpcd::ScaleConfig::tiny(), 4);
        cache_ = new sched::TraceCache;
    }

    static void TearDownTestSuite()
    {
        delete cache_;
        cache_ = nullptr;
        delete wl_;
        wl_ = nullptr;
    }

    static harness::Workload *wl_;
    static sched::TraceCache *cache_;
};

harness::Workload *ResilienceSim::wl_ = nullptr;
sched::TraceCache *ResilienceSim::cache_ = nullptr;

/** A NodeFailure-only fault config. */
sim::FaultConfig
nodeFaultConfig(std::uint64_t seed, sim::Cycles mean_up, sim::Cycles down)
{
    sim::FaultConfig fc;
    fc.seed = seed;
    fc.rate = 1.0;
    fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
    fc.nodeMeanUpCycles = mean_up;
    fc.nodeDownCycles = down;
    return fc;
}

TEST_F(ResilienceSim, DeadlineTimeoutsAreAccounted)
{
    // Q12 solo needs ~2 Mcyc at tiny scale; a 1 Mcyc deadline times out
    // every instance, deterministically, at exactly arrival + deadline.
    sched::StreamConfig scfg;
    scfg.instances = 3;
    scfg.seed = 4;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 1;
    scfg.mix = {{tpcd::QueryId::Q12, 1}};

    sched::ResilienceConfig res;
    res.deadline = 1000000;

    harness::RunOptions opts;
    sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(), scfg,
                             opts, cache_, res);
    sched::StreamResult r = s.run();

    ASSERT_EQ(r.records.size(), 3u);
    for (const sched::InstanceRecord &rec : r.records) {
        EXPECT_EQ(rec.outcome, Outcome::Timeout);
        EXPECT_EQ(rec.deadline, rec.inst.arrival + res.deadline);
        EXPECT_EQ(rec.complete, rec.deadline)
            << "a timeout resolves at its deadline cycle";
        EXPECT_EQ(rec.attempts, 1u);
    }
    EXPECT_TRUE(r.resilienceEnabled);
    EXPECT_EQ(r.resilience.total.submitted, 3u);
    EXPECT_EQ(r.resilience.total.timeouts, 3u);
    EXPECT_EQ(r.resilience.total.goodput, 0u);
    EXPECT_EQ(r.latency.count, 0u) << "summaries cover goodput only";
    EXPECT_EQ(s.counters().timeouts, 3u);
    EXPECT_EQ(s.counters().completed, 0u);
    EXPECT_DOUBLE_EQ(r.throughputPerMcycle, 0.0);

    // A generous deadline changes nothing but the accounting fields.
    sched::ResilienceConfig loose;
    loose.deadline = 50000000;
    sched::StreamScheduler s2(*wl_, sim::MachineConfig::baseline(), scfg,
                              opts, cache_, loose);
    sched::StreamResult r2 = s2.run();
    EXPECT_EQ(r2.resilience.total.goodput, 3u);
    EXPECT_EQ(r2.latency.count, 3u);
}

TEST_F(ResilienceSim, CapacityZeroShedsWhatCannotDispatchImmediately)
{
    // One processor, four clients arriving at cycle 0: one dispatches,
    // the rest cannot wait anywhere (capacity 0) and are shed at once.
    sched::StreamConfig scfg;
    scfg.instances = 8;
    scfg.seed = 6;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 4;

    sched::ResilienceConfig res;
    res.queueCapacity = 0;

    harness::RunOptions opts;
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 1;
    sched::StreamScheduler s(*wl_, cfg, scfg, opts, cache_, res);
    sched::StreamResult r = s.run();

    const sched::ClassSlo &t = r.resilience.total;
    EXPECT_EQ(t.submitted, 8u);
    EXPECT_EQ(t.goodput + t.shedQueue, 8u)
        << "capacity 0 on one proc: every instance either runs or sheds";
    EXPECT_GT(t.shedQueue, 0u);
    EXPECT_GT(t.goodput, 0u);
    EXPECT_EQ(s.counters().queuePeak, 0u);
    for (const sched::InstanceRecord &rec : r.records) {
        if (rec.outcome != Outcome::ShedQueue)
            continue;
        EXPECT_EQ(rec.attempts, 0u) << "shed instances never dispatched";
        EXPECT_EQ(rec.service, 0u);
        EXPECT_EQ(rec.complete, rec.inst.arrival)
            << "capacity-0 shed resolves at arrival";
    }
}

TEST_F(ResilienceSim, BoundedQueueRespectsCapacityAndShedPolicy)
{
    sched::StreamConfig scfg;
    scfg.instances = 10;
    scfg.seed = 12;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 8; // heavy burst at cycle 0 onto one processor

    sched::ResilienceConfig res;
    res.queueCapacity = 2;
    res.shed = ShedPolicy::RejectByClass;

    harness::RunOptions opts;
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 1;
    sched::StreamScheduler s(*wl_, cfg, scfg, opts, cache_, res);
    sched::StreamResult r = s.run();

    EXPECT_LE(s.counters().queuePeak, 2u);
    const sched::ClassSlo &t = r.resilience.total;
    EXPECT_EQ(t.submitted, 10u);
    EXPECT_GT(t.shedQueue, 0u);
    EXPECT_EQ(t.goodput + t.shedQueue, 10u);
}

TEST_F(ResilienceSim, NodeFailureMigratesToSurvivingProcessor)
{
    // Frequent short outages: some instance is caught mid-service,
    // aborts, and re-dispatches (with backoff) on an in-service node.
    sched::StreamConfig scfg;
    scfg.instances = 8;
    scfg.seed = 42;
    scfg.mode = sched::ArrivalMode::Open;
    scfg.meanInterarrival = 400000;

    sched::ResilienceConfig res;
    res.nodeFailures = true;

    sim::FaultConfig fc = nodeFaultConfig(3, 1500000, 1000000);
    sim::FaultPlan plan(fc);
    harness::RunOptions opts;
    opts.faults = &plan;
    sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(), scfg,
                             opts, cache_, res);
    sched::StreamResult r = s.run();

    EXPECT_GT(s.counters().migrations, 0u)
        << "no instance was ever caught by an outage — retune the fault "
           "config";
    EXPECT_EQ(r.resilience.total.migrations, s.counters().migrations);
    bool saw_migrated_ok = false;
    for (const sched::InstanceRecord &rec : r.records) {
        if (rec.migrations == 0)
            continue;
        EXPECT_GT(rec.attempts, rec.migrations);
        if (rec.outcome == Outcome::Ok) {
            saw_migrated_ok = true;
            EXPECT_TRUE(rec.degraded)
                << "a migrated instance overlapped an outage by definition";
        }
    }
    EXPECT_TRUE(saw_migrated_ok)
        << "expected at least one migrated instance to still complete";
    // The fired outages the stream actually hit are logged on the plan.
    EXPECT_GT(plan.counters()
                  .byKind[static_cast<unsigned>(sim::FaultKind::NodeFailure)],
              0u);
    // Without a deadline nothing can time out; without a queue bound
    // nothing can shed; the migration budget was never exhausted here.
    EXPECT_EQ(r.resilience.total.goodput + r.resilience.total.abandoned,
              8u);
}

TEST_F(ResilienceSim, ResilientStreamIsEngineInvariant)
{
    // The full layer at once: deadlines, bounded queue, breaker, node
    // failures. Fresh per-run caches and fault plans so the *entire*
    // report document — cache stats and fired-outage log included — must
    // serialize byte-identically on a rerun.
    sched::StreamConfig scfg;
    scfg.instances = 10;
    scfg.seed = 17;
    scfg.mode = sched::ArrivalMode::Open;
    scfg.meanInterarrival = 250000;

    sched::ResilienceConfig res;
    res.deadline = 2200000;
    res.queueCapacity = 3;
    res.shed = ShedPolicy::DeadlineAware;
    res.nodeFailures = true;
    res.breakerThreshold = 0.5;
    res.breakerWindow = 2;
    res.breakerCooldown = 500000;

    const sim::FaultConfig fc = nodeFaultConfig(9, 2000000, 1200000);
    auto dump = [&] {
        sim::FaultPlan plan(fc);
        sched::TraceCache fresh;
        harness::RunOptions opts;
        opts.faults = &plan;
        sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(),
                                 scfg, opts, &fresh, res);
        return toJson(s.run(), /*include_run_stats=*/true).dump();
    };

    const std::string first = dump();
    EXPECT_EQ(first, dump());
}

TEST_F(ResilienceSim, RegistryExportsResilienceCounters)
{
    sched::StreamConfig scfg;
    scfg.instances = 3;
    scfg.seed = 4;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 1;
    scfg.mix = {{tpcd::QueryId::Q12, 1}};

    sched::ResilienceConfig res;
    res.deadline = 1000000;

    harness::RunOptions opts;
    sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(), scfg,
                             opts, cache_, res);
    s.run();

    obs::Registry reg;
    s.registerStats(reg);
    EXPECT_EQ(reg.counterValue("sched.instances"), 3u);
    EXPECT_EQ(reg.counterValue("sched.timeouts"), 3u);
    EXPECT_EQ(reg.counterValue("sched.goodput"), 0u);
    EXPECT_EQ(reg.counterValue("sched.migrations"), 0u);
    EXPECT_EQ(reg.counterValue("sched.shed.queue"), 0u);
    EXPECT_EQ(reg.counterValue("sched.breaker.trips"), 0u);
}

TEST_F(ResilienceSim, RetryStatsRegisterUnderHarnessPrefix)
{
    harness::RetryStats stats;
    stats.attempts = 4;
    stats.aborts = 5;
    obs::Registry reg;
    stats.registerStats(reg);
    EXPECT_EQ(reg.counterValue("harness.retry.attempts"), 4u);
    EXPECT_EQ(reg.counterValue("harness.retry.aborts"), 5u);
}

TEST_F(ResilienceSim, LegacyReportHasNoResilienceBlock)
{
    sched::StreamConfig scfg;
    scfg.instances = 2;
    scfg.seed = 2;
    scfg.mode = sched::ArrivalMode::Closed;
    scfg.clients = 2;
    harness::RunOptions opts;
    sched::StreamScheduler s(*wl_, sim::MachineConfig::baseline(), scfg,
                             opts, cache_);
    obs::Json j = toJson(s.run(), false);
    EXPECT_EQ(j.find("resilience"), nullptr);

    sched::ResilienceConfig res;
    res.deadline = 50000000;
    sched::StreamScheduler s2(*wl_, sim::MachineConfig::baseline(), scfg,
                              opts, cache_, res);
    obs::Json j2 = toJson(s2.run(), false);
    ASSERT_NE(j2.find("resilience"), nullptr);
    EXPECT_NE(j2.find("resilience")->find("slo"), nullptr);
}

/** Stream config + doomed fault plan: every processor fails permanently
 * early while arrivals keep coming. */
sched::StreamResult
runDoomedStream(harness::Workload &wl, sched::TraceCache *cache)
{
    sched::StreamConfig scfg;
    scfg.instances = 8;
    scfg.seed = 1;
    scfg.mode = sched::ArrivalMode::Open;
    scfg.meanInterarrival = 100000;

    sched::ResilienceConfig res;
    res.nodeFailures = true;

    const sim::FaultConfig fc = nodeFaultConfig(11, 150000, /*down=*/0);
    sim::FaultPlan plan(fc);
    harness::RunOptions opts;
    opts.faults = &plan;
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 2;
    sched::StreamScheduler s(wl, cfg, scfg, opts, cache, res);
    return s.run();
}

TEST_F(ResilienceSim, AllProcessorsPermanentlyDeadFailsCleanly)
{
    try {
        runDoomedStream(*wl_, cache_);
        FAIL() << "expected sim::SimError";
    } catch (const sim::SimError &e) {
        EXPECT_NE(std::string(e.what()).find("every processor failed"),
                  std::string::npos);
    }
}

TEST_F(ResilienceSim, GuardedMainTurnsStalledStreamIntoExitThree)
{
    // The bench-level contract: the stalled stream surfaces as error
    // JSON + exit 3 (harness::kErrorExitCode), never a hang or abort.
    char arg0[] = "resilience_test";
    char *argv[] = {arg0, nullptr};
    const int rc = harness::guardedMain(
        "resilience_test", 1, argv, [&](int, char **) {
            runDoomedStream(*wl_, cache_);
            return 0;
        });
    EXPECT_EQ(rc, harness::kErrorExitCode);
}

} // namespace
