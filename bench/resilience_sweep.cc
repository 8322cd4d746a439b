/**
 * @file
 * Resilience sweep: the query-stream scheduler under node failures and
 * overload, demonstrating graceful degradation.
 *
 * Sweeps node-failure rate x offered load (open-loop arrival gap) with
 * the full resilience layer on: per-query deadlines, a bounded run queue
 * with load shedding, bounded-backoff migration off failed processors,
 * and the per-class circuit breaker. The resilience layer is a pure
 * function of (stream seed, fault seed, config), so a rerun reproduces
 * the report byte for byte (scripts/check.sh --resilience compares two).
 *
 * Hard per-point invariants (any violation exits nonzero):
 *
 *  - bounded queue: the run-queue peak never exceeds --queue-cap
 *  - conservation: every instance resolves exactly once (goodput +
 *    timeouts + sheds + abandoned == instances)
 *  - goodput <= instances, and degradation is graceful: goodput stays
 *    positive at every swept failure rate
 *  - breaker recovery: a class whose breaker tripped during the failure
 *    window recovers (a half-open probe closed it) by stream end
 *
 * Knobs: the stream flags (--stream, --stream-seed, --stream-policy,
 * --trace-cache) plus the resilience flags (--deadline, --queue-cap,
 * --shed, --breaker) and --fault-seed for the outage schedule.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "sched/scheduler.hh"

using namespace dss;

namespace {

struct PointResult
{
    sched::StreamResult result;
    sched::StreamScheduler::Counters counters;
};

PointResult
runPoint(harness::Workload &wl, const sim::MachineConfig &cfg,
         const sched::StreamConfig &scfg,
         const sched::ResilienceConfig &res, const sim::FaultConfig &fc,
         sched::TraceCache *cache, harness::RunOptions ro)
{
    // A fresh plan per point keeps the fired-outage log per point; the
    // windows themselves are a pure function of the seed. The fault rate
    // is this sweep's axis, so the point's plan replaces the session's.
    sim::FaultPlan plan(fc);
    ro.faults = fc.rate > 0.0 ? &plan : nullptr;
    sched::StreamScheduler sched(wl, cfg, scfg, ro, cache, res);
    PointResult out;
    out.result = sched.run();
    out.counters = sched.counters();
    return out;
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    const unsigned instances =
        opts.streamInstances ? opts.streamInstances : 16;
    const auto policy = sched::parsePolicy(opts.streamPolicy);
    if (!policy) {
        std::cerr << "resilience_sweep: bad --stream-policy\n";
        return 2;
    }

    // Defaults sized to the tiny-scale service-time distribution
    // (p50 ~0.9 Mcyc, Q12 straggler ~2 Mcyc): the deadline is generous
    // at light load and binding once queues or outages inflate the tail.
    sched::ResilienceConfig res;
    res.deadline = opts.deadlineCycles ? opts.deadlineCycles : 2500000;
    res.queueCapacity =
        opts.queueCapacity != ~std::uint64_t{0}
            ? static_cast<unsigned>(opts.queueCapacity)
            : 4;
    if (auto sp = sched::parseShedPolicy(opts.shedPolicy))
        res.shed = *sp;
    res.nodeFailures = true;
    res.breakerThreshold =
        opts.breakerThreshold > 0.0 ? opts.breakerThreshold : 0.5;
    res.breakerWindow = 4;
    res.breakerCooldown = 500000;

    std::cout << "=== Resilience sweep: node failures x offered load ("
              << instances << " instances, seed " << opts.streamSeed
              << ", deadline " << res.deadline << ", queue cap "
              << res.queueCapacity << ", shed "
              << sched::shedPolicyName(res.shed) << ") ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.wireMemprof(cfg, &wl.db().catalog());
    session.setDatabase(wl.db().space());

    // Captures are pure, so the shared cache never influences simulated
    // results.
    sched::TraceCache cache(opts.traceCacheCapacity);
    sched::TraceCache *cacheP = opts.traceCache ? &cache : nullptr;

    sched::StreamConfig base;
    base.instances = instances;
    base.seed = opts.streamSeed;
    base.policy = *policy;
    base.mode = sched::ArrivalMode::Open;

    const double rate_sweep[] = {0.0, 0.5, 1.0};
    const sim::Cycles gap_sweep[] = {1000000, 500000, 250000, 125000};

    harness::TextTable tab({"gap", "rate", "outages", "goodput", "timeout",
                            "shed", "aband", "migr", "qpeak", "trips",
                            "recov", "p95(ok)"});
    obs::Json &figure = session.extra();
    unsigned violations = 0;
    auto violate = [&](const std::string &what) {
        std::cerr << "resilience_sweep: INVARIANT VIOLATION: " << what
                  << '\n';
        ++violations;
    };

    for (sim::Cycles gap : gap_sweep) {
        for (double rate : rate_sweep) {
            sched::StreamConfig scfg = base;
            scfg.meanInterarrival = gap;

            sim::FaultConfig fc = opts.faultConfig();
            fc.rate = rate;
            fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
            fc.nodeMeanUpCycles = 6000000;
            fc.nodeDownCycles = 1500000;

            PointResult pt = runPoint(wl, cfg, scfg, res, fc, cacheP,
                                      session.runOptions());
            const std::string label = "gap" + std::to_string(gap) +
                                      " rate" + harness::fixed(rate, 2);

            const sched::ResilienceReport &rep = pt.result.resilience;
            const sched::ClassSlo &t = rep.total;
            const std::uint64_t shed_total =
                t.shedQueue + t.shedBreaker + t.shedExpired;
            if (pt.counters.queuePeak > res.queueCapacity)
                violate(label + ": queue peak " +
                        std::to_string(pt.counters.queuePeak) +
                        " exceeds capacity " +
                        std::to_string(res.queueCapacity));
            if (t.submitted != instances ||
                t.goodput + t.timeouts + shed_total + t.abandoned !=
                    t.submitted)
                violate(label + ": outcome accounting does not sum to " +
                        std::to_string(instances));
            if (t.goodput > instances)
                violate(label + ": goodput exceeds offered instances");
            if (t.goodput == 0)
                violate(label + ": goodput collapsed to zero");
            if (rep.breakerTrips > 0 && rep.breakerRecoveries == 0)
                violate(label + ": breaker tripped but never recovered");
            if (rate == 0.0 && !rep.outages.empty())
                violate(label + ": outages reported at rate 0");

            tab.addRow({std::to_string(gap), harness::fixed(rate, 2),
                        std::to_string(rep.outages.size()),
                        std::to_string(t.goodput),
                        std::to_string(t.timeouts),
                        std::to_string(shed_total),
                        std::to_string(t.abandoned),
                        std::to_string(t.migrations),
                        std::to_string(pt.counters.queuePeak),
                        std::to_string(rep.breakerTrips),
                        std::to_string(rep.breakerRecoveries),
                        harness::fixed(pt.result.latency.p95, 0)});

            if (session.wantJson()) {
                obs::Json point =
                    toJson(pt.result, /*include_run_stats=*/false);
                point["label"] = label;
                point["gap"] = obs::Json(gap);
                point["rate"] = obs::Json(rate);
                figure["points"].push(std::move(point));
            }
        }
    }

    tab.print(std::cout);

    // Breaker life-cycle scenario: a long failure window shrinks the
    // machine while arrivals keep coming, the slow classes' timeout rate
    // crosses the threshold and trips their breakers, and once the nodes
    // return a half-open probe closes them again. Trips AND recoveries
    // are hard requirements here — this is the path the sweep's lighter
    // points may not reach.
    std::cout << "\nBreaker life cycle under a failure window\n";
    {
        sched::StreamConfig scfg = base;
        scfg.instances = std::max(instances, 24u);
        scfg.meanInterarrival = 300000;

        sched::ResilienceConfig bres = res;
        bres.deadline = 2200000;
        bres.queueCapacity = 12;
        bres.breakerCooldown = 500000;

        sim::FaultConfig fc = opts.faultConfig();
        fc.rate = 1.0;
        fc.kinds = sim::FaultConfig::bitOf(sim::FaultKind::NodeFailure);
        fc.nodeMeanUpCycles = 2000000;
        fc.nodeDownCycles = 2000000;

        PointResult pt = runPoint(wl, cfg, scfg, bres, fc, cacheP,
                                  session.runOptions());
        const sched::ResilienceReport &rep = pt.result.resilience;
        if (rep.breakerTrips == 0)
            violate("breaker scenario: breaker never tripped");
        if (rep.breakerRecoveries == 0)
            violate("breaker scenario: breaker never recovered");
        std::cout << "  outages=" << rep.outages.size()
                  << " degraded_cycles=" << rep.degradedCycles
                  << " timeouts=" << rep.total.timeouts
                  << " shed_breaker=" << rep.total.shedBreaker
                  << " trips=" << rep.breakerTrips
                  << " recoveries=" << rep.breakerRecoveries << '\n';
        for (const auto &kv : rep.breakerStates)
            std::cout << "  class " << kv.first << ": " << kv.second
                      << " at stream end\n";
        if (session.wantJson()) {
            obs::Json point =
                toJson(pt.result, /*include_run_stats=*/false);
            point["label"] = obs::Json(std::string("breaker_lifecycle"));
            figure["breaker_lifecycle"] = std::move(point);
        }
    }

    // The report schema expects a standard "runs" array; anchor it with
    // one solo run per traced query (also warms the shared cache).
    for (tpcd::QueryId q :
         {tpcd::QueryId::Q3, tpcd::QueryId::Q6, tpcd::QueryId::Q12}) {
        sched::StreamConfig solo = base;
        solo.instances = 1;
        solo.mix = {{q, 1}};
        solo.paramVariants = 1;
        sched::StreamScheduler s(wl, cfg, solo, session.runOptions(),
                                 cacheP);
        sched::StreamResult r = s.run();
        session.addRun("solo " + tpcd::queryName(q),
                       r.records.front().stats);
    }

    std::cout << "\nVerdict: "
              << (violations == 0
                      ? "resilient — bounded queues, conserved outcomes, "
                        "breaker recovery at every swept point"
                      : "FAILED — " + std::to_string(violations) +
                            " invariant violation(s), see stderr")
              << ".\n";

    bool ok = session.finish(cfg, std::cerr);
    return ok && violations == 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("resilience_sweep", argc, argv,
                              harness::BenchOptions::kAll |
                                  harness::BenchOptions::kStream |
                                  harness::BenchOptions::kResilience,
                              run);
}
