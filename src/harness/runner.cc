#include "harness/runner.hh"

#include <utility>

#include "obs/memprof.hh"
#include "obs/pageprof.hh"
#include "obs/registry.hh"
#include "sim/check.hh"
#include "sim/fault.hh"

namespace dss {
namespace harness {

void
snapshotRegistry(const sim::Machine &machine, const RunOptions &opts,
                 const std::function<void(obs::Registry &)> &extra)
{
    if (!opts.registrySnapshot)
        return;
    obs::Registry reg;
    machine.registerStats(reg);
    if (opts.checker)
        opts.checker->registerStats(reg, "check");
    if (opts.faults)
        opts.faults->registerStats(reg, "fault");
    if (opts.retryStats)
        opts.retryStats->registerStats(reg, "harness.retry");
    if (extra)
        extra(reg);
    *opts.registrySnapshot = reg.toJson();
}

void
wireMachine(sim::Machine &machine, const RunOptions &opts)
{
    machine.setChecker(opts.checker);
    machine.setFaultPlan(opts.faults);
    machine.setPlacement(sim::PlacementPolicy::make(
        opts.placementSpec, machine.placementGeometry(),
        opts.placementSpace, opts.placementHistogram));
    // A profile records one machine geometry; sweep points at another
    // geometry run unprofiled.
    machine.setMemProfile(opts.memProfile &&
                                  opts.memProfile->fits(machine.config())
                              ? opts.memProfile
                              : nullptr);
}

/**
 * One machine run under the retry guard: a FaultPlan may schedule a
 * number of query aborts for this run; each one unwinds as a
 * db::QueryAbort before the simulation starts and is retried with
 * backoff, so the run always eventually completes (the plan schedules
 * strictly fewer aborts than RetryPolicy::maxAttempts allows).
 */
sim::SimStats
runOnMachine(sim::Machine &machine,
             const std::vector<const sim::TraceStream *> &traces,
             const RunOptions &opts)
{
    machine.resetStats(); // per-run home counters (Fig 12 repetitions)
    if (opts.pageProfile)
        opts.pageProfile->addTraces(traces);
    if (opts.faults)
        opts.faults->scheduleQuery();
    return retryOnAbort(
        opts.retry,
        [&]() -> sim::SimStats {
            if (opts.faults && opts.faults->abortScheduled())
                throw db::QueryAbort(db::QueryAbort::Reason::Injected, 0,
                                     -1, "injected fault: query abort");
            return machine.run(traces, opts.sampler, opts.timeline);
        },
        opts.faults, opts.log, opts.retryStats);
}

std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            const RunOptions &opts)
{
    sim::Machine machine(cfg);
    wireMachine(machine, opts);
    std::vector<sim::SimStats> out;
    out.reserve(sequence.size());
    for (const TraceSet *traces : sequence)
        out.push_back(runOnMachine(machine, tracePtrs(*traces), opts));
    snapshotRegistry(machine, opts);
    return out;
}

sim::SimStats
runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
        const RunOptions &opts)
{
    return std::move(runSequence(cfg, {&traces}, opts).front());
}

sim::SimStats
runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
        obs::Sampler *sampler, obs::Timeline *timeline,
        obs::Json *registry_snapshot)
{
    RunOptions opts;
    opts.sampler = sampler;
    opts.timeline = timeline;
    opts.registrySnapshot = registry_snapshot;
    return runCold(cfg, traces, opts);
}

} // namespace harness
} // namespace dss
