#include "harness/runner.hh"

#include "obs/memprof.hh"
#include "obs/pageprof.hh"
#include "obs/registry.hh"
#include "sim/check.hh"
#include "sim/fault.hh"
#include "sim/placement.hh"

namespace dss {
namespace harness {

namespace {

void
snapshotRegistry(const sim::Machine &machine, const RunOptions &opts)
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
    *opts.registrySnapshot = reg.toJson();
}

} // namespace

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
    if (opts.memProfile)
        opts.memProfile->addTraces(traces);
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

sim::SimStats
runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
        const RunOptions &opts)
{
    sim::Machine machine(cfg);
    machine.setChecker(opts.checker);
    machine.setFaultPlan(opts.faults);
    machine.setPlacement(opts.placement);
    if (opts.memProfile)
        machine.enableSharing(true);
    sim::SimStats stats = runOnMachine(machine, tracePtrs(traces), opts);
    snapshotRegistry(machine, opts);
    return stats;
}

std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            const RunOptions &opts)
{
    sim::Machine machine(cfg);
    machine.setChecker(opts.checker);
    machine.setFaultPlan(opts.faults);
    machine.setPlacement(opts.placement);
    if (opts.memProfile)
        machine.enableSharing(true);
    std::vector<sim::SimStats> out;
    out.reserve(sequence.size());
    for (const TraceSet *traces : sequence)
        out.push_back(runOnMachine(machine, tracePtrs(*traces), opts));
    snapshotRegistry(machine, opts);
    return out;
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

std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            obs::Sampler *sampler, obs::Timeline *timeline,
            obs::Json *registry_snapshot)
{
    RunOptions opts;
    opts.sampler = sampler;
    opts.timeline = timeline;
    opts.registrySnapshot = registry_snapshot;
    return runSequence(cfg, sequence, opts);
}

} // namespace harness
} // namespace dss
