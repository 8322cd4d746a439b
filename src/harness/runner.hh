/**
 * @file
 * Experiment runner: simulate trace sets on Machine configurations, cold
 * or warm (the warm-start chaining of the paper's Figure 12), optionally
 * observed by the obs layer (epoch sampler, Chrome-trace timeline, and a
 * counter-registry snapshot).
 */

#ifndef DSS_HARNESS_RUNNER_HH
#define DSS_HARNESS_RUNNER_HH

#include <iosfwd>
#include <vector>

#include "harness/guard.hh"
#include "harness/workload.hh"
#include "sim/machine.hh"

namespace dss {
namespace obs {
class Json;
class MemProfile;
class PageProfile;
class Sampler;
class Timeline;
} // namespace obs

namespace sim {
class FaultPlan;
class InvariantChecker;
class PlacementPolicy;
} // namespace sim

namespace harness {

/**
 * Everything a run can be wired up with, in one bundle: observers (sampler / timeline / registry snapshot), robustness hooks
 * (invariant checker, fault plan, retry policy for injected query
 * aborts) and a stream for retry notes. All pointers are optional and
 * borrowed.
 */
struct RunOptions
{
    obs::Sampler *sampler = nullptr;
    obs::Timeline *timeline = nullptr;
    obs::Json *registrySnapshot = nullptr;
    sim::InvariantChecker *checker = nullptr;
    sim::FaultPlan *faults = nullptr;
    /** Page-placement policy (sim/placement.hh); null = the machine's
     * default interleave. Mutable: first-touch resolves per run. */
    sim::PlacementPolicy *placement = nullptr;
    /** Per-page access histogram collector (--page-profile). */
    obs::PageProfile *pageProfile = nullptr;
    /** Line-level memory profiler (--memprof). Feeding it also enables
     * the machine's word-granular sharing tracker, so the registry's
     * per-proc miss.cohe.{true,false} counters come alive. */
    obs::MemProfile *memProfile = nullptr;
    RetryPolicy retry;
    std::ostream *log = nullptr; ///< retry/abort notes; null = quiet
    /** Retry/abort accounting; registered into the snapshot registry as
     * harness.retry.{attempts,aborts} when given. */
    RetryStats *retryStats = nullptr;
};

/** Simulate @p traces on a fresh machine, fully wired via @p opts.
 * FaultPlan-scheduled query aborts are retried with bounded backoff. */
sim::SimStats runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
                      const RunOptions &opts);

/**
 * One guarded run on a caller-owned machine: reset the per-run lifetime
 * stats, feed the page/memory profilers, schedule and retry
 * FaultPlan-injected aborts, and replay @p traces. This
 * is the primitive runCold/runSequence chain per trace set — exposed so
 * the stream scheduler (src/sched/) can drive many back-to-back query
 * instances on one warm machine it wires up itself (setChecker,
 * setFaultPlan, setPlacement are the caller's responsibility; they are
 * per-machine, not per-run).
 */
sim::SimStats runOnMachine(sim::Machine &machine,
                           const std::vector<const sim::TraceStream *> &traces,
                           const RunOptions &opts);

/** Warm-chained sequence (Fig 12), fully wired via @p opts. */
std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            const RunOptions &opts);

/**
 * Simulate @p traces on a fresh machine with @p cfg (cold caches).
 *
 * @param sampler  Optional epoch sampler receiving counter deltas.
 * @param timeline Optional timeline receiving busy/stall/lock spans.
 * @param registry_snapshot When non-null, the machine's full counter
 *        registry (per-proc stats, cache/write-buffer/directory/lock
 *        counters) is snapshotted into this JSON object after the run.
 */
sim::SimStats runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
                      obs::Sampler *sampler = nullptr,
                      obs::Timeline *timeline = nullptr,
                      obs::Json *registry_snapshot = nullptr);

/**
 * Simulate a sequence of trace sets on one machine without flushing caches
 * between them (Fig 12: "caches warmed up with another execution"). The
 * sampler and timeline, when given, observe every run of the chain: epoch
 * samples carry their run index, and timeline runs are laid out
 * back-to-back on the trace time axis.
 *
 * @return per-run statistics, in order.
 */
std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            obs::Sampler *sampler = nullptr,
            obs::Timeline *timeline = nullptr,
            obs::Json *registry_snapshot = nullptr);

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_RUNNER_HH
