/**
 * @file
 * Experiment runner: simulate trace sets on Machine configurations, cold
 * or warm (the warm-start chaining of the paper's Figure 12), optionally
 * observed by the obs layer (epoch sampler, Chrome-trace timeline, and a
 * counter-registry snapshot).
 */

#ifndef DSS_HARNESS_RUNNER_HH
#define DSS_HARNESS_RUNNER_HH

#include <functional>
#include <iosfwd>
#include <vector>

#include "harness/guard.hh"
#include "harness/workload.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"

namespace dss {
namespace obs {
class Json;
class MemProfile;
class PageProfile;
class Registry;
class Sampler;
class Timeline;
} // namespace obs

namespace sim {
class AddressSpace;
class FaultPlan;
class InvariantChecker;
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
    /**
     * Page-placement recipe (sim/placement.hh): wireMachine builds each
     * machine its own policy from this spec at the machine's geometry,
     * so first-touch claims persist within one machine (a warm chain, a
     * stream) and never between machines. class-affinity classifies
     * pages by placementSpace (the traced database's address space) and
     * profile homes them by placementHistogram; a missing input is an
     * error, never a silent interleave.
     */
    sim::PlacementSpec placementSpec;
    const sim::AddressSpace *placementSpace = nullptr;
    const std::vector<sim::PageAccessCounts> *placementHistogram = nullptr;
    /** Per-page access histogram collector (--page-profile). */
    obs::PageProfile *pageProfile = nullptr;
    /** Line-level memory profiler (--memprof), attached to every machine
     * of its geometry; the machine records its own misses into it and
     * its per-proc miss.cohe.{true,false} counters come alive. */
    obs::MemProfile *memProfile = nullptr;
    RetryPolicy retry;
    std::ostream *log = nullptr; ///< retry/abort notes; null = quiet
    /** Retry/abort accounting; registered into the snapshot registry as
     * harness.retry.{attempts,aborts} when given. */
    RetryStats *retryStats = nullptr;
};

/**
 * Wire @p machine from @p opts: invariant checker, fault plan, its own
 * placement policy built from opts.placementSpec, and the memory
 * profile when it fits the machine's geometry. These are per-machine,
 * not per-run; runSequence and the stream scheduler (src/sched/) both
 * wire their machine with this. Throws std::runtime_error when the spec
 * lacks its input (class-affinity without placementSpace, profile
 * without placementHistogram).
 */
void wireMachine(sim::Machine &machine, const RunOptions &opts);

/**
 * Write @p machine's counter registry into opts.registrySnapshot (no-op
 * when null), together with the checker, fault plan and retry stats of
 * @p opts and whatever @p extra registers (the stream scheduler's trace
 * cache and sched.* counters).
 */
void snapshotRegistry(const sim::Machine &machine, const RunOptions &opts,
                      const std::function<void(obs::Registry &)> &extra =
                          {});

/**
 * One guarded run on a caller-owned machine: reset the per-run lifetime
 * stats, feed the page profiler, schedule and retry
 * FaultPlan-injected aborts, and replay @p traces. This
 * is the primitive runSequence chains per trace set — exposed so
 * the stream scheduler (src/sched/) can drive many back-to-back query
 * instances on one warm machine it wires up itself (wireMachine).
 */
sim::SimStats runOnMachine(sim::Machine &machine,
                           const std::vector<const sim::TraceStream *> &traces,
                           const RunOptions &opts);

/**
 * Simulate a sequence of trace sets on one fresh machine, fully wired
 * via @p opts, without flushing caches between them (Fig 12: "caches
 * warmed up with another execution"). The sampler and timeline, when
 * given, observe every run of the chain: epoch samples carry their run
 * index, and timeline runs are laid out back-to-back on the trace time
 * axis. FaultPlan-scheduled query aborts are retried with bounded
 * backoff. The registry snapshot, when requested, is taken after the
 * last run.
 *
 * @return per-run statistics, in order.
 */
std::vector<sim::SimStats>
runSequence(const sim::MachineConfig &cfg,
            const std::vector<const TraceSet *> &sequence,
            const RunOptions &opts = {});

/** Simulate @p traces on a fresh machine (cold caches): a one-element
 * runSequence. */
sim::SimStats runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
                      const RunOptions &opts = {});

/**
 * runCold with only the observers: an epoch @p sampler, a @p timeline,
 * and a @p registry_snapshot JSON object the machine's full counter
 * registry is written into after the run. Any may be null; @p sampler
 * has no default so two-argument calls pick the RunOptions overload.
 */
sim::SimStats runCold(const sim::MachineConfig &cfg, const TraceSet &traces,
                      obs::Sampler *sampler,
                      obs::Timeline *timeline = nullptr,
                      obs::Json *registry_snapshot = nullptr);

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_RUNNER_HH
