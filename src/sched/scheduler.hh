/**
 * @file
 * Deterministic query-stream scheduler: admits a seeded arrival stream
 * of query instances onto the N processors of one warm simulated
 * machine, queueing instances when every processor is busy, and accounts
 * per-instance latency plus stream-level tail statistics.
 *
 * Determinism argument (DESIGN.md §15, proven by tests/test_sched.cc and
 * tests/test_stream_fuzz.cc):
 *
 *  1. Each instance runs *solo* — one trace on its assigned processor
 *     slot of the shared machine, via harness::runOnMachine. A single
 *     pipeline leaves no cross-processor interleaving to order, so a
 *     solo run depends only on its trace and the machine state.
 *  2. Trace capture is pure: Workload::streamTrace yields byte-identical
 *     streams for equal (query, params, proc), so the TraceCache's hit
 *     path replays exactly the miss path's bytes.
 *  3. The event loop is simulated-cycle-driven with total tie-break
 *     orders (completions by (cycle, proc); dispatch by policy with
 *     (arrival, id) as the final tie-break), so the admission order is a
 *     pure function of the stream configuration and the per-instance
 *     service times — themselves deterministic by (1) and (2).
 *
 * Cross-instance memory behaviour is still real: caches, directory
 * state and miss-classification history persist across the stream
 * (unless StreamConfig::coldCache), so a Q6 landing on a processor that
 * just ran Q3 pays coherence misses on the metadata lines the Q3 run
 * left dirty in other processors' caches. What the stream layer does
 * *not* model is intra-run concurrency: two instances whose service
 * intervals overlap in stream time still replay serially on the machine,
 * an approximation documented in DESIGN.md §15.3.
 */

#ifndef DSS_SCHED_SCHEDULER_HH
#define DSS_SCHED_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/json.hh"
#include "sched/latency.hh"
#include "sched/resilience.hh"
#include "sched/stream.hh"
#include "sched/trace_cache.hh"
#include "sim/machine.hh"
#include "sim/stats.hh"

namespace dss {
namespace sched {

/** Everything recorded about one resolved query instance. */
struct InstanceRecord
{
    QueryInstance inst;
    sim::ProcId proc = 0;     ///< processor slot it ran on (0 if shed)
    sim::Cycles start = 0;    ///< dispatch cycle (shed cycle if shed)
    sim::Cycles complete = 0; ///< resolution cycle
    sim::Cycles service = 0;  ///< cycles the processor was occupied
    sim::Cycles wait = 0;     ///< start - arrival (queueing delay)
    sim::Cycles latency = 0;  ///< complete - arrival
    bool cacheHit = false;    ///< trace served from the TraceCache
    std::uint64_t traceHash = 0; ///< content hash of the replayed trace
    sim::SimStats stats;      ///< full solo-run statistics

    // Resilience fields; serialized only when the layer is enabled, so
    // legacy stream reports stay byte-identical.
    Outcome outcome = Outcome::Ok;
    unsigned attempts = 0;    ///< dispatches (0 when shed unstarted)
    unsigned migrations = 0;  ///< node-failure re-dispatches
    sim::Cycles deadline = 0; ///< absolute deadline cycle; 0 = none
    bool degraded = false;    ///< overlapped a node outage
};

/** A finished stream: per-instance records plus stream-level accounting. */
struct StreamResult
{
    StreamConfig config;
    std::vector<InstanceRecord> records; ///< in completion order
    sim::Cycles makespan = 0;            ///< max completion cycle
    LatencySummary latency;              ///< arrival -> completion
    LatencySummary wait;                 ///< arrival -> dispatch
    LatencySummary service;              ///< dispatch -> completion
    /** Per-query-name latency summaries, sorted by name. */
    std::vector<std::pair<std::string, LatencySummary>> byQuery;
    /** Goodput instances per million simulated cycles of makespan. */
    double throughputPerMcycle = 0.0;
    TraceCache::Stats cache; ///< snapshot (zero when cache disabled)
    bool cacheEnabled = false;
    bool resilienceEnabled = false;
    ResilienceReport resilience; ///< filled when resilienceEnabled
};

/**
 * The full result as JSON. @p include_run_stats embeds each instance's
 * complete solo-run toJson(SimStats) — exact but bulky; stream goldens
 * and rerun tests use it, human-facing reports may skip it. Two runs of
 * the same configuration serialize byte-identically, which the golden
 * fixtures pin (tests/golden/stream_*.json).
 */
obs::Json toJson(const StreamResult &r, bool include_run_stats = true);

/**
 * Runs one stream on one warm machine. The scheduler owns the Machine
 * (built from @p machine_cfg) and wires it from @p base_opts with
 * harness::wireMachine (checker, fault plan, its own placement policy
 * built from the recipe, memory profile), so first-touch claims persist
 * across the stream's instances; the per-run pieces of @p base_opts
 * (sampler, timeline, profilers, retry policy) pass through to every
 * instance run.
 *
 * @p cache may be null (cache disabled: every instance re-captures) and
 * may be shared across schedulers — entries are keyed on capture
 * arguments only, which is sound because captures are pure.
 */
class StreamScheduler
{
  public:
    StreamScheduler(harness::Workload &workload,
                    const sim::MachineConfig &machine_cfg,
                    const StreamConfig &stream_cfg,
                    const harness::RunOptions &base_opts,
                    TraceCache *cache,
                    const ResilienceConfig &resilience = ResilienceConfig());

    /** Run the whole stream; callable once per scheduler. */
    StreamResult run();

    struct Counters
    {
        std::uint64_t instances = 0;
        std::uint64_t dispatched = 0;
        std::uint64_t completed = 0;  ///< resolved within deadline (= goodput)
        std::uint64_t queuePeak = 0;  ///< max instances left waiting
        std::uint64_t timeouts = 0;
        std::uint64_t migrations = 0;
        std::uint64_t shedQueue = 0;
        std::uint64_t shedBreaker = 0;
        std::uint64_t shedExpired = 0;
        std::uint64_t abandoned = 0;
        std::uint64_t breakerTrips = 0;
        std::uint64_t breakerRecoveries = 0;
    };

    /**
     * Export the sched.* counters: instances/dispatched/completed/
     * queue_peak plus the resilience set (goodput, timeouts, migrations,
     * shed.{queue,breaker,expired}, abandoned, breaker.{trips,
     * recoveries}) — always present, zero when the layer is off. Valid
     * after run(); the scheduler must outlive @p reg's use.
     */
    void registerStats(obs::Registry &reg,
                       const std::string &prefix = "sched") const;

    const Counters &counters() const { return counters_; }

    sim::Machine &machine() { return machine_; }

  private:
    unsigned pickNext(const std::vector<QueryInstance> &instances,
                      const std::vector<unsigned> &ready) const;
    InstanceRecord runInstance(const QueryInstance &inst, sim::ProcId proc,
                               sim::Cycles start);

    harness::Workload &workload_;
    StreamConfig cfg_;
    harness::RunOptions opts_;
    TraceCache *cache_;
    ResilienceConfig res_;
    sim::Machine machine_;
    Counters counters_;
    bool ran_ = false;
};

} // namespace sched
} // namespace dss

#endif // DSS_SCHED_SCHEDULER_HH
