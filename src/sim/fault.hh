/**
 * @file
 * Seeded, deterministic fault injection for the simulated machine.
 *
 * A FaultPlan perturbs the memory system to exercise its degraded paths:
 *
 *  - LatencySpike:  extra directory/remote-hop latency on a read
 *  - Eviction:      forced eviction of the accessed L2 line (plus its L1
 *                   sublines) before a read, as if a conflict evicted it
 *  - WbStall:       a write-buffer stall storm charged to a store
 *  - LockPreempt:   the holder of a metalock is "preempted" right before
 *                   its release, stretching the hold time (the classic
 *                   spinlock pathology the paper's MSync time measures)
 *  - QueryAbort:    a DB-level abort of a whole query at trace-generation
 *                   time, retried by the harness with bounded backoff
 *  - NodeFailure:   a whole processor goes out of service for an
 *                   interval. Unlike the per-access kinds this one is
 *                   consumed by the *stream scheduler* (src/sched/), not
 *                   the machine: nodeOutage() exposes each processor's
 *                   seeded outage windows as a pure function of
 *                   (seed, proc, outage index), and the scheduler aborts
 *                   and migrates the queries caught inside them
 *
 * Determinism contract: every decision is a pure function of
 * (seed, run index, processor, per-processor trace position, fault kind)
 * — never of the global interleaving. Replay visits each processor's
 * Read/Write/LockRel trace positions exactly once per run, so the same
 * seed produces a bit-identical fault schedule on every rerun. (LockAcq
 * entries re-execute on wake-up and are therefore never fault points.)
 *
 * Aggregation (counters(), schedule(), toJson()) is only valid outside a
 * run.
 */

#ifndef DSS_SIM_FAULT_HH
#define DSS_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/addr.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

enum class FaultKind : std::uint8_t {
    LatencySpike,
    Eviction,
    WbStall,
    LockPreempt,
    QueryAbort,
    NodeFailure,
};
constexpr std::size_t kNumFaultKinds = 6;

std::string_view faultKindName(FaultKind k);

struct FaultConfig
{
    std::uint64_t seed = 0;
    /** Per-opportunity probability of each enabled kind, in [0, 1]. */
    double rate = 0.0;

    static constexpr unsigned bitOf(FaultKind k)
    {
        return 1u << static_cast<unsigned>(k);
    }
    static constexpr unsigned kAllKinds = (1u << kNumFaultKinds) - 1;
    /** Which kinds may fire (bitOf() mask). */
    unsigned kinds = kAllKinds;

    Cycles spikeCycles = 200;    ///< extra read latency per LatencySpike
    Cycles wbStallCycles = 64;   ///< stall charged per WbStall
    Cycles preemptCycles = 500;  ///< hold stretch per LockPreempt
    /** Injected aborts per aborting query; must stay below the harness
     * retry budget so every aborted query eventually succeeds. */
    unsigned maxAbortsPerQuery = 3;

    /** NodeFailure: how long a failed processor stays down. 0 means the
     * failure is permanent — the processor never comes back, and only
     * outage index 0 exists. */
    Cycles nodeDownCycles = 1000000;
    /** NodeFailure: mean up-time between one processor's outages at
     * rate 1.0; the effective mean scales as nodeMeanUpCycles / rate, so
     * higher fault rates fail nodes more often. */
    Cycles nodeMeanUpCycles = 8000000;

    bool enabled(FaultKind k) const { return (kinds & bitOf(k)) != 0; }
};

class FaultPlan
{
  public:
    /** Processors above this count never fault (sharers masks are 8-bit
     * anyway, so no machine is wider). */
    static constexpr unsigned kMaxProcs = 8;

    explicit FaultPlan(const FaultConfig &cfg) : cfg_(cfg) {}

    const FaultConfig &config() const { return cfg_; }

    /** Called by Machine::run at run start: decisions mix in the run
     * index so chained runs (Fig 12 sequences) see distinct schedules. */
    void beginRun() { ++runIndex_; }

    // ----- decision points (record the event when they fire) -----

    /** Extra latency charged to the read at trace position @p pos. */
    Cycles readDelay(ProcId p, std::uint64_t pos);

    /** True if the line accessed at @p pos must be force-evicted first. */
    bool evictAt(ProcId p, std::uint64_t pos);

    /** Extra write-buffer stall charged to the store at @p pos. */
    Cycles wbStall(ProcId p, std::uint64_t pos);

    /** Hold-time stretch applied before the release at @p pos. */
    Cycles holdStretch(ProcId p, std::uint64_t pos);

    /**
     * Schedule the next query: decides how many injected aborts (0 when
     * the QueryAbort kind does not fire) the query suffers before it is
     * allowed to complete. Called once per runCold/runSequence run.
     */
    void scheduleQuery();

    /** Consume one scheduled abort; false once the query may complete. */
    bool abortScheduled();

    /** Retry bookkeeping from the harness backoff path. */
    void recordRetry(Cycles backoff);

    // ----- node outages (consumed by the stream scheduler) -----

    /** Sentinel end cycle of a permanent outage. */
    static constexpr Cycles kNever = ~Cycles{0};

    /** One seeded out-of-service window of a processor. */
    struct Outage
    {
        Cycles start = 0;
        Cycles end = kNever; ///< start + nodeDownCycles; kNever = forever
        bool permanent = false;
    };

    /**
     * Processor @p p's @p k-th outage window, or nullopt when the
     * NodeFailure kind is disabled (or the config is permanent-failure
     * and k > 0). Pure function of (seed, p, k): outage k starts after
     * k+1 exponential up-time gaps (mean nodeMeanUpCycles / rate) plus
     * the k earlier down intervals, so windows never overlap and every
     * rerun sees identical windows.
     */
    std::optional<Outage> nodeOutage(ProcId p, unsigned k) const;

    /** Count a fired node failure (an outage the scheduler actually hit)
     * into the log/counters; @p pos is the outage index, @p down its
     * length (0 when permanent). */
    void recordNodeFailure(ProcId p, std::uint64_t pos, Cycles down);

    // ----- aggregation (outside a run only) -----

    struct Event
    {
        FaultKind kind;
        ProcId proc;
        std::uint64_t run;
        std::uint64_t pos;
        Cycles cycles;

        bool operator==(const Event &o) const
        {
            return kind == o.kind && proc == o.proc && run == o.run &&
                   pos == o.pos && cycles == o.cycles;
        }
    };

    /** The full fired-fault schedule, processor-major, position order.
     * Bit-identical across reruns. */
    std::vector<Event> schedule() const;

    struct Counters
    {
        std::array<std::uint64_t, kNumFaultKinds> byKind{};
        std::uint64_t injected = 0;      ///< total fired faults
        std::uint64_t aborts = 0;        ///< injected query aborts
        std::uint64_t retries = 0;       ///< harness retry attempts
        std::uint64_t backoffCycles = 0; ///< simulated backoff charged
    };

    Counters counters() const;

    /** Register "fault.*" counters into @p reg (live views). */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

    /** Config + counters + schedule digest for JSON reports. */
    obs::Json toJson() const;

  private:
    bool fires(FaultKind k, ProcId p, std::uint64_t pos) const;
    void record(FaultKind k, ProcId p, std::uint64_t pos, Cycles c);

    struct PerProc
    {
        std::vector<Event> log;
    };

    FaultConfig cfg_;
    std::uint64_t runIndex_ = 0;
    std::uint64_t queryIndex_ = 0;
    unsigned abortsRemaining_ = 0;
    std::uint64_t aborts_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t backoffCycles_ = 0;
    std::array<PerProc, kMaxProcs> perProc_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_FAULT_HH
