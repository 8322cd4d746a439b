/**
 * @file
 * Resilience layer for the query-stream scheduler: per-query deadlines,
 * bounded-queue admission control with load shedding, a per-class
 * circuit breaker, node-failure outage windows with query migration, and
 * the SLO accounting that reports all of it.
 *
 * Everything here is a pure function of (stream seed, fault seed,
 * config) plus the deterministic per-instance service times the
 * scheduler already derives, so a resilient stream replays bit-identically
 * (DESIGN.md §16):
 *
 *  - Deadlines are absolute cycles (arrival + class budget), compared
 *    against the solo-run completion cycle — no wall clock anywhere.
 *  - Outage windows come from sim::FaultPlan::nodeOutage, a seeded pure
 *    function; OutageTable only caches its values.
 *  - The breaker's state machine advances on (class, outcome, cycle)
 *    triples produced in the scheduler's total event order.
 *  - Shed-victim selection breaks every tie down to the instance id.
 */

#ifndef DSS_SCHED_RESILIENCE_HH
#define DSS_SCHED_RESILIENCE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sched/latency.hh"
#include "sched/stream.hh"
#include "sim/fault.hh"

namespace dss {
namespace sched {

/** Which queued instance a full run queue drops. */
enum class ShedPolicy {
    RejectNewest,   ///< latest arrival (then highest id)
    RejectByClass,  ///< slowest service class first (then newest)
    DeadlineAware,  ///< tightest deadline first — it would miss anyway
};

/** Parse "newest" / "class" / "deadline"; nullopt on anything else. */
std::optional<ShedPolicy> parseShedPolicy(const std::string &name);
std::string shedPolicyName(ShedPolicy p);

struct ResilienceConfig
{
    static constexpr unsigned kUnboundedQueue = ~0u;

    /** Default per-query deadline in cycles from arrival; 0 = none. */
    sim::Cycles deadline = 0;
    /** Per-class overrides of the default deadline. */
    std::vector<std::pair<tpcd::QueryId, sim::Cycles>> classDeadlines;

    /** Max instances waiting in the run queue (after dispatch);
     * kUnboundedQueue disables admission control, 0 means an instance
     * that cannot dispatch immediately is shed. */
    unsigned queueCapacity = kUnboundedQueue;
    ShedPolicy shed = ShedPolicy::RejectNewest;

    /** Consult the fault plan's NodeFailure outage windows: queries
     * caught by an outage abort and migrate to a surviving node. */
    bool nodeFailures = false;
    /** Node-failure migrations per instance before it is abandoned. */
    unsigned migrationBudget = 3;

    /** Circuit breaker: trip a query class when the timeout fraction of
     * its last breakerWindow service outcomes reaches this threshold;
     * 0 disables the breaker. */
    double breakerThreshold = 0.0;
    unsigned breakerWindow = 4;
    /** How long a tripped class sheds before a half-open trial. */
    sim::Cycles breakerCooldown = 2000000;

    bool breakerOn() const { return breakerThreshold > 0.0; }
    /** Any resilience feature active? When false the scheduler runs the
     * legacy loop and reports stay byte-identical to PR 7's. */
    bool enabled() const
    {
        return deadline > 0 || !classDeadlines.empty() ||
               queueCapacity != kUnboundedQueue || nodeFailures ||
               breakerOn();
    }
    /** The deadline budget for @p q (override, else default); 0 = none. */
    sim::Cycles deadlineFor(tpcd::QueryId q) const;
};

obs::Json toJson(const ResilienceConfig &cfg);

/** How one instance's stream life ended. */
enum class Outcome : std::uint8_t {
    Ok,          ///< completed within its deadline (goodput)
    Timeout,     ///< aborted at its deadline cycle mid-service
    ShedQueue,   ///< dropped by admission control (queue full)
    ShedBreaker, ///< dropped by an open circuit breaker
    ShedExpired, ///< deadline already past when it reached dispatch
    Abandoned,   ///< node failures exhausted its migration budget
};

std::string_view outcomeName(Outcome o);

/**
 * Pick the victim to shed among the queued instance indices @p ready
 * (indices into @p instances). @p deadlines holds absolute deadline
 * cycles per instance id (0 = none). Total order: every policy falls
 * through to (arrival, id) so equal keys never depend on queue order.
 */
unsigned shedVictim(ShedPolicy policy,
                    const std::vector<QueryInstance> &instances,
                    const std::vector<unsigned> &ready,
                    const std::vector<sim::Cycles> &deadlines);

/**
 * Per-class circuit breaker. Classes are keyed by query name; each
 * tracks Closed -> Open (cooldown) -> HalfOpen (one trial) -> Closed.
 * Only service outcomes (Ok, Timeout) feed the sliding window; sheds
 * and migrations do not, so an open breaker cannot keep itself open.
 */
class CircuitBreaker
{
  public:
    enum class State { Closed, Open, HalfOpen };
    enum class Decision { Admit, Shed, Trial };

    explicit CircuitBreaker(const ResilienceConfig &cfg) : cfg_(cfg) {}

    bool enabled() const { return cfg_.breakerOn(); }

    /** Admission decision for instance @p id of class @p cls at @p now.
     * Trial means the class is half-open and @p id is its probe. */
    Decision onArrival(const std::string &cls, unsigned id,
                       sim::Cycles now);

    /** Feed a resolution back. Must be called for every resolved
     * instance that onArrival admitted (or took as trial). */
    void onResolution(const std::string &cls, unsigned id, Outcome o,
                      sim::Cycles now);

    State stateOf(const std::string &cls) const;
    std::uint64_t trips() const;
    std::uint64_t recoveries() const;

    /** Final per-class states, sorted by class name. */
    std::vector<std::pair<std::string, std::string>> stateNames() const;

  private:
    struct ClassState
    {
        State state = State::Closed;
        sim::Cycles openUntil = 0;
        unsigned trial = 0;
        bool trialActive = false;
        std::deque<char> window; ///< 1 = timeout, 0 = ok
        std::uint64_t trips = 0;
        std::uint64_t recoveries = 0;
    };

    void trip(ClassState &cs, sim::Cycles now);

    ResilienceConfig cfg_;
    std::map<std::string, ClassState> classes_;
};

std::string_view breakerStateName(CircuitBreaker::State s);

/** One materialized node outage (window + which processor). */
struct OutageWindow
{
    sim::ProcId proc = 0;
    unsigned index = 0; ///< k-th outage of this processor
    sim::Cycles start = 0;
    sim::Cycles end = sim::FaultPlan::kNever;
    bool permanent = false;
};

/**
 * Lazily materialized view of a FaultPlan's node-outage windows, per
 * processor in start order. Inactive (every query is healthy) when the
 * plan is null or its NodeFailure kind cannot fire.
 */
class OutageTable
{
  public:
    OutageTable() = default;
    OutageTable(const sim::FaultPlan *plan, unsigned nprocs);

    bool active() const { return active_; }

    /** The outage covering cycle @p t on @p p, if any. */
    std::optional<OutageWindow> coveringOutage(sim::ProcId p,
                                               sim::Cycles t);

    /** The first outage of @p p with start strictly after @p t. */
    std::optional<OutageWindow> nextOutageAfter(sim::ProcId p,
                                                sim::Cycles t);

    /** First cycle >= @p t at which @p p is in service; nullopt when a
     * permanent outage covers @p t. */
    std::optional<sim::Cycles> nextUpAt(sim::ProcId p, sim::Cycles t);

    /** Any processor down somewhere in [@p a, @p b)? */
    bool anyOutageIn(sim::Cycles a, sim::Cycles b);

    /** Every window intersecting [@p a, @p b), ordered by
     * (start, proc). */
    std::vector<OutageWindow> outagesIn(sim::Cycles a, sim::Cycles b);

    /** Cycles in [@p a, @p b) during which >= 1 processor is down (the
     * union of windows, not the per-processor sum). */
    sim::Cycles degradedCyclesIn(sim::Cycles a, sim::Cycles b);

  private:
    void extendTo(sim::ProcId p, sim::Cycles t);

    const sim::FaultPlan *plan_ = nullptr;
    bool active_ = false;
    std::vector<std::vector<OutageWindow>> windows_;
    std::vector<unsigned> nextIndex_;
    std::vector<char> exhausted_;
};

/** SLO counts for one query class (or the stream total). */
struct ClassSlo
{
    std::uint64_t submitted = 0;   ///< resolved instances of the class
    std::uint64_t goodput = 0;     ///< completed within deadline
    std::uint64_t timeouts = 0;
    std::uint64_t shedQueue = 0;
    std::uint64_t shedBreaker = 0;
    std::uint64_t shedExpired = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t migrations = 0;  ///< node-failure re-dispatches

    void count(Outcome o);
};

/** The stream-level resilience report (part of StreamResult). */
struct ResilienceReport
{
    ResilienceConfig config;
    ClassSlo total;
    std::vector<std::pair<std::string, ClassSlo>> byClass;
    /** Goodput-instance latency split by whether the instance's
     * [start, complete] overlapped any node outage. */
    LatencySummary healthy;
    LatencySummary degraded;
    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerRecoveries = 0;
    std::vector<std::pair<std::string, std::string>> breakerStates;
    std::vector<OutageWindow> outages; ///< windows inside the makespan
    sim::Cycles degradedCycles = 0;    ///< union of outages in makespan
};

obs::Json toJson(const ClassSlo &s);
obs::Json toJson(const ResilienceReport &r);

} // namespace sched
} // namespace dss

#endif // DSS_SCHED_RESILIENCE_HH
