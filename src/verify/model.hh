/**
 * @file
 * Protocol model for the explicit-state coherence checker.
 *
 * The simulator's dynamic checks (50-seed fuzzing under sim/check.hh)
 * *sample* the protocol's state space; this subsystem *covers* it, for a
 * small bounded configuration: N processors and M shared coherent lines
 * plus one metalock word, composed over the real Cache (MSI line states
 * with a write-through L1 on top), WriteBuffer, Directory
 * (Uncached/Shared/Dirty with sharer vectors and 3-hop forwarding) and
 * the lock-continuation machinery.
 *
 * The model does NOT reimplement the protocol: every transition is
 * driven through the real sim:: pipelines via Machine's model-stepping
 * hooks. A transition is (abstract state) -> load into a scratch Machine
 * -> one synthesized event through the real readAccessT / writeTransactionT
 * / rmwAccessT / faultEvictT / doLockAcq / doLockRel code -> extract the
 * abstract successor. Events are load / store / evict / writeback-drain /
 * lock-acquire / lock-release; no workload trace is involved.
 *
 * What the abstract state keeps: per-line directory entry (state, owner,
 * sharer vector), per-processor per-line coherent MSI state and
 * upper-level subline presence, per-processor write-buffer FIFO contents
 * (as line identities), the metalock table (holder + ordered waiter
 * queue) and each processor's lock continuation. What it deliberately
 * omits — with the soundness argument for each in DESIGN.md §18 —
 * clocks, LRU stamps, controller occupancy, miss-classification history
 * and statistics: none of them feed back into protocol control flow for
 * the model's conflict-free line placement (asserted at construction).
 *
 * Mutation mode injects one of four known protocol bugs at the
 * transition seam (dropped invalidation ack, skipped owner-dirty
 * re-assert, stale directory sharer bit, write-buffer reorder) so the
 * checker can prove it would catch each — the soundness test for the
 * checker itself.
 */

#ifndef DSS_VERIFY_MODEL_HH
#define DSS_VERIFY_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/hierarchy.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace dss {
namespace verify {

/** Kind of synthesized protocol event. */
enum class EvKind : std::uint8_t {
    Load,    ///< data load of one L1 subline
    Store,   ///< data store of one L1 subline (write buffer + coherence)
    Evict,   ///< force-evict a resident coherent line (capacity pressure)
    WbDrain, ///< retire the oldest write-buffer entry
    LockAcq, ///< one step of a two-phase test&test&set acquire
    LockRel, ///< release the metalock (store + hand-off)
};

std::string_view evKindName(EvKind k);

/** One synthesized transition of the composed state machine. */
struct Event
{
    EvKind kind = EvKind::Load;
    sim::ProcId proc = 0;
    std::uint8_t line = 0;    ///< tracked-line index (lock line is last)
    std::uint8_t subline = 0; ///< L1-granularity subline for Load/Store

    bool operator==(const Event &o) const
    {
        return kind == o.kind && proc == o.proc && line == o.line &&
               subline == o.subline;
    }
};

/** Compact printable form: "store(p1,l0.s1)", "acq(p2)", ... */
std::string eventName(const Event &e);

/**
 * A processor's lock continuation. Blocked/MidAcq mirror the machine's
 * ProcRun flags; Granted and Holding are model bookkeeping for the
 * hand-off window (the lock table already names the processor as holder,
 * but it must still re-execute its acquire before entering the critical
 * section — exactly the re-execution a woken spinner performs).
 */
enum class Cont : std::uint8_t {
    Idle,    ///< no lock interaction in flight
    MidAcq,  ///< test&set transaction done; the grab is the next step
    Blocked, ///< spinning in a waiter queue
    Granted, ///< woken by a release; must re-execute the acquire
    Holding, ///< inside the critical section
};

/** Abstract (timing-free) state of one tracked coherent line. */
struct LineState
{
    std::uint8_t dir = 0;      ///< 0 Uncached, 1 Shared, 2 Dirty
    sim::ProcId owner = 0;     ///< meaningful only when dir == 2
    std::uint32_t sharers = 0; ///< directory sharer vector
    /** Per processor: coherent-level MSI state (0 I, 1 S, 2 M). */
    std::vector<std::uint8_t> coh;
    /** Per processor x upper level: subline presence bitmask. */
    std::vector<std::array<std::uint8_t, sim::kMaxCacheLevels - 1>> upper;
};

/** Full abstract state of the composed machine. */
struct AbstractState
{
    std::vector<LineState> lines; ///< tracked lines; lock line last
    std::vector<Cont> cont;       ///< per processor
    /** Per processor: write-buffer FIFO, oldest first; each entry is
     * line_index * l1_sublines + subline. */
    std::vector<std::vector<std::uint8_t>> wb;
    bool lockHeld = false;
    sim::ProcId lockHolder = 0;
    std::vector<sim::ProcId> waiters; ///< queue order preserved
};

/**
 * Tracked-address layout plus the derived hierarchy shape. Line i sits
 * at i * (pageBytes + cohLineBytes): distinct homes and — asserted at
 * model construction — distinct sets at every cache level, so tracked
 * lines never evict each other organically and LRU state cannot affect
 * any transition (the key premise for dropping it from the state).
 */
struct Geometry
{
    unsigned nprocs = 0;
    unsigned nlines = 0;    ///< dataLines + 1 (the lock line)
    unsigned dataLines = 0;
    unsigned nlev = 0;
    unsigned l1Sublines = 1; ///< cohLineBytes / l1LineBytes
    std::array<unsigned, sim::kMaxCacheLevels - 1> sublinesAt{};
    std::size_t cohLineBytes = 0;
    std::size_t l1LineBytes = 0;
    std::vector<sim::Addr> lineAddr; ///< coherent line addresses
    sim::Addr lockWord = 0;          ///< == lineAddr.back()
};

/**
 * Canonical form of an abstract state under processor permutation.
 * Protocol transitions are home-node independent (homes feed only
 * latency and statistics), so the full symmetric group on processors is
 * a sound reduction: the canonical encoding is the lexicographically
 * smallest over all N! relabelings. perm[p] is the canonical index of
 * original processor p.
 */
struct Canonical
{
    std::string bytes;
    std::vector<sim::ProcId> perm;
};

/** Encode @p s under processor relabeling @p perm into @p out. */
void encodeState(const AbstractState &s, const Geometry &g,
                 const std::vector<sim::ProcId> &perm, std::string &out);

/** Lexicographically minimal encoding over all processor relabelings. */
Canonical canonicalize(const AbstractState &s, const Geometry &g);

/** Inverse of encodeState with the identity relabeling. */
AbstractState decodeState(const std::string &bytes, const Geometry &g);

/** Known protocol mutations for the checker-soundness mode. */
enum class Mutant : std::uint8_t {
    None = 0,
    DropInvalAck,   ///< a store's invalidation ack is lost: stale copy
    SkipOwnerDirty, ///< store completes without re-asserting dirty
    StaleSharerBit, ///< eviction leaves the sharer bit set
    WbReorder,      ///< write buffer retires out of FIFO order
};
constexpr unsigned kNumMutants = 4;

std::string_view mutantName(Mutant m);

/**
 * The transition function: owns a scratch Machine built from a shrunk
 * copy of the preset hierarchy (line sizes, associativities, level count
 * and latencies preserved; capacities cut to a handful of sets) and
 * drives the real pipelines one synthesized event at a time.
 */
class ProtocolModel
{
  public:
    struct Options
    {
        unsigned procs = 2;     ///< model processors (symmetry-reduced)
        unsigned lines = 2;     ///< tracked shared data lines
        unsigned wbEntries = 1; ///< model write-buffer capacity
        /** Target every L1 subline of each line (true exercises the
         * write-through L1's subline granularity and multiplies the
         * write-buffer alphabet; false targets subline 0 only, the
         * default — the L1/coherent subline seam is still crossed on
         * every access, the space just stays exhaustible). */
        bool allSublines = false;
        Mutant mutant = Mutant::None;
    };

    /** Throws sim::SimError when the shrunk geometry cannot guarantee
     * conflict-free tracked lines (too many lines for the sets). */
    ProtocolModel(const sim::MachineConfig &base, const Options &opt);

    const Geometry &geom() const { return g_; }
    const sim::MachineConfig &config() const { return cfg_; }
    Mutant mutant() const { return opt_.mutant; }

    /** The empty cold state (caches, directory, buffers, lock all
     * clear) — the BFS root. */
    AbstractState initial() const;

    /** All events enabled in @p s, in a fixed deterministic order. */
    void enumerate(const AbstractState &s, std::vector<Event> &out) const;

    struct StepResult
    {
        AbstractState next;
        std::uint64_t violations = 0; ///< checker sweep of the successor
        obs::Json detail;             ///< checker toJson() when violating
    };

    /** Apply one transition: load @p s, drive @p ev through the real
     * pipelines, inject the configured mutation, sweep the invariants,
     * extract the successor. */
    StepResult apply(const AbstractState &s, const Event &ev);

    /**
     * Emit one TraceStream per processor replaying @p events (a
     * counterexample path in a single concrete frame) from the cold
     * initial state. Busy padding serializes the events under min-clock
     * replay; multi-step lock acquires collapse to one LockAcq entry.
     * Evict and WbDrain events have no trace-level expression (they are
     * fault/timing effects) and contribute padding only — the JSON
     * counterexample always lists the exact event sequence.
     */
    std::vector<sim::TraceStream> traces(const std::vector<Event> &events);

    /** Shrink @p base to the model machine: same hierarchy shape and
     * latencies, tiny capacities, @p procs processors, @p wb_entries
     * write-buffer slots, prefetch off. */
    static sim::MachineConfig modelConfig(const sim::MachineConfig &base,
                                          unsigned procs,
                                          unsigned wb_entries);

  private:
    void load(const AbstractState &s);
    void stepEvent(const Event &ev);
    void applyMutant(const AbstractState &pre, const Event &ev);
    AbstractState extract(const AbstractState &pre, const Event &ev) const;
    sim::Addr eventAddr(const Event &ev) const;
    sim::Addr wbLineOf(std::uint8_t enc) const;

    Options opt_;
    sim::MachineConfig cfg_;
    Geometry g_;
    sim::Machine m_;
};

} // namespace verify
} // namespace dss

#endif // DSS_VERIFY_MODEL_HH
