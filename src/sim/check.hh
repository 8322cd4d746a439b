/**
 * @file
 * Inline coherence invariant checker (the --check flag).
 *
 * Validates, at every state transition, the invariants the directory
 * protocol of Section 4.3 is supposed to maintain:
 *
 *  - Swmr:       single-writer/multiple-reader — at most one Modified
 *                (dirty) L2 copy of a line, and never a dirty copy
 *                coexisting with other cached copies
 *  - DirState:   the directory entry for a line agrees with the caches —
 *                Dirty entries name a real dirty owner, Shared sharer
 *                bits match exactly the caches holding clean copies,
 *                Uncached lines are cached nowhere
 *  - Inclusion:  every resident L1 line's enclosing L2 line is resident
 *  - WbFifo:     each write buffer drains in FIFO order (retire times
 *                monotonically non-decreasing)
 *  - LockState:  the metalock table is consistent — free locks have no
 *                waiters, holders/waiters are valid processors, and a
 *                blocked processor waits in exactly one queue
 *
 * Violations are recorded as structured CheckViolation records and
 * surfaced through the obs counter registry ("check.*") instead of
 * aborting, so a perturbed run (fault injection) can complete and report.
 * The checker only *reads* machine state: enabling it never changes a
 * single timing or statistic.
 *
 * Checking granularity: the touched line after every step, and a full
 * sweep at the end of the run.
 */

#ifndef DSS_SIM_CHECK_HH
#define DSS_SIM_CHECK_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/addr.hh"
#include "sim/trace.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

class Machine;

enum class Invariant : std::uint8_t {
    Swmr,
    DirState,
    Inclusion,
    WbFifo,
    LockState,
};
constexpr std::size_t kNumInvariants = 5;

std::string_view invariantName(Invariant inv);

/** One detected violation: which invariant, where, and a description. */
struct CheckViolation
{
    Invariant inv;
    Addr addr = 0;   ///< line or lock word (0 when not line-local)
    ProcId proc = 0; ///< processor involved (0 when machine-global)
    std::string detail;
};

class InvariantChecker
{
  public:
    // ----- hooks called by the machine -----

    /** After one processor step on entry @p e. */
    void onStep(const Machine &m, ProcId p, const TraceEntry &e);

    /** End of Machine::run: full sweep of all tracked state. */
    void onRunEnd(const Machine &m);

    // ----- direct entry points (tests and the sweep) -----

    void checkLine(const Machine &m, Addr addr);
    void checkWriteBuffer(const Machine &m, ProcId p);
    void checkLocks(const Machine &m);
    void sweep(const Machine &m);

    // ----- results -----

    std::uint64_t totalViolations() const { return total_; }
    std::uint64_t countOf(Invariant inv) const
    {
        return counts_[static_cast<std::size_t>(inv)];
    }

    /** The first kMaxRecorded violations, in detection order. */
    static constexpr std::size_t kMaxRecorded = 64;
    const std::vector<CheckViolation> &violations() const
    {
        return recorded_;
    }

    /** Register "check.*" violation counters into @p reg (live views). */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

    /** Counters plus recorded violation details for JSON reports. */
    obs::Json toJson() const;

  private:
    void report(Invariant inv, Addr addr, ProcId proc, std::string detail);

    std::array<std::uint64_t, kNumInvariants> counts_{};
    std::uint64_t total_ = 0;
    std::vector<CheckViolation> recorded_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_CHECK_HH
