/**
 * @file
 * Line-level memory profiler: per-cache-line access/miss records with
 * true/false-sharing classification, hot-set conflict attribution and
 * structure symbolization.
 *
 * The Machine's ProcStats aggregate misses per data class; this profiler
 * answers the next question the paper's Section 5 raises — *which lines*
 * inside a class ping-pong, and whether their coherence misses are true
 * sharing (the words written remotely are the words read) or false
 * sharing (victims of line-granularity invalidation only).
 *
 * The profile is a sink, not a model. A Machine with the profile
 * attached (Machine::setMemProfile) records into it where it already
 * classifies and prices its own transactions:
 *  - the miss class of every coherent-level read and RMW miss, with the
 *    coherence misses split by the Machine's SharingTracker;
 *  - every upgrade (a store or RMW to a resident copy it does not own);
 *  - every 3-hop demand transaction, homed by the active placement.
 * Summed over lines, the profile therefore equals the Machine's own
 * counters. Per-line accesses, reads and writes are plain trace counts
 * (Machine::run feeds addTraces), independent of the interleaving.
 *
 * Determinism: the Machine's replay order is a pure function of the
 * traces and the machine, so the profile is bit-identical across reruns.
 */

#ifndef DSS_OBS_MEMPROF_HH
#define DSS_OBS_MEMPROF_HH

#include <cstdint>
#include <map>
#include <vector>

#include "obs/json.hh"
#include "obs/lineinfo.hh"
#include "sim/addr.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace dss {
namespace obs {

/** Everything recorded about one cache line. */
struct LineRecord
{
    sim::DataClass cls = sim::DataClass::Priv; ///< class of first access
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0; ///< includes lock acquire/release stores
    std::uint64_t cold = 0;
    std::uint64_t conf = 0;
    std::uint64_t coheTrue = 0;
    std::uint64_t coheFalse = 0;
    std::uint64_t upgrades = 0; ///< stores/RMWs to a non-exclusive copy
    std::uint64_t hop3 = 0;     ///< demand transactions crossing 3 hops

    std::uint64_t
    misses() const
    {
        return cold + conf + coheTrue + coheFalse;
    }
};

class MemProfile
{
  public:
    /** What the Machine records against a line. */
    enum class Event : std::uint8_t {
        Cold,
        Conf,
        CoheTrue,
        CoheFalse,
        Upgrade,
        Hop3
    };

    /**
     * A profile of machine @p cfg: its coherent level's line size and
     * set count, and its processor count. Throws std::invalid_argument
     * on a processor count the sharing tracker cannot hold.
     */
    explicit MemProfile(const sim::MachineConfig &cfg);

    /** Does a machine of @p cfg record at this profile's geometry? */
    bool fits(const sim::MachineConfig &cfg) const;

    /**
     * Count the accesses, reads and writes of @p traces (indexed by
     * processor) per line and per class. Lock operations count as
     * writes. Machine::run calls this for every run it profiles.
     */
    void addTraces(const std::vector<const sim::TraceStream *> &traces);

    /** Record @p ev against coherent line @p line, accessed as @p cls. */
    void record(sim::Addr line, sim::DataClass cls, Event ev);

    /** Per-line records, keyed by line address (deterministic order). */
    const std::map<sim::Addr, LineRecord> &lines() const { return lines_; }

    /** Aggregate record over every line (totals row). */
    LineRecord totals() const;

    /** Conflict misses attributed to cache set @p s. */
    std::uint64_t confOfSet(std::size_t s) const { return confBySet_[s]; }

    /**
     * Serialize the profile:
     *  - "lines": top @p top_n lines ranked by misses (desc, then
     *    address asc), each with its symbol — resolved through
     *    @p symbols when given, falling back to the data-class name.
     *  - "classes": per-data-class access/miss/true/false/upgrade split.
     *  - "sets": top @p top_n conflict-miss sets (desc, then set asc).
     *  - "totals": whole-profile sums.
     * Byte-stable for identical inputs.
     */
    Json toJson(unsigned top_n, const RegionMap *symbols = nullptr) const;

  private:
    LineRecord &recordOf(sim::Addr line, sim::DataClass cls);

    std::size_t lineBytes_;
    unsigned nprocs_;
    std::map<sim::Addr, LineRecord> lines_;
    /** Per-data-class aggregate (same fields as a line record). */
    LineRecord classes_[sim::kNumDataClasses];
    std::vector<std::uint64_t> confBySet_;
};

} // namespace obs
} // namespace dss

#endif // DSS_OBS_MEMPROF_HH
