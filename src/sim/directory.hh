/**
 * @file
 * Directory-based coherence state for a CC-NUMA machine.
 *
 * The directory tracks, per secondary-cache line, whether memory holds the
 * only copy (Uncached), one or more caches hold clean copies (Shared), or a
 * single cache holds a dirty copy (Dirty). The home node of a line is
 * determined by its 8 KB page: shared pages are interleaved round-robin
 * across the nodes; private pages are homed at their owning node.
 *
 * Latency mirrors the paper's baseline: a miss satisfied by local memory
 * costs 80 cycles round trip; by a remote home or a dirty remote owner in a
 * 2-hop transaction, 249; in a 3-hop transaction, 351. The home node's
 * memory controller is a contended resource (the paper models all
 * contention except the network); the network itself is a fixed delay
 * folded into those constants.
 */

#ifndef DSS_SIM_DIRECTORY_HH
#define DSS_SIM_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/addr.hh"
#include "sim/placement.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

/** Latency constants for one machine configuration (paper Section 4.3). */
struct LatencyConfig
{
    Cycles l1Hit = 1;          ///< primary-cache hit (no stall)
    Cycles l2Hit = 16;         ///< round trip to the secondary cache
    Cycles localMem = 80;      ///< local memory, clean line
    Cycles remote2Hop = 249;   ///< two network crossings on the critical path
    Cycles remote3Hop = 351;   ///< three network crossings
    Cycles controllerOccupancy = 18; ///< home memory-controller service time

    /**
     * The four round-trip latencies above are quoted for the baseline
     * 64 B L2 line. Other line sizes transfer more or less data: memory
     * transactions gain (line - 64) / memBytesPerCycle cycles, and the
     * home controller is occupied (line - 64) / ctrlBytesPerCycle longer
     * ("each miss takes longer to satisfy", paper Section 5.2.1).
     */
    Cycles memBytesPerCycle = 2;
    Cycles ctrlBytesPerCycle = 8;
};

class Directory
{
  public:
    enum class State : std::uint8_t { Uncached, Shared, Dirty };

    struct Entry
    {
        State state = State::Uncached;
        std::uint64_t sharers = 0; ///< bitmask of caching nodes
        ProcId owner = 0;         ///< valid when state == Dirty

        bool operator==(const Entry &o) const = default;
    };

    /**
     * @param nnodes Number of nodes (processor + memory each).
     * @param line_bytes Coherence granularity (the L2 line size).
     * @param page_bytes Interleaving granularity for home assignment.
     * @param private_base Addresses at or above this are private.
     * @param private_stride Private address-space stride per node.
     */
    Directory(unsigned nnodes, std::size_t line_bytes,
              std::size_t page_bytes, Addr private_base,
              Addr private_stride, const LatencyConfig &lat);

    /**
     * Home node of the line containing @p addr: delegated to the
     * attached PlacementPolicy (sim/placement.hh). Without one — a
     * standalone Directory in unit tests or microbenches — the
     * historical hardwired rule applies: shared pages interleave
     * round-robin, private pages are homed at their owning node.
     */
    ProcId
    homeOf(Addr addr) const
    {
        if (placement_)
            return placement_->homeOf(addr);
        if (addr >= privateBase_) {
            auto node = static_cast<ProcId>((addr - privateBase_) /
                                            privateStride_);
            return std::min<ProcId>(node, nnodes_ - 1);
        }
        return static_cast<ProcId>((addr / pageBytes_) % nnodes_);
    }

    /**
     * Attach the page-placement policy consulted by homeOf. Borrowed;
     * pass nullptr to fall back to the hardwired interleave rule. The
     * policy's geometry must match this directory's page/private layout.
     */
    void setPlacement(const PlacementPolicy *placement)
    {
        placement_ = placement;
    }

    const PlacementPolicy *placement() const { return placement_; }

    /** Directory entry for the line containing @p addr (created lazily). */
    Entry &entry(Addr addr);

    /**
     * Read-only lookup that never creates an entry; nullptr when the line
     * has no directory state yet.
     */
    const Entry *peek(Addr addr) const;

    /** Line-aligned address. */
    Addr lineAddrOf(Addr addr) const { return addr & ~(lineBytes_ - 1); }

    /**
     * Uncontended round-trip latency of a transaction issued by
     * @p requester for a line homed at @p home, possibly forwarded to a
     * @p dirty_owner (pass requester itself for "no forwarding").
     */
    Cycles transactionLatency(ProcId requester, ProcId home,
                              ProcId dirty_owner, bool dirty) const;

    /**
     * Network crossings on a transaction's critical path — the quantity
     * transactionLatency prices (0 = satisfied locally, 2 = remote home
     * or local-home-remote-owner, 3 = remote home forwarding to a remote
     * dirty owner).
     */
    static unsigned
    crossings(ProcId requester, ProcId home, ProcId dirty_owner, bool dirty)
    {
        unsigned n = 0;
        if (home != requester)
            ++n;
        if (dirty && dirty_owner != requester) {
            if (dirty_owner != home)
                ++n; // home forwards to the owner
            ++n;     // owner (or home-as-owner) replies to the requester
        } else {
            if (home != requester)
                ++n; // home replies with the memory copy
        }
        return n;
    }

    /** Hop classes of the per-class transaction counters. */
    static constexpr std::size_t kNumHopClasses = 3;

    /**
     * Hop-class index of a transaction: 0 = local, 1 = 2-hop,
     * 2 = 3-hop (the paper's local / 249-cycle / 351-cycle buckets).
     */
    static std::size_t
    hopClass(ProcId requester, ProcId home, ProcId dirty_owner, bool dirty)
    {
        const unsigned n = crossings(requester, home, dirty_owner, dirty);
        return n == 0 ? 0 : (n <= 2 ? 1 : 2);
    }

    /**
     * Serialize a request at @p home's memory controller.
     * @param arrival Cycle the request reaches the controller.
     * @return queuing delay before service starts.
     */
    Cycles acquireController(ProcId home, Cycles arrival);

    /** Controller service time per transaction at the current line size. */
    Cycles occupancyCycles() const;

    /** Forget all sharing state and controller occupancy. */
    void reset();

    /** Reset only controller occupancy (clocks restart between runs). */
    void resetControllers();

    /**
     * Clear the per-home contention counters. They are lifetime
     * counters otherwise — reset()/resetControllers() leave them alone —
     * which made repetitions of runSequence accumulate each other's
     * requests; the harness runner calls this before every repetition so
     * per-run snapshots and epoch deltas reconcile.
     */
    void resetStats();

    unsigned nnodes() const { return nnodes_; }
    const LatencyConfig &latency() const { return lat_; }

    /** Number of lines with directory state (for tests). */
    std::size_t trackedLines() const { return entries_.size(); }

    /**
     * Deterministic dump of all directory state, sorted by line address
     * (the backing map is unordered). Used by the invariant checker's
     * end-of-run sweep.
     */
    std::vector<std::pair<Addr, Entry>> sortedEntries() const;

    /** Per-home-controller contention counters (observability). */
    struct HomeCounters
    {
        std::uint64_t requests = 0;    ///< transactions serialized here
        std::uint64_t queueCycles = 0; ///< total queuing delay imposed
    };

    const std::vector<HomeCounters> &homeCounters() const { return hctrs_; }

    /**
     * Register contention counters under "<prefix>.home<i>.*" plus
     * machine-wide totals; not cleared by reset(), only by resetStats().
     */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

  private:
    const PlacementPolicy *placement_ = nullptr; ///< borrowed, optional
    unsigned nnodes_;
    std::size_t lineBytes_;
    std::size_t pageBytes_;
    Addr privateBase_;
    Addr privateStride_;
    LatencyConfig lat_;
    std::unordered_map<Addr, Entry> entries_;
    std::vector<Cycles> controllerFree_; // per home node
    std::vector<HomeCounters> hctrs_;    // per home node
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_DIRECTORY_HH
