/**
 * @file
 * Pluggable NUMA page-placement policies.
 *
 * The paper's headline cost is remote memory: 2-hop (249-cycle) and
 * 3-hop (351-cycle) transactions dominate stall time, and its
 * conclusions name data placement as the lever a CC-NUMA system has
 * against them. The home node of every page used to be hardwired inside
 * Directory::homeOf (shared pages interleaved round-robin, private pages
 * owner-homed); this subsystem lifts that decision into a policy object
 * the Directory merely consults:
 *
 *   interleave       page i -> node i mod N (bit-identical to the
 *                    historical hardwired rule; the default)
 *   first-touch      a shared page is homed at the first processor to
 *                    reference it, resolved at trace position (see
 *                    beginRun) so the outcome is a pure function of
 *                    the traces
 *   class-affinity   pages whose dominant MemArena DataClass is metadata
 *                    (buffer descriptors, lookup hash, lock words, ...)
 *                    are homed at one node; Data/Index pages interleave
 *   profile          two-pass: a per-page access histogram from a prior
 *                    run (obs::PageProfile JSON) homes each page at its
 *                    majority accessor
 *
 * Every policy resolves to the same representation: a flat page-index ->
 * home-node table (precomputed at construction; extended per run only by
 * first-touch), so the homeOf hot path is a single bounds-checked vector
 * load — with a shift/modulo fallback for pages past the table — instead
 * of the div/mod chain the Directory used to evaluate per access. Private addresses are owner-homed under
 * every policy (the paper's OS already does per-process local
 * allocation; the policies only govern the shared segment).
 */

#ifndef DSS_SIM_PLACEMENT_HH
#define DSS_SIM_PLACEMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/addr.hh"

namespace dss {
namespace sim {

class AddressSpace;
class TraceStream;

enum class PlacementKind : std::uint8_t {
    Interleave,
    FirstTouch,
    ClassAffinity,
    Profile,
};

/** Canonical flag-value name ("interleave", "first-touch", ...). */
const char *placementKindName(PlacementKind kind);

/**
 * Parsed form of the --placement=<name>[:arg] flag value.
 * The arg is the metadata home node for class-affinity (default 0) and
 * the histogram JSON path for profile (required).
 */
struct PlacementSpec
{
    PlacementKind kind = PlacementKind::Interleave;
    std::string arg;

    /** Parse a flag value; nullopt on unknown names or malformed args. */
    static std::optional<PlacementSpec> parse(std::string_view text);

    /** One-line list of accepted values, for usage messages. */
    static const char *help();

    /** Round-trip back to "<name>[:arg]". */
    std::string str() const;
};

/** One page's per-processor access counts (the profile policy's input). */
struct PageAccessCounts
{
    Addr page = 0; ///< page-aligned simulated address
    std::vector<std::uint64_t> counts; ///< indexed by processor
};

class PlacementPolicy
{
  public:
    /** The address-space shape a policy maps over. */
    struct Geometry
    {
        unsigned nnodes = 4;
        std::size_t pageBytes = 8 * 1024;
        Addr privateBase = 0;
        Addr privateStride = 1;

        bool operator==(const Geometry &) const = default;
    };

    /**
     * Safety cap on the flat table: pages at or beyond this index fall
     * back to the policy's rule computed on the fly (synthetic test
     * traces may place a lock word anywhere in the 38-bit shared range;
     * real workloads use a few thousand pages).
     */
    static constexpr std::size_t kMaxTablePages = std::size_t{1} << 20;

    static std::unique_ptr<PlacementPolicy> interleave(const Geometry &g);
    static std::unique_ptr<PlacementPolicy> firstTouch(const Geometry &g);
    /**
     * @param space Arena class maps driving the page classification; must
     *        outlive the policy.
     * @param meta_node Home of every metadata-dominated page.
     */
    static std::unique_ptr<PlacementPolicy>
    classAffinity(const Geometry &g, const AddressSpace &space,
                  ProcId meta_node = 0);
    static std::unique_ptr<PlacementPolicy>
    profile(const Geometry &g, const std::vector<PageAccessCounts> &hist);

    /** Build any spec; class-affinity requires @p space and profile
     * @p hist (else throws std::runtime_error). */
    static std::unique_ptr<PlacementPolicy>
    make(const PlacementSpec &spec, const Geometry &g,
         const AddressSpace *space,
         const std::vector<PageAccessCounts> *hist);

    PlacementKind kind() const { return kind_; }
    const char *name() const { return placementKindName(kind_); }
    const Geometry &geometry() const { return g_; }

    /** Home node of the page containing @p addr (the hot path). */
    ProcId
    homeOf(Addr addr) const
    {
        if (addr >= g_.privateBase) {
            const Addr node = privShift_ >= 0
                                  ? (addr - g_.privateBase) >> privShift_
                                  : (addr - g_.privateBase) /
                                        g_.privateStride;
            return node < g_.nnodes ? static_cast<ProcId>(node)
                                    : static_cast<ProcId>(g_.nnodes - 1);
        }
        const std::size_t idx = pageIndexOf(addr);
        if (idx < table_.size())
            return table_[idx];
        return ruleHome(idx);
    }

    /**
     * Per-run resolution hook, called by the Machine before replay
     * starts. A no-op for every kind except first-touch (the
     * others precompute their table at construction, and their fallback
     * rule returns the same home as a table slot would). For first-touch
     * it grows the flat table to cover every shared page the traces
     * reference, then claims still-unclaimed pages for the first
     * processor to reference them.
     *
     * The claim scan iterates trace positions in the outer loop and
     * processors in the inner loop, so "first" is defined purely by the
     * traces, never by simulated time: the same trace set yields the
     * same homes on every rerun. Claims persist across the runs of the
     * one Machine that owns the policy (a page's first touch ever wins),
     * which is what a warm-start sequence or a query stream expects of a
     * real OS; every other machine builds its own policy, so cold runs
     * never inherit each other's claims.
     */
    void beginRun(const std::vector<const TraceStream *> &traces);

    /**
     * Explicit placement hint: pin the page containing @p addr to
     * @p home, overriding the policy rule (and, for first-touch, the
     * future claim). The db layer's allocation-time hints feed this.
     */
    void pinPage(Addr addr, ProcId home);

    /** Pages currently covered by the flat table (tests/diagnostics). */
    std::size_t coveredPages() const { return table_.size(); }

    /** First-touch pages claimed so far (0 for other kinds). */
    std::size_t claimedPages() const { return claimed_; }

  private:
    PlacementPolicy(PlacementKind kind, const Geometry &g);

    std::size_t
    pageIndexOf(Addr addr) const
    {
        return pageShift_ >= 0
                   ? static_cast<std::size_t>(addr >> pageShift_)
                   : static_cast<std::size_t>(addr / g_.pageBytes);
    }

    /** The policy's rule for an unclaimed page index (cold path). */
    ProcId ruleHome(std::size_t page_idx) const;

    /** Extend the table through @p page_idx using ruleHome. */
    void ensureCovered(std::size_t page_idx);

    PlacementKind kind_;
    Geometry g_;
    int pageShift_ = -1; ///< log2(pageBytes) when a power of two
    int privShift_ = -1; ///< log2(privateStride) when a power of two

    std::vector<ProcId> table_; ///< page index -> home node
    /** first-touch: 1 = table_[i] is a claim/pin, not the fallback rule */
    std::vector<std::uint8_t> resolved_;
    std::size_t claimed_ = 0;

    const AddressSpace *space_ = nullptr; ///< class-affinity only
    ProcId metaNode_ = 0;                 ///< class-affinity only
    /** profile: page index -> majority accessor */
    std::unordered_map<std::size_t, ProcId> profiled_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_PLACEMENT_HH
