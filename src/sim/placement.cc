#include "sim/placement.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "sim/arena.hh"
#include "sim/trace.hh"

namespace dss {
namespace sim {

namespace {

/** log2 of a power of two, -1 otherwise. */
int
shiftOf(std::uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        return -1;
    int s = 0;
    while ((v >>= 1) != 0)
        ++s;
    return s;
}

} // namespace

const char *
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::Interleave: return "interleave";
      case PlacementKind::FirstTouch: return "first-touch";
      case PlacementKind::ClassAffinity: return "class-affinity";
      case PlacementKind::Profile: return "profile";
    }
    return "?";
}

std::optional<PlacementSpec>
PlacementSpec::parse(std::string_view text)
{
    PlacementSpec spec;
    const std::size_t colon = text.find(':');
    const std::string_view name = text.substr(0, colon);
    if (colon != std::string_view::npos)
        spec.arg = std::string(text.substr(colon + 1));

    if (name == "interleave" || name == "first-touch") {
        spec.kind = name == "interleave" ? PlacementKind::Interleave
                                         : PlacementKind::FirstTouch;
        if (!spec.arg.empty())
            return std::nullopt; // these take no argument
        return spec;
    }
    if (name == "class-affinity") {
        spec.kind = PlacementKind::ClassAffinity;
        if (!spec.arg.empty()) {
            char *end = nullptr;
            unsigned long node = std::strtoul(spec.arg.c_str(), &end, 10);
            if (!end || *end != '\0' || node >= 8)
                return std::nullopt;
        }
        return spec;
    }
    if (name == "profile") {
        spec.kind = PlacementKind::Profile;
        if (spec.arg.empty())
            return std::nullopt; // the histogram path is mandatory
        return spec;
    }
    return std::nullopt;
}

const char *
PlacementSpec::help()
{
    return "interleave, first-touch, class-affinity[:node], "
           "profile:<histogram.json>";
}

std::string
PlacementSpec::str() const
{
    std::string out = placementKindName(kind);
    if (!arg.empty())
        out += ":" + arg;
    return out;
}

PlacementPolicy::PlacementPolicy(PlacementKind kind, const Geometry &g)
    : kind_(kind), g_(g), pageShift_(shiftOf(g.pageBytes)),
      privShift_(shiftOf(g.privateStride))
{
    if (g_.nnodes == 0 || g_.pageBytes == 0 || g_.privateStride == 0)
        throw std::invalid_argument("placement: degenerate geometry");
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::interleave(const Geometry &g)
{
    return std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::Interleave, g));
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::firstTouch(const Geometry &g)
{
    return std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::FirstTouch, g));
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::classAffinity(const Geometry &g, const AddressSpace &space,
                               ProcId meta_node)
{
    if (meta_node >= g.nnodes)
        throw std::invalid_argument(
            "placement: class-affinity node out of range");
    auto p = std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::ClassAffinity, g));
    p->space_ = &space;
    p->metaNode_ = meta_node;
    // Eagerly cover the allocated shared segment so the classification
    // (which walks granule tags) runs once here, not per access.
    const MemArena &shared = space.shared();
    if (shared.used() > 0) {
        p->ensureCovered(
            static_cast<std::size_t>(shared.base() + shared.used() - 1) /
            g.pageBytes);
    }
    return p;
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::profile(const Geometry &g,
                         const std::vector<PageAccessCounts> &hist)
{
    auto p = std::unique_ptr<PlacementPolicy>(
        new PlacementPolicy(PlacementKind::Profile, g));
    for (const PageAccessCounts &page : hist) {
        const std::size_t idx =
            static_cast<std::size_t>(page.page / g.pageBytes);
        // Majority accessor; ties break toward the lower processor id so
        // the choice never depends on container order.
        ProcId best = 0;
        std::uint64_t most = 0;
        const std::size_t n =
            std::min<std::size_t>(page.counts.size(), g.nnodes);
        for (std::size_t q = 0; q < n; ++q) {
            if (page.counts[q] > most) {
                most = page.counts[q];
                best = static_cast<ProcId>(q);
            }
        }
        if (most > 0)
            p->profiled_[idx] = best;
    }
    // Eagerly cover through the last profiled page so the hot path is a
    // table load, not a hash probe, for everything the histogram saw.
    std::size_t max_idx = 0;
    for (const auto &[idx, home] : p->profiled_)
        max_idx = std::max(max_idx, idx);
    if (!p->profiled_.empty())
        p->ensureCovered(max_idx);
    return p;
}

std::unique_ptr<PlacementPolicy>
PlacementPolicy::make(const PlacementSpec &spec, const Geometry &g,
                      const AddressSpace *space,
                      const std::vector<PageAccessCounts> *hist)
{
    switch (spec.kind) {
      case PlacementKind::Interleave:
        return interleave(g);
      case PlacementKind::FirstTouch:
        return firstTouch(g);
      case PlacementKind::ClassAffinity: {
        if (!space)
            throw std::runtime_error(
                "placement: class-affinity needs the traced database's "
                "address space");
        ProcId node = 0;
        if (!spec.arg.empty())
            node = static_cast<ProcId>(
                std::strtoul(spec.arg.c_str(), nullptr, 10));
        return classAffinity(g, *space, node);
      }
      case PlacementKind::Profile:
        if (!hist)
            throw std::runtime_error(
                "placement: profile needs a page-access histogram");
        return profile(g, *hist);
    }
    throw std::runtime_error("placement: unknown policy kind");
}

ProcId
PlacementPolicy::ruleHome(std::size_t page_idx) const
{
    const auto rr = static_cast<ProcId>(page_idx % g_.nnodes);
    switch (kind_) {
      case PlacementKind::Interleave:
      case PlacementKind::FirstTouch:
        // First-touch pages start on the interleave rule and move to the
        // toucher when beginRun claims them; a page no trace ever
        // references keeps the fallback.
        return rr;
      case PlacementKind::ClassAffinity: {
        // Pages whose dominant arena class is metadata (descriptors,
        // hashes, lock words) get the affinity node; data and index
        // pages stay interleaved for bandwidth. Unmapped shared pages
        // (synthetic test traces) also report MetaOther, but they carry
        // no engine metadata — keep them interleaved.
        const Addr page = static_cast<Addr>(page_idx) * g_.pageBytes;
        const MemArena &shared = space_->shared();
        if (page + g_.pageBytes <= shared.base() ||
            page >= shared.base() + shared.used())
            return rr;
        return isMetadataClass(space_->pageClassOf(page, g_.pageBytes))
                   ? metaNode_
                   : rr;
      }
      case PlacementKind::Profile: {
        auto it = profiled_.find(page_idx);
        return it != profiled_.end() ? it->second : rr;
      }
    }
    return rr;
}

void
PlacementPolicy::ensureCovered(std::size_t page_idx)
{
    if (page_idx >= kMaxTablePages)
        page_idx = kMaxTablePages - 1;
    if (page_idx < table_.size())
        return;
    const std::size_t old = table_.size();
    table_.resize(page_idx + 1);
    resolved_.resize(page_idx + 1, 0);
    for (std::size_t i = old; i < table_.size(); ++i)
        table_[i] = ruleHome(i);
}

void
PlacementPolicy::pinPage(Addr addr, ProcId home)
{
    if (addr >= g_.privateBase || home >= g_.nnodes)
        return; // private pages are always owner-homed
    const std::size_t idx = pageIndexOf(addr);
    if (idx >= kMaxTablePages)
        return;
    ensureCovered(idx);
    table_[idx] = home;
    if (!resolved_[idx]) {
        resolved_[idx] = 1;
        ++claimed_;
    }
}

void
PlacementPolicy::beginRun(const std::vector<const TraceStream *> &traces)
{
    // Only first-touch needs to look at the traces. The other policies
    // precompute their table at construction (class-affinity covers the
    // allocated arena span, profile covers the histogrammed pages) and
    // their ruleHome fallback returns the same answer as a table slot
    // would, so scanning every entry per run would buy nothing — and the
    // scan is O(trace), which BM_MachineReplay shows directly as lost
    // replay throughput.
    if (kind_ != PlacementKind::FirstTouch)
        return;

    // Pass 1: table coverage. Every shared page any trace touches gets a
    // slot so pass 2 can claim it.
    std::size_t max_idx = 0;
    bool any = false;
    for (const TraceStream *t : traces) {
        if (!t)
            continue;
        for (const TraceEntry &e : t->entries()) {
            if (e.op == Op::Busy || e.addr >= g_.privateBase)
                continue;
            max_idx = std::max(max_idx, pageIndexOf(e.addr));
            any = true;
        }
    }
    if (any)
        ensureCovered(max_idx);

    // Pass 2: first-touch claims, in (trace position, processor) order.
    // Position-major iteration makes "first" a pure function of the
    // traces, independent of the simulated interleaving (the same
    // argument the fault planner uses).
    std::size_t longest = 0;
    for (const TraceStream *t : traces)
        if (t)
            longest = std::max(longest, t->entries().size());
    for (std::size_t pos = 0; pos < longest; ++pos) {
        for (std::size_t p = 0; p < traces.size(); ++p) {
            if (!traces[p] || pos >= traces[p]->entries().size())
                continue;
            const TraceEntry &e = traces[p]->entries()[pos];
            if (e.op == Op::Busy || e.addr >= g_.privateBase)
                continue;
            const std::size_t idx = pageIndexOf(e.addr);
            if (idx >= table_.size() || resolved_[idx])
                continue;
            table_[idx] = static_cast<ProcId>(
                std::min<std::size_t>(p, g_.nnodes - 1));
            resolved_[idx] = 1;
            ++claimed_;
        }
    }
}

} // namespace sim
} // namespace dss
