#include "sim/directory.hh"

#include <algorithm>
#include <cassert>

#include "obs/registry.hh"

namespace dss {
namespace sim {

Directory::Directory(unsigned nnodes, std::size_t line_bytes,
                     std::size_t page_bytes, Addr private_base,
                     Addr private_stride, const LatencyConfig &lat)
    : nnodes_(nnodes), lineBytes_(line_bytes), pageBytes_(page_bytes),
      privateBase_(private_base), privateStride_(private_stride), lat_(lat),
      controllerFree_(nnodes, 0), hctrs_(nnodes)
{
    assert(nnodes_ > 0 && nnodes_ <= 8);
}

Directory::Entry &
Directory::entry(Addr addr)
{
    return entries_[lineAddrOf(addr)];
}

Cycles
Directory::transactionLatency(ProcId requester, ProcId home,
                              ProcId dirty_owner, bool dirty) const
{
    // Count network crossings on the critical request path:
    //   requester -> home            (0 if home is local)
    //   home -> owner -> requester   (only if the line is dirty elsewhere)
    //   home -> requester            (otherwise)
    const unsigned n = crossings(requester, home, dirty_owner, dirty);
    Cycles base;
    switch (n) {
      case 0: base = lat_.localMem; break;
      case 1:
        base = lat_.localMem + (lat_.remote2Hop - lat_.localMem) / 2;
        break;
      case 2: base = lat_.remote2Hop; break;
      default: base = lat_.remote3Hop; break;
    }
    // Transfer-time adjustment relative to the 64 B baseline line. Lines
    // shorter than the baseline do not shorten the round trip (fixed
    // overheads and critical-word-first dominate); longer lines pay for
    // the extra data.
    std::int64_t adj =
        (static_cast<std::int64_t>(lineBytes_) - 64) /
        static_cast<std::int64_t>(lat_.memBytesPerCycle);
    if (adj < 0)
        adj = 0;
    return base + static_cast<Cycles>(adj);
}

Cycles
Directory::occupancyCycles() const
{
    std::int64_t occ =
        static_cast<std::int64_t>(lat_.controllerOccupancy) +
        (static_cast<std::int64_t>(lineBytes_) - 64) /
            static_cast<std::int64_t>(lat_.ctrlBytesPerCycle);
    if (occ < static_cast<std::int64_t>(lat_.controllerOccupancy))
        occ = static_cast<std::int64_t>(lat_.controllerOccupancy);
    return static_cast<Cycles>(occ);
}

Cycles
Directory::acquireController(ProcId home, Cycles arrival)
{
    Cycles &free_at = controllerFree_.at(home);
    Cycles delay = free_at > arrival ? free_at - arrival : 0;
    free_at = std::max(free_at, arrival) + occupancyCycles();
    ++hctrs_[home].requests;
    hctrs_[home].queueCycles += delay;
    return delay;
}

const Directory::Entry *
Directory::peek(Addr addr) const
{
    auto it = entries_.find(lineAddrOf(addr));
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::pair<Addr, Directory::Entry>>
Directory::sortedEntries() const
{
    std::vector<std::pair<Addr, Entry>> out(entries_.begin(),
                                            entries_.end());
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

void
Directory::registerStats(obs::Registry &reg, const std::string &prefix) const
{
    for (unsigned h = 0; h < nnodes_; ++h) {
        const std::string base =
            obs::metricName(prefix, "home" + std::to_string(h));
        reg.addCounter(base + ".requests",
                       [this, h] { return hctrs_[h].requests; });
        reg.addCounter(base + ".queue_cycles",
                       [this, h] { return hctrs_[h].queueCycles; });
    }
    reg.addCounter(obs::metricName(prefix, "requests"), [this] {
        std::uint64_t n = 0;
        for (const HomeCounters &c : hctrs_)
            n += c.requests;
        return n;
    });
    reg.addCounter(obs::metricName(prefix, "queue_cycles"), [this] {
        std::uint64_t n = 0;
        for (const HomeCounters &c : hctrs_)
            n += c.queueCycles;
        return n;
    });
    reg.addGauge(obs::metricName(prefix, "tracked_lines"), [this] {
        return static_cast<double>(entries_.size());
    });
}

void
Directory::reset()
{
    entries_.clear();
    resetControllers();
}

void
Directory::resetControllers()
{
    std::fill(controllerFree_.begin(), controllerFree_.end(), 0);
}

void
Directory::resetStats()
{
    std::fill(hctrs_.begin(), hctrs_.end(), HomeCounters{});
}

} // namespace sim
} // namespace dss
