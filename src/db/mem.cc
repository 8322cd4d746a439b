#include "db/mem.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dss {
namespace db {

std::uint8_t *
TracedMemory::hostOf(Addr addr)
{
    sim::MemArena *a = space_.arenaOf(addr);
    if (!a)
        throw std::runtime_error("TracedMemory: unmapped address");
    return a->host(addr);
}

void
TracedMemory::loadBytes(Addr addr, void *dst, std::size_t n)
{
    std::memcpy(dst, hostOf(addr), n);
    for (std::size_t off = 0; off < n; off += 8) {
        auto sz = static_cast<std::uint8_t>(std::min<std::size_t>(8, n - off));
        sink_->record(
            sim::TraceEntry::read(addr + off, classOf(addr + off), sz));
    }
}

void
TracedMemory::storeBytes(Addr addr, const void *src, std::size_t n)
{
    std::memcpy(hostOf(addr), src, n);
    for (std::size_t off = 0; off < n; off += 8) {
        auto sz = static_cast<std::uint8_t>(std::min<std::size_t>(8, n - off));
        sink_->record(
            sim::TraceEntry::write(addr + off, classOf(addr + off), sz));
    }
}

void
TracedMemory::copy(Addr dst, Addr src, std::size_t n)
{
    std::memcpy(hostOf(dst), hostOf(src), n);
    for (std::size_t off = 0; off < n; off += 8) {
        auto sz = static_cast<std::uint8_t>(std::min<std::size_t>(8, n - off));
        sink_->record(
            sim::TraceEntry::read(src + off, classOf(src + off), sz));
        sink_->record(
            sim::TraceEntry::write(dst + off, classOf(dst + off), sz));
    }
}

void
PrivateHeap::rewind(std::size_t mark)
{
    arena_.rewind(mark);
}

} // namespace db
} // namespace dss
