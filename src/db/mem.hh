/**
 * @file
 * TracedMemory: the DBMS's window onto simulated memory.
 *
 * Every load/store the engine performs on traced structures goes through
 * one of these handles, which (a) reads or writes the real host backing of
 * the arena, so the engine computes correct query results, and (b) emits a
 * TraceEntry tagged with the DataClass of the touched address, so the
 * Machine can replay the reference stream.
 *
 * One handle exists per simulated process. The engine's own stack/static
 * data is ordinary C++ state and is *not* traced — this is precisely the
 * paper's second scaling correction (private stack and static references
 * are assumed to always hit).
 */

#ifndef DSS_DB_MEM_HH
#define DSS_DB_MEM_HH

#include <cstring>
#include <string>

#include "sim/arena.hh"
#include "sim/trace.hh"

namespace dss {
namespace db {

class TracedMemory
{
  public:
    using Addr = sim::Addr;

    TracedMemory(sim::AddressSpace &space, sim::ProcId proc,
                 sim::TraceSink &sink)
        : space_(space), proc_(proc), sink_(&sink)
    {}

    sim::AddressSpace &space() { return space_; }
    sim::ProcId proc() const { return proc_; }

    /** Redirect trace output (e.g. swap in a NullSink during setup). */
    void setSink(sim::TraceSink &sink) { sink_ = &sink; }

    /** Typed load; emits one Read event. */
    template <typename T>
    T
    load(Addr addr)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        T v;
        std::memcpy(&v, hostOf(addr), sizeof(T));
        sink_->record(sim::TraceEntry::read(addr, classOf(addr),
                                            sizeof(T)));
        return v;
    }

    /** Typed store; emits one Write event. */
    template <typename T>
    void
    store(Addr addr, T v)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        std::memcpy(hostOf(addr), &v, sizeof(T));
        sink_->record(sim::TraceEntry::write(addr, classOf(addr),
                                             sizeof(T)));
    }

    /** Bulk load; emits one Read event per 8-byte word. */
    void loadBytes(Addr addr, void *dst, std::size_t n);

    /** Bulk store; emits one Write event per 8-byte word. */
    void storeBytes(Addr addr, const void *src, std::size_t n);

    /** Traced memory-to-memory copy (shared tuple -> private slot). */
    void copy(Addr dst, Addr src, std::size_t n);

    /** Account @p cycles of pure compute. */
    void
    busy(std::uint32_t cycles)
    {
        sink_->record(sim::TraceEntry::busy(cycles));
    }

    /** Metalock acquire marker (resolved dynamically by the Machine). */
    void
    lockAcquire(Addr word)
    {
        sink_->record(sim::TraceEntry::lockAcq(word, classOf(word)));
    }

    /** Metalock release marker. */
    void
    lockRelease(Addr word)
    {
        sink_->record(sim::TraceEntry::lockRel(word, classOf(word)));
    }

    /** Untyped host pointer (setup-time initialization only). */
    std::uint8_t *hostOf(Addr addr);

    sim::DataClass classOf(Addr addr) const { return space_.classOf(addr); }

  private:
    sim::AddressSpace &space_;
    sim::ProcId proc_;
    sim::TraceSink *sink_;
};

/**
 * Bump allocator over a process's private arena with mark/rewind, so each
 * query run reuses the same private heap addresses (the paper notes the
 * same private storage is reused for all selected tuples).
 */
class PrivateHeap
{
  public:
    PrivateHeap(sim::AddressSpace &space, sim::ProcId proc)
        : arena_(space.priv(proc))
    {}

    sim::Addr
    alloc(std::size_t bytes, std::size_t align = 8)
    {
        return arena_.alloc(bytes, sim::DataClass::Priv, align);
    }

    /** Current allocation mark. */
    std::size_t mark() const { return arena_.used(); }

    /** Rewind to a previous mark (frees everything allocated after it). */
    void rewind(std::size_t mark);

  private:
    sim::MemArena &arena_;
};

} // namespace db
} // namespace dss

#endif // DSS_DB_MEM_HH
