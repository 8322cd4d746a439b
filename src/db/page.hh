/**
 * @file
 * Slotted 8 KB pages, Postgres-style: a small header, a slot array growing
 * up, and tuple bodies growing down from the page end. Heap pages hold
 * table tuples (Data class); B-tree pages use their own layout (btree.hh)
 * but live in the same buffer blocks.
 */

#ifndef DSS_DB_PAGE_HH
#define DSS_DB_PAGE_HH

#include "db/common.hh"
#include "db/mem.hh"

namespace dss {
namespace db {

/**
 * Accessor for one slotted page at a fixed simulated address.
 *
 * Unlike classic Postgres pages (tuples packed downward from the page
 * end), tuple bodies are laid out at ascending addresses after a reserved
 * slot-array area. Sequential scans therefore walk ascending addresses,
 * which is what makes next-line data prefetching effective (Section 6 of
 * the paper measures gains for exactly this pattern).
 */
class PageRef
{
  public:
    PageRef(TracedMemory &mem, sim::Addr base) : mem_(mem), base_(base) {}

    /** Format an empty page (setup time). */
    void init();

    /**
     * Append a tuple (setup time).
     * @return slot index, or -1 if the page is full.
     */
    int addTuple(const void *data, std::size_t len);

    /** Number of occupied slots (traced header read). */
    std::uint16_t numSlots();

    /**
     * Simulated address of the tuple in @p slot (traced slot read).
     * @return 0 if the slot was deleted (tombstoned).
     */
    sim::Addr tupleAddr(std::uint16_t slot);

    /** Tombstone @p slot (delete; the body space is not reclaimed). */
    void killSlot(std::uint16_t slot);

    /** True if @p slot still holds a live tuple (traced slot read). */
    bool slotLive(std::uint16_t slot);

    sim::Addr base() const { return base_; }

    /** Maximum slots per page (bounded by the reserved slot area). */
    static constexpr std::uint16_t kMaxSlots = 252;

    /** Slot-array marker for deleted tuples. */
    static constexpr std::uint16_t kDeadSlot = 0xffff;

  private:
    // Header layout: {nslots u16, dataCursor u16}, then the slot array,
    // then tuple bodies at ascending offsets.
    static constexpr sim::Addr kNumSlotsOff = 0;
    static constexpr sim::Addr kDataCursorOff = 2;
    static constexpr sim::Addr kSlotArrayOff = 8;
    static constexpr sim::Addr kDataAreaOff =
        kSlotArrayOff + 2 * kMaxSlots + 4; // 8-byte aligned

    TracedMemory &mem_;
    sim::Addr base_;
};

} // namespace db
} // namespace dss

#endif // DSS_DB_PAGE_HH
