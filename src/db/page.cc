#include "db/page.hh"

namespace dss {
namespace db {

void
PageRef::init()
{
    mem_.store<std::uint16_t>(base_ + kNumSlotsOff, 0);
    mem_.store<std::uint16_t>(base_ + kDataCursorOff,
                              static_cast<std::uint16_t>(kDataAreaOff));
}

int
PageRef::addTuple(const void *data, std::size_t len)
{
    auto nslots = mem_.load<std::uint16_t>(base_ + kNumSlotsOff);
    auto cursor = mem_.load<std::uint16_t>(base_ + kDataCursorOff);

    // Keep tuple bodies 8-byte aligned.
    std::size_t aligned = (len + 7) & ~std::size_t{7};
    if (nslots >= kMaxSlots || cursor + aligned > kPageBytes)
        return -1;

    mem_.storeBytes(base_ + cursor, data, len);
    mem_.store<std::uint16_t>(base_ + kSlotArrayOff + 2 * nslots, cursor);

    mem_.store<std::uint16_t>(base_ + kNumSlotsOff,
                              static_cast<std::uint16_t>(nslots + 1));
    mem_.store<std::uint16_t>(base_ + kDataCursorOff,
                              static_cast<std::uint16_t>(cursor + aligned));
    return nslots;
}

std::uint16_t
PageRef::numSlots()
{
    return mem_.load<std::uint16_t>(base_ + kNumSlotsOff);
}

sim::Addr
PageRef::tupleAddr(std::uint16_t slot)
{
    auto off = mem_.load<std::uint16_t>(base_ + kSlotArrayOff + 2 * slot);
    if (off == kDeadSlot)
        return 0;
    return base_ + off;
}

void
PageRef::killSlot(std::uint16_t slot)
{
    mem_.store<std::uint16_t>(base_ + kSlotArrayOff + 2 * slot, kDeadSlot);
}

bool
PageRef::slotLive(std::uint16_t slot)
{
    auto off = mem_.load<std::uint16_t>(base_ + kSlotArrayOff + 2 * slot);
    return off != kDeadSlot;
}

} // namespace db
} // namespace dss
