/**
 * @file
 * Unit tests for TracedMemory (typed loads/stores with trace emission),
 * PrivateHeap mark/rewind, and the slotted page layout.
 */

#include <gtest/gtest.h>

#include "db/page.hh"
#include "db_test_util.hh"

namespace {

using namespace dss;
using dss::test::MemFixture;

TEST(TracedMemory, LoadStoreRoundTrip)
{
    MemFixture f;
    sim::Addr a = f.space.shared().alloc(64, sim::DataClass::Data);
    f.mem.store<std::int64_t>(a, -42);
    EXPECT_EQ(f.mem.load<std::int64_t>(a), -42);
    f.mem.store<double>(a + 8, 2.5);
    EXPECT_DOUBLE_EQ(f.mem.load<double>(a + 8), 2.5);
    f.mem.store<std::uint16_t>(a + 16, 777);
    EXPECT_EQ(f.mem.load<std::uint16_t>(a + 16), 777);
}

TEST(TracedMemory, EveryAccessIsTraced)
{
    MemFixture f;
    sim::Addr a = f.space.shared().alloc(64, sim::DataClass::Index);
    f.mem.load<std::int32_t>(a);
    f.mem.store<std::int32_t>(a, 1);
    EXPECT_EQ(f.countOps(sim::Op::Read, sim::DataClass::Index), 1u);
    EXPECT_EQ(f.countOps(sim::Op::Write, sim::DataClass::Index), 1u);
}

TEST(TracedMemory, BulkOpsEmitOneEventPerWord)
{
    MemFixture f;
    sim::Addr a = f.space.shared().alloc(64, sim::DataClass::Data);
    char buf[20] = "0123456789abcdefghi";
    f.mem.storeBytes(a, buf, 20);
    EXPECT_EQ(f.countOps(sim::Op::Write), 3u); // ceil(20/8)
    char out[20];
    f.mem.loadBytes(a, out, 20);
    EXPECT_EQ(std::memcmp(buf, out, 20), 0);
    EXPECT_EQ(f.countOps(sim::Op::Read), 3u);
}

TEST(TracedMemory, CopyEmitsReadAndWritePairs)
{
    MemFixture f;
    sim::Addr src = f.space.shared().alloc(32, sim::DataClass::Data);
    sim::Addr dst = f.space.priv(0).alloc(32, sim::DataClass::Priv);
    f.mem.store<std::int64_t>(src, 99);
    f.stream.clear();
    f.mem.copy(dst, src, 16);
    EXPECT_EQ(f.mem.load<std::int64_t>(dst), 99);
    EXPECT_EQ(f.countOps(sim::Op::Read, sim::DataClass::Data), 2u);
    EXPECT_EQ(f.countOps(sim::Op::Write, sim::DataClass::Priv), 2u);
}

TEST(TracedMemory, LockMarkersCarryClass)
{
    MemFixture f;
    sim::Addr w = f.space.shared().alloc(64, sim::DataClass::LockSLock, 64);
    f.mem.lockAcquire(w);
    f.mem.lockRelease(w);
    EXPECT_EQ(f.countOps(sim::Op::LockAcq, sim::DataClass::LockSLock), 1u);
    EXPECT_EQ(f.countOps(sim::Op::LockRel, sim::DataClass::LockSLock), 1u);
}

TEST(TracedMemory, UnmappedAddressThrows)
{
    MemFixture f;
    EXPECT_THROW(f.mem.load<std::int32_t>(0x7), std::runtime_error);
}

TEST(PrivateHeap, MarkRewindReusesAddresses)
{
    MemFixture f;
    db::PrivateHeap heap(f.space, 0);
    std::size_t mark = heap.mark();
    sim::Addr a = heap.alloc(128);
    heap.rewind(mark);
    sim::Addr b = heap.alloc(128);
    EXPECT_EQ(a, b);
}

TEST(Page, InitAndAppend)
{
    MemFixture f;
    sim::Addr base =
        f.space.shared().alloc(db::kPageBytes, sim::DataClass::Data, 8192);
    db::PageRef page(f.mem, base);
    page.init();
    EXPECT_EQ(page.numSlots(), 0u);

    char tup[24] = "tuple-0";
    int s0 = page.addTuple(tup, sizeof(tup));
    EXPECT_EQ(s0, 0);
    char tup1[24] = "tuple-1";
    int s1 = page.addTuple(tup1, sizeof(tup1));
    EXPECT_EQ(s1, 1);
    EXPECT_EQ(page.numSlots(), 2u);
}

TEST(Page, TuplesLaidOutAscending)
{
    // Ascending layout is what makes sequential scans prefetchable
    // (DESIGN.md Section 5 / paper Section 6).
    MemFixture f;
    sim::Addr base =
        f.space.shared().alloc(db::kPageBytes, sim::DataClass::Data, 8192);
    db::PageRef page(f.mem, base);
    page.init();
    char tup[40] = {};
    page.addTuple(tup, sizeof(tup));
    page.addTuple(tup, sizeof(tup));
    page.addTuple(tup, sizeof(tup));
    EXPECT_LT(page.tupleAddr(0), page.tupleAddr(1));
    EXPECT_LT(page.tupleAddr(1), page.tupleAddr(2));
    EXPECT_EQ(page.tupleAddr(1) - page.tupleAddr(0), 40u);
}

TEST(Page, TupleContentsSurviveRoundTrip)
{
    MemFixture f;
    sim::Addr base =
        f.space.shared().alloc(db::kPageBytes, sim::DataClass::Data, 8192);
    db::PageRef page(f.mem, base);
    page.init();
    char tup[16] = "abcdefg";
    int s = page.addTuple(tup, sizeof(tup));
    char out[16];
    f.mem.loadBytes(page.tupleAddr(static_cast<std::uint16_t>(s)), out, 16);
    EXPECT_STREQ(out, "abcdefg");
}

TEST(Page, FillsUntilCapacityThenRejects)
{
    MemFixture f;
    sim::Addr base =
        f.space.shared().alloc(db::kPageBytes, sim::DataClass::Data, 8192);
    db::PageRef page(f.mem, base);
    page.init();
    char tup[128] = {};
    int added = 0;
    while (page.addTuple(tup, sizeof(tup)) >= 0)
        ++added;
    // ~ (8192 - slot area) / 128 tuples fit.
    EXPECT_GT(added, 50);
    EXPECT_LE(static_cast<unsigned>(added), db::PageRef::kMaxSlots);
    EXPECT_EQ(page.numSlots(), static_cast<std::uint16_t>(added));
}

TEST(Page, SlotCountCapEnforced)
{
    MemFixture f;
    sim::Addr base =
        f.space.shared().alloc(db::kPageBytes, sim::DataClass::Data, 8192);
    db::PageRef page(f.mem, base);
    page.init();
    char tup[8] = {};
    int added = 0;
    while (page.addTuple(tup, sizeof(tup)) >= 0)
        ++added;
    EXPECT_EQ(static_cast<unsigned>(added), db::PageRef::kMaxSlots);
}

} // namespace
