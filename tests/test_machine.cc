/**
 * @file
 * Integration tests for the Machine: hand-built traces with known timing
 * and coherence outcomes (the paper's latency table, miss classification,
 * write-buffer stalls, metalock spinning, prefetch behaviour, warm runs).
 */

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/arena.hh"
#include "sim/error.hh"
#include "sim/machine.hh"

namespace {

using namespace dss::sim;

constexpr Cycles kL2HitStall = 15;   // 16 - 1 issue cycle
constexpr Cycles kLocalStall = 79;   // 80 - 1
constexpr Cycles kRemote2Stall = 248; // 249 - 1
constexpr Cycles kRemote3Stall = 350; // 351 - 1

TraceStream
streamOf(std::initializer_list<TraceEntry> entries)
{
    TraceStream s;
    for (const TraceEntry &e : entries)
        s.record(e);
    return s;
}

TEST(Machine, ReadHitAfterMissCostsOneCycle)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x8, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.reads, 2u);
    EXPECT_EQ(p.l1Hits(), 1u);
    EXPECT_EQ(p.l1Misses().total(), 1u);
    // Address 0 lives in page 0 -> home node 0 -> local memory: 80 cycles.
    EXPECT_EQ(p.memStall, kLocalStall);
    EXPECT_EQ(p.busy, 2u);
}

TEST(Machine, L2HitAfterL1Conflict)
{
    Machine m(MachineConfig::baseline());
    // 0x0 and 0x1000 conflict in a 4 KB direct-mapped L1 but not in the
    // 128 KB 2-way L2.
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x1000, DataClass::Data, 8),
        TraceEntry::read(0x0, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.l1Misses().total(), 3u);
    EXPECT_EQ(p.l2Misses().total(), 2u);
    EXPECT_EQ(p.l2Hits(), 1u);
    EXPECT_EQ(p.l1Misses().of(DataClass::Data, MissType::Conf), 1u);
    EXPECT_EQ(p.memStall, 2 * kLocalStall + kL2HitStall);
}

TEST(Machine, RemoteHomeIs2Hop)
{
    Machine m(MachineConfig::baseline());
    // Page 1 (addr 8192) is homed at node 1; requester is node 0.
    TraceStream t =
        streamOf({TraceEntry::read(8192, DataClass::Data, 8)});
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].memStall, kRemote2Stall);
}

TEST(Machine, DirtyThirdNodeIs3Hop)
{
    Machine m(MachineConfig::baseline());
    // Proc 1 dirties a line homed at node 2 (addr 16384); proc 0 then
    // reads it: requester 0 -> home 2 -> owner 1 -> requester 0.
    TraceStream writer = streamOf({
        TraceEntry::write(16384, DataClass::Data, 8),
    });
    TraceStream reader = streamOf({
        TraceEntry::busy(10000), // guarantee the write drains first
        TraceEntry::read(16384, DataClass::Data, 8),
    });
    SimStats s = m.run({&writer, &reader});
    EXPECT_EQ(s.procs[1].memStall, kRemote3Stall);
    EXPECT_EQ(s.procs[1].l2Misses().of(DataClass::Data, MissType::Cold), 1u);
}

TEST(Machine, WriteInvalidationMakesCoherenceMiss)
{
    Machine m(MachineConfig::baseline());
    // Proc 0 caches the line, proc 1 writes it, proc 0 re-reads: the
    // re-read must be classified as a coherence miss.
    TraceStream p0 = streamOf({
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::busy(20000),
        TraceEntry::read(0x40, DataClass::Data, 8),
    });
    TraceStream p1 = streamOf({
        TraceEntry::busy(5000), // after p0's first read
        TraceEntry::write(0x40, DataClass::Data, 8),
    });
    SimStats s = m.run({&p0, &p1});
    EXPECT_EQ(s.procs[0].l2Misses().of(DataClass::Data, MissType::Cohe), 1u);
    EXPECT_EQ(s.procs[0].l1Misses().of(DataClass::Data, MissType::Cohe), 1u);
}

TEST(Machine, WriteBufferOverflowStalls)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.writeBufferEntries = 2;
    Machine m(cfg);
    TraceStream t;
    // Remote-home lines (page 1): drains are slow, buffer fills fast.
    for (int i = 0; i < 8; ++i)
        t.record(TraceEntry::write(8192 + i * 64, DataClass::Priv, 8));
    SimStats s = m.run({&t});
    EXPECT_GT(s.procs[0].wbOverflows, 0u);
    EXPECT_GT(s.procs[0].memStall, 0u);
    EXPECT_GT(s.procs[0].pmem(), 0u); // stalls attributed to Priv
}

TEST(Machine, LoadsForwardFromWriteBuffer)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::write(8192, DataClass::Data, 8),
        TraceEntry::read(8192, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    // The read is satisfied by the buffered store: no read stall.
    EXPECT_EQ(s.procs[0].l1Hits(), 1u);
    EXPECT_EQ(s.procs[0].memStall, 0u);
}

TEST(Machine, UncontendedLockHasNoSyncStall)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(10),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].syncStall, 0u);
    // The test&set itself is memory time on metadata.
    EXPECT_GT(s.procs[0].memStall, 0u);
    EXPECT_GT(s.procs[0].memStallByGroup[static_cast<int>(
                  ClassGroup::Metadata)],
              0u);
}

TEST(Machine, ContendedLockChargesSpinToMSync)
{
    Machine m(MachineConfig::baseline());
    TraceStream holder = streamOf({
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(50000),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    TraceStream waiter = streamOf({
        TraceEntry::busy(1000), // arrive while the lock is held
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&holder, &waiter});
    EXPECT_EQ(s.procs[0].syncStall, 0u);
    EXPECT_GT(s.procs[1].syncStall, 40000u); // waited out the hold
}

TEST(Machine, FifoHandOffOrdersWaiters)
{
    Machine m(MachineConfig::baseline());
    TraceStream holder = streamOf({
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(30000),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
        TraceEntry::busy(1),
    });
    TraceStream w1 = streamOf({
        TraceEntry::busy(1000),
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::busy(10000),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    TraceStream w2 = streamOf({
        TraceEntry::busy(2000), // queues behind w1
        TraceEntry::lockAcq(0x400, DataClass::LockSLock),
        TraceEntry::lockRel(0x400, DataClass::LockSLock),
    });
    SimStats s = m.run({&holder, &w1, &w2});
    // w2 waited for holder AND w1's hold.
    EXPECT_GT(s.procs[2].syncStall, s.procs[1].syncStall);
}

TEST(Machine, BusyEntriesAccrueAssumedHits)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({TraceEntry::busy(100)});
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].busy, 100u);
    EXPECT_EQ(s.procs[0].assumedHitReads, 25u);
}

TEST(Machine, PrefetchFetchesAheadOnDataMisses)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    cfg.prefetchDegree = 4;
    Machine m(cfg);
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::busy(2000),
        TraceEntry::read(0x20, DataClass::Data, 8), // prefetched line
    });
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].prefetchesIssued, 4u);
    EXPECT_EQ(s.procs[0].prefetchesUseful, 1u);
    EXPECT_EQ(s.procs[0].l1Misses().total(), 1u); // second read hit
}

TEST(Machine, PrefetchIgnoresNonDataClasses)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    Machine m(cfg);
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Priv, 8),
        TraceEntry::read(0x100, DataClass::Index, 8),
    });
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].prefetchesIssued, 0u);
}

TEST(Machine, PrefetchInFlightDelaysEarlyDemand)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    cfg.prefetchDegree = 4;
    Machine m(cfg);
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        // 0x40 is in the *next* L2 line: its prefetch goes to memory and
        // is still in flight when the demand arrives right behind it.
        TraceEntry::read(0x40, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    // The second read hits a prefetched-but-in-flight line: partial stall,
    // smaller than a full miss.
    EXPECT_EQ(s.procs[0].l1Misses().total(), 1u);
    EXPECT_GT(s.procs[0].memStall, kLocalStall);
    EXPECT_LT(s.procs[0].memStall, 2 * kLocalStall);
}

TEST(Machine, PrefetchSkipsDirtyRemoteLines)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.prefetchData = true;
    cfg.prefetchDegree = 2;
    Machine m(cfg);
    TraceStream p0 = streamOf({
        TraceEntry::busy(10000),
        TraceEntry::read(0x0, DataClass::Data, 8), // prefetch 0x20, 0x40
    });
    TraceStream p1 = streamOf({
        TraceEntry::write(0x40, DataClass::Data, 8), // dirty remote line
    });
    SimStats s = m.run({&p0, &p1});
    (void)s;
    EXPECT_TRUE(m.l1(0).contains(0x20));
    EXPECT_FALSE(m.l1(0).contains(0x40)); // skipped: dirty at proc 1
}

TEST(Machine, WarmRunReusesCaches)
{
    Machine m(MachineConfig::baseline());
    TraceStream t;
    for (Addr a = 0; a < 16 * 1024; a += 64)
        t.record(TraceEntry::read(a, DataClass::Data, 8));
    SimStats cold = m.run({&t});
    SimStats warm = m.run({&t});
    EXPECT_GT(cold.procs[0].l2Misses().total(),
              warm.procs[0].l2Misses().total());
    // Cold data fits the 128 KB L2 entirely: the warm run has no L2
    // misses at all.
    EXPECT_EQ(warm.procs[0].l2Misses().total(), 0u);

    m.resetMemoryState();
    SimStats cold2 = m.run({&t});
    EXPECT_EQ(cold2.procs[0].l2Misses().total(),
              cold.procs[0].l2Misses().total());
}

TEST(Machine, StatsAreFreshEachRun)
{
    Machine m(MachineConfig::baseline());
    TraceStream t = streamOf({TraceEntry::read(0x0, DataClass::Data, 8)});
    m.run({&t});
    SimStats second = m.run({&t});
    EXPECT_EQ(second.procs[0].reads, 1u);
}

TEST(Machine, ReadsEqualHitsPlusMisses)
{
    Machine m(MachineConfig::baseline());
    TraceStream t;
    for (int i = 0; i < 500; ++i)
        t.record(TraceEntry::read((i * 7919) % 32768, DataClass::Data, 8));
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.reads, p.l1Hits() + p.l1Misses().total());
    EXPECT_EQ(p.l2Accesses(), p.l2Hits() + p.l2Misses().total());
}

TEST(Machine, InclusionHoldsAfterMixedTraffic)
{
    Machine m(MachineConfig::baseline());
    TraceStream t;
    for (int i = 0; i < 4000; ++i) {
        Addr a = (static_cast<Addr>(i) * 2654435761u) % (1 << 20);
        if (i % 3 == 0)
            t.record(TraceEntry::write(a, DataClass::Priv, 8));
        else
            t.record(TraceEntry::read(a, DataClass::Data, 8));
    }
    SimStats s = m.run({&t});
    (void)s;
    for (Addr l1_line : m.l1(0).residentLines()) {
        EXPECT_TRUE(m.l2(0).contains(l1_line))
            << "L1 line 0x" << std::hex << l1_line << " not in L2";
    }
}

TEST(Machine, RejectsTooManyTraces)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.nprocs = 2;
    Machine m(cfg);
    TraceStream a, b, c;
    EXPECT_THROW(m.run({&a, &b, &c}), std::invalid_argument);
}

TEST(Machine, RejectsMismatchedLineSizes)
{
    MachineConfig cfg = MachineConfig::baseline();
    cfg.l1().lineBytes = 128; // larger than L2's 64: violates nesting
    EXPECT_THROW(Machine m(cfg), SimError);
}

TEST(Machine, AcceptsEqualLineSizes)
{
    // Equal lines satisfy strict inclusion (the `modern` preset relies
    // on this); only a *larger* upper-level line is rejected.
    MachineConfig cfg = MachineConfig::baseline();
    cfg.l1().lineBytes = 64;
    EXPECT_NO_THROW(Machine m(cfg));
}

TEST(MachineConfig, WithLineSizeKeepsHalfRatio)
{
    MachineConfig cfg = MachineConfig::baseline().withLineSize(256);
    EXPECT_EQ(cfg.l2().lineBytes, 256u);
    EXPECT_EQ(cfg.l1().lineBytes, 128u);
}

TEST(MachineConfig, WithCacheSizesKeepsLines)
{
    MachineConfig cfg =
        MachineConfig::baseline().withCacheSizes(1 << 20, 32 << 20);
    EXPECT_EQ(cfg.l1().sizeBytes, 1u << 20);
    EXPECT_EQ(cfg.l2().sizeBytes, 32u << 20);
    EXPECT_EQ(cfg.l1().lineBytes, 32u);
    EXPECT_EQ(cfg.l2().lineBytes, 64u);
}

/**
 * One processor's seeded random trace: reads, writes and busy work over a
 * private region and a small shared region (so real line conflicts
 * happen), plus critical sections on a pool of four metalock words.
 * Every LockAcq is paired with a LockRel.
 */
TraceStream
contendedTrace(std::mt19937_64 &rng, ProcId p)
{
    TraceStream t;
    const Addr priv_base =
        AddressSpace::kPrivateBase + p * AddressSpace::kPrivateStride;
    const Addr shared_base = 0x1000'0000;
    const Addr lock_base = 0x2000'0000;
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<Addr> priv_off(0, (16 << 10) - 8);
    std::uniform_int_distribution<Addr> shared_off(0, (4 << 10) - 8);
    std::uniform_int_distribution<Addr> lock_idx(0, 3);
    std::uniform_int_distribution<std::uint32_t> busy(1, 30);

    bool in_cs = false;
    Addr held = 0;
    for (int i = 0; i < 400; ++i) {
        const int r = pct(rng);
        if (!in_cs && r < 6) {
            held = lock_base + lock_idx(rng) * 64;
            t.record(TraceEntry::lockAcq(held, DataClass::LockSLock));
            in_cs = true;
        } else if (in_cs && r < 20) {
            t.record(TraceEntry::lockRel(held, DataClass::LockSLock));
            in_cs = false;
        } else if (r < 45) {
            t.record(TraceEntry::busy(busy(rng)));
        } else {
            const bool shared = pct(rng) < 40;
            const Addr a = shared ? shared_base + (shared_off(rng) & ~7ull)
                                  : priv_base + (priv_off(rng) & ~7ull);
            const DataClass cls = shared ? DataClass::Data : DataClass::Priv;
            if (pct(rng) < 30)
                t.record(TraceEntry::write(a, cls, 8));
            else
                t.record(TraceEntry::read(a, cls, 8));
        }
    }
    if (in_cs)
        t.record(TraceEntry::lockRel(held, DataClass::LockSLock));
    return t;
}

TEST(Machine, StoreAndGrantCountsFollowTraceUnderContention)
{
    // Every Write and every LockRel is exactly one store, and every
    // LockAcq ends in exactly one grant (an uncontended acquire or a
    // hand-off from the releaser), however the processors interleave.
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        std::mt19937_64 rng(seed);
        std::vector<TraceStream> traces;
        std::vector<const TraceStream *> ptrs;
        for (ProcId p = 0; p < 4; ++p)
            traces.push_back(contendedTrace(rng, p));
        std::uint64_t trace_writes = 0, lock_acqs = 0;
        for (const TraceStream &t : traces) {
            ptrs.push_back(&t);
            for (const TraceEntry &e : t.entries()) {
                trace_writes += e.op == Op::Write;
                lock_acqs += e.op == Op::LockAcq;
            }
        }
        Machine m(MachineConfig::baseline());
        SimStats s = m.run(ptrs);
        std::uint64_t stores = 0;
        for (const ProcStats &ps : s.procs)
            stores += ps.writes;
        const LockTable::Counters &lc = m.locks().counters();
        ASSERT_EQ(stores, trace_writes + lock_acqs) << "seed " << seed;
        ASSERT_EQ(lc.acquires + lc.handoffs, lock_acqs) << "seed " << seed;
        ASSERT_EQ(lc.releases, lock_acqs) << "seed " << seed;
    }
}

TEST(Machine, LockHandoffCompletesUnderContention)
{
    // All four processors fight over one lock; every acquire must be
    // matched and the machine must not deadlock.
    std::vector<TraceStream> traces;
    for (ProcId p = 0; p < 4; ++p) {
        TraceStream t;
        for (int i = 0; i < 50; ++i) {
            t.record(TraceEntry::lockAcq(0x2000'0000, DataClass::LockSLock));
            t.record(TraceEntry::read(0x1000'0000, DataClass::Data, 8));
            t.record(
                TraceEntry::write(0x1000'0000, DataClass::Data, 8));
            t.record(TraceEntry::lockRel(0x2000'0000, DataClass::LockSLock));
            t.record(TraceEntry::busy(5));
        }
        traces.push_back(std::move(t));
    }
    Machine m(MachineConfig::baseline());
    m.run({&traces[0], &traces[1], &traces[2], &traces[3]});
    const LockTable::Counters &lc = m.locks().counters();
    EXPECT_EQ(lc.acquires + lc.handoffs, 200u);
    EXPECT_EQ(lc.releases, 200u);
}

/** Property sweep: a pure streaming read trace sees exactly one cold miss
 * per distinct L2 line, at every line size. */
class MachineLineSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(MachineLineSweep, ColdMissesEqualDistinctLines)
{
    const std::size_t line = GetParam();
    Machine m(MachineConfig::baseline().withLineSize(line));
    TraceStream t;
    const Addr span = 64 * 1024; // streams through, no reuse
    for (Addr a = 0; a < span; a += 8)
        t.record(TraceEntry::read(a, DataClass::Data, 8));
    SimStats s = m.run({&t});
    EXPECT_EQ(s.procs[0].l2Misses().byGroupAndType(ClassGroup::Data,
                                                 MissType::Cold),
              span / line);
}

INSTANTIATE_TEST_SUITE_P(Lines, MachineLineSweep,
                         ::testing::Values(16, 32, 64, 128, 256));

} // namespace
