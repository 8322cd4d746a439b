/**
 * @file
 * Line-level memory profiler, recorded by a Machine with the profile
 * attached: true/false-sharing classification of synthetic ping-pong
 * patterns, conflict-miss set attribution, region symbolization, rerun
 * bit-identity of the profile, reconciliation of its totals with the
 * Machine's own counters, and the unprofiled-mode guarantees (no tracker
 * allocated, split counters zero).
 */

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/json.hh"
#include "obs/lineinfo.hh"
#include "obs/memprof.hh"
#include "sim/arena.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"
#include "sim/sharing.hh"
#include "sim/trace.hh"

namespace {

using namespace dss;

constexpr sim::Addr kLine = sim::AddressSpace::kSharedBase; // line-aligned

/** @p nprocs processors with a 4 KB direct-mapped coherent L2 (64 sets
 * of 64 B lines) under a 1 KB L1. */
sim::MachineConfig
smallConfig(unsigned nprocs = 2)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = nprocs;
    cfg.l1().sizeBytes = 1024;
    cfg.l2().sizeBytes = 4 * 1024;
    cfg.l2().assoc = 1;
    return cfg;
}

std::vector<const sim::TraceStream *>
ptrs(const std::vector<sim::TraceStream> &streams)
{
    std::vector<const sim::TraceStream *> out;
    for (const sim::TraceStream &s : streams)
        out.push_back(&s);
    return out;
}

/** Replay @p streams on a fresh machine of @p cfg recording into a
 * fresh profile. */
obs::MemProfile
profileOf(const sim::MachineConfig &cfg,
          const std::vector<sim::TraceStream> &streams)
{
    obs::MemProfile prof(cfg);
    sim::Machine machine(cfg);
    machine.setMemProfile(&prof);
    (void)machine.run(ptrs(streams));
    return prof;
}

// ------------------------------------------------------------ region map

TEST(RegionMap, ResolvesFlatAndIndexedRegions)
{
    obs::RegionMap map;
    map.add(0x1000, 64, "BufMgrLock");
    map.addIndexed(0x2000, 4, 32, "buf descriptor");

    EXPECT_EQ(map.resolve(0x1000), "BufMgrLock");
    EXPECT_EQ(map.resolve(0x103f), "BufMgrLock");
    EXPECT_EQ(map.resolve(0x1040), ""); // one past the end
    EXPECT_EQ(map.resolve(0x2000), "buf descriptor 0");
    EXPECT_EQ(map.resolve(0x2025), "buf descriptor 1");
    EXPECT_EQ(map.resolve(0x207f), "buf descriptor 3");
    EXPECT_EQ(map.resolve(0x0), "");
    EXPECT_EQ(map.size(), 2u);
}

TEST(RegionMap, RejectsOverlappingRegions)
{
    obs::RegionMap map;
    map.add(0x1000, 64, "a");
    EXPECT_THROW(map.add(0x1020, 64, "b"), std::invalid_argument);
    EXPECT_THROW(map.add(0x0fff, 2, "c"), std::invalid_argument);
    EXPECT_THROW(map.add(0x1000, 0, "empty"), std::invalid_argument);
    map.add(0x1040, 64, "adjacent is fine");
    EXPECT_EQ(map.size(), 2u);
}

// --------------------------------------------- true / false classification

/** Compute time between the accesses of a round: longer than any miss,
 * so the processors' rounds interleave on the machine. */
constexpr sim::Cycles kThink = 1000;

/** Two processors taking turns: processor 1 starts half a round late. */
std::vector<sim::TraceStream>
staggered()
{
    std::vector<sim::TraceStream> streams(2);
    streams[1].record(sim::TraceEntry::busy(kThink / 2));
    return streams;
}

/** Both processors read-modify-write one word of kLine in turns,
 * @p rounds times: processor 0 the word at offset 0, processor 1 the
 * word at @p offset1. The read makes each processor's miss a classified
 * one: the machine classifies read and RMW misses, while a
 * write-allocate is a directory transaction. */
std::vector<sim::TraceStream>
pingPong(unsigned rounds, sim::Addr offset1)
{
    std::vector<sim::TraceStream> streams = staggered();
    for (unsigned i = 0; i < rounds; ++i)
        for (unsigned p = 0; p < 2; ++p) {
            const sim::Addr a = kLine + (p ? offset1 : 0);
            streams[p].record(sim::TraceEntry::busy(kThink));
            streams[p].record(
                sim::TraceEntry::read(a, sim::DataClass::Data, 8));
            streams[p].record(
                sim::TraceEntry::write(a, sim::DataClass::Data, 8));
        }
    return streams;
}

/** Two processors ping-ponging the SAME word: every coherence miss
 * consumes remotely-written data, so the split must be all-true. */
TEST(MemProfile, SameWordPingPongIsTrueSharing)
{
    const unsigned kRounds = 10;
    const obs::MemProfile prof =
        profileOf(smallConfig(), pingPong(kRounds, 0));

    ASSERT_EQ(prof.lines().count(kLine), 1u);
    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.reads, 2u * kRounds);
    EXPECT_EQ(rec.writes, 2u * kRounds);
    // Each processor's first read is cold; after that every read misses
    // on the other's invalidation and reads back the very word it
    // dirtied, and every write upgrades the copy that read fetched.
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheTrue, 2u * (kRounds - 1));
    EXPECT_EQ(rec.coheFalse, 0u);
    EXPECT_EQ(rec.upgrades, 2u * kRounds);
}

/** Two processors ping-ponging DISJOINT words of one line: the misses
 * are pure line-granularity artifacts, so the split must be all-false. */
TEST(MemProfile, DisjointWordPingPongIsFalseSharing)
{
    const unsigned kRounds = 10;
    const obs::MemProfile prof =
        profileOf(smallConfig(), pingPong(kRounds, 56));

    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheFalse, 2u * (kRounds - 1));
    EXPECT_EQ(rec.coheTrue, 0u);
}

/** A reader chasing a writer: reads of the written word are true sharing,
 * reads of a different word in the same line are false sharing. */
TEST(MemProfile, ReaderClassifiesByWordOverlap)
{
    const unsigned kRounds = 8;
    for (bool overlap : {true, false}) {
        std::vector<sim::TraceStream> streams = staggered();
        const sim::Addr read_at = overlap ? kLine : kLine + 32;
        for (unsigned i = 0; i < kRounds; ++i) {
            for (sim::TraceStream &s : streams)
                s.record(sim::TraceEntry::busy(kThink));
            streams[0].record(
                sim::TraceEntry::write(kLine, sim::DataClass::Data, 8));
            streams[1].record(
                sim::TraceEntry::read(read_at, sim::DataClass::Data, 8));
        }
        const obs::MemProfile prof = profileOf(smallConfig(), streams);

        const obs::LineRecord &rec = prof.lines().at(kLine);
        EXPECT_EQ(rec.reads, kRounds);
        EXPECT_EQ(rec.writes, kRounds);
        if (overlap) {
            EXPECT_GT(rec.coheTrue, 0u);
            EXPECT_EQ(rec.coheFalse, 0u);
        } else {
            EXPECT_EQ(rec.coheTrue, 0u);
            EXPECT_GT(rec.coheFalse, 0u);
        }
    }
}

/** Lock acquire/release trace entries count as writes; the acquire's
 * test&set classifies its miss like a read. */
TEST(MemProfile, LockOpsCountAsWrites)
{
    std::vector<sim::TraceStream> streams = staggered();
    for (unsigned i = 0; i < 6; ++i)
        for (unsigned p = 0; p < 2; ++p) {
            streams[p].record(sim::TraceEntry::busy(kThink));
            streams[p].record(
                sim::TraceEntry::lockAcq(kLine, sim::DataClass::LockSLock));
            streams[p].record(
                sim::TraceEntry::lockRel(kLine, sim::DataClass::LockSLock));
        }
    const obs::MemProfile prof = profileOf(smallConfig(), streams);

    const obs::LineRecord &rec = prof.lines().at(kLine);
    EXPECT_EQ(rec.cls, sim::DataClass::LockSLock);
    EXPECT_EQ(rec.writes, 24u);
    EXPECT_EQ(rec.reads, 0u);
    // Lock word: same-word ping-pong. Each test&set after the first
    // per processor misses on the other's release.
    EXPECT_EQ(rec.cold, 2u);
    EXPECT_EQ(rec.coheTrue, 2u * 6 - 2);
    EXPECT_EQ(rec.coheFalse, 0u);
}

// ------------------------------------------------------- set attribution

TEST(MemProfile, ConflictMissesAttributeToTheirSet)
{
    // 4 KB direct-mapped, 64 B lines -> 64 sets; a stride of 4 KB maps
    // every address to the same set.
    const unsigned kRounds = 5;
    std::vector<sim::TraceStream> streams(1);
    for (unsigned i = 0; i < kRounds; ++i)
        for (unsigned k = 0; k < 3; ++k)
            streams[0].record(sim::TraceEntry::read(
                kLine + k * 4096, sim::DataClass::Data, 8));
    const obs::MemProfile prof = profileOf(smallConfig(1), streams);

    const std::size_t set = (kLine / 64) % 64;
    obs::LineRecord tot = prof.totals();
    EXPECT_EQ(tot.cold, 3u);
    EXPECT_EQ(tot.conf, 3u * kRounds - 3);
    EXPECT_EQ(prof.confOfSet(set), tot.conf);

    obs::Json doc = prof.toJson(4);
    const obs::Json *sets = doc.find("sets");
    ASSERT_NE(sets, nullptr);
    ASSERT_GE(sets->size(), 1u);
    EXPECT_EQ(sets->at(0).find("set")->asUint(), set);
    EXPECT_EQ(sets->at(0).find("conf")->asUint(), tot.conf);
}

// --------------------------------------------------------- symbolization

TEST(MemProfile, SymbolizesThroughRegionMapWithClassFallback)
{
    std::vector<sim::TraceStream> streams(2);
    const sim::Addr unmapped = kLine + 4096 + 64; // another set
    for (unsigned i = 0; i < 4; ++i)
        for (unsigned p = 0; p < 2; ++p) {
            for (auto [addr, cls] :
                 {std::pair{kLine, sim::DataClass::LockSLock},
                  std::pair{unmapped, sim::DataClass::LockHash}}) {
                streams[p].record(sim::TraceEntry::read(addr, cls, 8));
                streams[p].record(sim::TraceEntry::write(addr, cls, 8));
            }
        }
    const obs::MemProfile prof = profileOf(smallConfig(), streams);

    obs::RegionMap symbols;
    symbols.add(kLine, 64, "LockMgrLock");

    obs::Json doc = prof.toJson(10, &symbols);
    const obs::Json *lines = doc.find("lines");
    ASSERT_NE(lines, nullptr);
    bool saw_symbol = false, saw_fallback = false;
    for (std::size_t i = 0; i < lines->size(); ++i) {
        const obs::Json &rec = lines->at(i);
        if (rec.find("addr")->asUint() == kLine) {
            EXPECT_EQ(rec.find("symbol")->asString(), "LockMgrLock");
            saw_symbol = true;
        }
        if (rec.find("addr")->asUint() == unmapped) {
            // No region covers it: falls back to the data-class name.
            EXPECT_EQ(rec.find("symbol")->asString(),
                      sim::dataClassName(sim::DataClass::LockHash));
            saw_fallback = true;
        }
    }
    EXPECT_TRUE(saw_symbol);
    EXPECT_TRUE(saw_fallback);
}

// --------------------------------------------------- workload determinism

/** The Machine's replay is deterministic, so the profile's JSON must be
 * byte-identical on a rerun. */
TEST(MemProfile, ProfileBitIdenticalAcrossEnginesAndThreads)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);

    obs::RegionMap symbols;
    wl.db().catalog().describeRegions(symbols);
    ASSERT_GT(symbols.size(), 0u);

    std::string dumps[2];
    for (std::string &dump : dumps) {
        obs::MemProfile prof(cfg);
        harness::RunOptions ro;
        ro.memProfile = &prof;
        (void)harness::runCold(cfg, traces, ro);
        dump = prof.toJson(20, &symbols).dump();
    }
    EXPECT_FALSE(dumps[0].empty());
    EXPECT_EQ(dumps[0], dumps[1]);
}

/** With a profile attached, the machine's own split reconciles exactly:
 * per proc, l2CoheTrue + l2CoheFalse == the Cohe column of l2Misses. */
TEST(MemProfile, MachineSplitReconcilesWithCoherenceMisses)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);

    obs::MemProfile prof(cfg);
    harness::RunOptions ro;
    ro.memProfile = &prof;
    obs::Json snapshot;
    ro.registrySnapshot = &snapshot;
    sim::SimStats stats = harness::runCold(cfg, traces, ro);

    std::uint64_t total_cohe = 0;
    for (std::size_t p = 0; p < stats.procs.size(); ++p) {
        const sim::ProcStats &st = stats.procs[p];
        std::uint64_t cohe = 0;
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
            cohe += st.l2Misses().of(static_cast<sim::DataClass>(c),
                                   sim::MissType::Cohe);
        EXPECT_EQ(st.l2CoheTrue + st.l2CoheFalse, cohe) << "proc " << p;
        total_cohe += cohe;

        const std::string prefix = "proc" + std::to_string(p);
        EXPECT_EQ(snapshot.find(prefix + ".miss.cohe")->asUint(), cohe);
        EXPECT_EQ(snapshot.find(prefix + ".miss.cohe.true")->asUint(),
                  st.l2CoheTrue);
        EXPECT_EQ(snapshot.find(prefix + ".miss.cohe.false")->asUint(),
                  st.l2CoheFalse);
    }
    EXPECT_GT(total_cohe, 0u); // Q3 on 4 procs does share
}

/** The profile holds the Machine's numbers: per class and miss type its
 * totals equal the coherent-level miss table, its true/false split the
 * machine's split, and its 3-hop count the machine's 3-hop
 * transactions — under interleaved and first-touch homes alike. */
TEST(MemProfile, TotalsReconcileWithMachineCounters)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    const sim::PlacementPolicy::Geometry g{
        cfg.nprocs, cfg.pageBytes, sim::AddressSpace::kPrivateBase,
        sim::AddressSpace::kPrivateStride};
    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        const harness::TraceSet traces = wl.trace(q);
        for (bool first_touch : {false, true}) {
            SCOPED_TRACE(std::string(tpcd::queryName(q)) +
                         (first_touch ? " first-touch" : " interleave"));
            auto placement = first_touch
                                 ? sim::PlacementPolicy::firstTouch(g)
                                 : sim::PlacementPolicy::interleave(g);
            obs::MemProfile prof(cfg);
            harness::RunOptions ro;
            ro.memProfile = &prof;
            ro.placement = placement.get();
            const sim::ProcStats agg =
                harness::runCold(cfg, traces, ro).aggregate();

            const obs::Json doc = prof.toJson(1);
            const obs::Json &classes = *doc.find("classes");
            for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
                const auto cls = static_cast<sim::DataClass>(c);
                const obs::Json *rec =
                    classes.find(std::string(sim::dataClassName(cls)));
                auto field = [&](const char *key) {
                    return rec ? rec->find(key)->asUint() : 0;
                };
                const sim::MissTable &m = agg.cohMisses();
                EXPECT_EQ(field("cold"), m.of(cls, sim::MissType::Cold))
                    << sim::dataClassName(cls);
                EXPECT_EQ(field("conf"), m.of(cls, sim::MissType::Conf))
                    << sim::dataClassName(cls);
                EXPECT_EQ(field("coheTrue") + field("coheFalse"),
                          m.of(cls, sim::MissType::Cohe))
                    << sim::dataClassName(cls);
            }

            const obs::LineRecord tot = prof.totals();
            EXPECT_EQ(tot.coheTrue, agg.l2CoheTrue);
            EXPECT_EQ(tot.coheFalse, agg.l2CoheFalse);
            std::uint64_t hop3 = 0;
            for (const auto &by_hop : agg.hopsByGroup)
                hop3 += by_hop[sim::ProcStats::kNumHopClasses - 1];
            EXPECT_EQ(tot.hop3, hop3);
            EXPECT_GT(tot.misses(), 0u);
        }
    }
}

// ------------------------------------------------------------- disabled

/** Without a profile the machine must not even allocate the tracker,
 * and the split counters stay zero while plain cohe counts flow.
 * Attaching a profile arms the tracker; detaching frees it. */
TEST(MemProfile, DisabledMachineAllocatesNoTrackerAndSplitsNothing)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);

    sim::Machine machine(cfg);
    EXPECT_EQ(machine.sharingTracker(), nullptr);
    sim::SimStats stats = machine.run(harness::tracePtrs(traces));
    EXPECT_EQ(machine.sharingTracker(), nullptr);

    std::uint64_t cohe = 0;
    for (const sim::ProcStats &st : stats.procs) {
        EXPECT_EQ(st.l2CoheTrue, 0u);
        EXPECT_EQ(st.l2CoheFalse, 0u);
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
            cohe += st.l2Misses().of(static_cast<sim::DataClass>(c),
                                   sim::MissType::Cohe);
    }
    EXPECT_GT(cohe, 0u); // the misses themselves still happen

    obs::MemProfile prof(cfg);
    machine.setMemProfile(&prof);
    EXPECT_NE(machine.sharingTracker(), nullptr);
    machine.setMemProfile(nullptr);
    EXPECT_EQ(machine.sharingTracker(), nullptr);
}

// ------------------------------------------------------------ api misuse

TEST(MemProfile, RejectsBadProcessorCounts)
{
    sim::MachineConfig cfg = smallConfig();
    cfg.nprocs = 0;
    EXPECT_THROW(obs::MemProfile{cfg}, std::invalid_argument);
    cfg.nprocs = sim::SharingTracker::kMaxProcs + 1;
    EXPECT_THROW(obs::MemProfile{cfg}, std::invalid_argument);

    obs::MemProfile prof(smallConfig(1));
    std::vector<sim::TraceStream> streams(2);
    EXPECT_THROW(prof.addTraces(ptrs(streams)), std::invalid_argument);

    // A profile records one machine: a machine with another processor
    // count refuses it.
    sim::Machine machine(smallConfig(2));
    EXPECT_THROW(machine.setMemProfile(&prof), std::invalid_argument);
}

} // namespace
