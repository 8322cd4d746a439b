/**
 * @file
 * Tests for the generalized N-level hierarchy (sim/hierarchy.hh) and the
 * declarative MachineSpec layer (sim/spec.hh): strict inclusion along
 * three-level chains, coherent-level evictions clearing the upper
 * levels, per-level counter reconciliation, spec JSON round-trips,
 * preset validation, and bit identity — Q6 on the tiny population must
 * reproduce identical statistics on a rerun for both the paper1997 and
 * modern presets.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/stats_json.hh"
#include "sim/error.hh"
#include "sim/machine.hh"
#include "sim/spec.hh"
#include "tpcd/queries.hh"

namespace {

using namespace dss;
using namespace dss::sim;

/** A small three-level chain with a direct-mapped coherent level, so
 * coherent-level conflict evictions are easy to provoke while the upper
 * levels still have room. */
MachineConfig
threeLevelConfig()
{
    MachineConfig cfg = MachineConfig::baseline();
    LevelConfig l1;
    l1.sizeBytes = 128;
    l1.lineBytes = 32;
    l1.assoc = 2;
    l1.hitCycles = 1;
    LevelConfig l2;
    l2.sizeBytes = 256;
    l2.lineBytes = 64;
    l2.assoc = 4;
    l2.hitCycles = 16;
    LevelConfig l3;
    l3.sizeBytes = 256;
    l3.lineBytes = 64;
    l3.assoc = 1; // 4 sets: 0x0 and 0x100 conflict
    l3.hitCycles = 32;
    cfg.levels = {l1, l2, l3};
    cfg.nprocs = 1;
    return cfg;
}

TraceStream
streamOf(std::initializer_list<TraceEntry> entries)
{
    TraceStream s;
    for (const TraceEntry &e : entries)
        s.record(e);
    return s;
}

TEST(Hierarchy, CoherentEvictionInvalidatesUpperLevels)
{
    Machine m(threeLevelConfig());
    // 0x0 and 0x100 share the direct-mapped L3's set 0, but the
    // 4-way L2 and 2-way L1 could hold both: only the inclusion
    // invalidation can remove 0x0 from them.
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x100, DataClass::Data, 8),
    });
    (void)m.run({&t});
    EXPECT_TRUE(m.level(0, 2).contains(0x100));
    EXPECT_FALSE(m.level(0, 2).contains(0x0));
    EXPECT_FALSE(m.level(0, 1).contains(0x0)) << "L2 kept an evicted line";
    EXPECT_FALSE(m.level(0, 0).contains(0x0)) << "L1 kept an evicted line";
    // The replacement line is resident top to bottom.
    EXPECT_TRUE(m.level(0, 1).contains(0x100));
    EXPECT_TRUE(m.level(0, 0).contains(0x100));
}

TEST(Hierarchy, StrictInclusionAfterMixedTrace)
{
    MachineConfig cfg = threeLevelConfig();
    Machine m(cfg);
    TraceStream t;
    // A pseudo-random walk wide enough to force evictions at every level.
    Addr a = 0;
    for (int i = 0; i < 400; ++i) {
        a = (a * 2654435761u + 97) % 0x800;
        const Addr addr = a & ~Addr{7};
        if (i % 5 == 2)
            t.record(TraceEntry::write(addr, DataClass::Data, 8));
        else
            t.record(TraceEntry::read(addr, DataClass::Data, 8));
    }
    (void)m.run({&t});
    for (std::size_t u = 0; u + 1 < cfg.numLevels(); ++u)
        for (Addr line : m.level(0, u).residentLines())
            EXPECT_TRUE(m.level(0, u + 1).contains(line))
                << "level " << u << " line " << line
                << " missing one level down";
}

TEST(Hierarchy, PerLevelCountersReconcile)
{
    Machine m(threeLevelConfig());
    TraceStream t;
    Addr a = 0;
    for (int i = 0; i < 300; ++i) {
        a = (a * 1103515245u + 12345) % 0x600;
        t.record(TraceEntry::read(a & ~Addr{7}, DataClass::Data, 8));
    }
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.levels, 3u);
    // Every L1 read miss reaches level 1; every level-1 miss reaches the
    // coherent level; hits + misses account for each level's lookups.
    EXPECT_EQ(p.levelAccesses[1], p.l1Misses().total());
    EXPECT_EQ(p.levelHits[1] + p.levelMisses[1].total(),
              p.levelAccesses[1]);
    EXPECT_EQ(p.levelAccesses[2], p.levelMisses[1].total());
    EXPECT_EQ(p.levelHits[2] + p.levelMisses[2].total(),
              p.levelAccesses[2]);
    EXPECT_EQ(p.reads, p.levelHits[0] + p.l1Misses().total());
}

TEST(Hierarchy, IntermediateHitCostsItsLatency)
{
    Machine m(threeLevelConfig());
    // Fill set 0 of the 2-way L1 with three lines (0x0, 0x40, 0x80 all
    // map there), evicting 0x0 from the L1 only; the 4-way single-set L2
    // keeps all three. The re-read of 0x0 is then an L2 hit: 16 - 1
    // issue = 15 stall cycles beyond the three initial misses.
    TraceStream t = streamOf({
        TraceEntry::read(0x0, DataClass::Data, 8),
        TraceEntry::read(0x40, DataClass::Data, 8),
        TraceEntry::read(0x80, DataClass::Data, 8),
        TraceEntry::read(0x0, DataClass::Data, 8),
    });
    SimStats s = m.run({&t});
    const ProcStats &p = s.procs[0];
    EXPECT_EQ(p.levelHits[1], 1u);
    EXPECT_EQ(p.levelMisses[0].total(), 4u);
    EXPECT_EQ(p.levelMisses[1].total(), 3u);
    EXPECT_EQ(p.levelMisses[2].total(), 3u);
}

TEST(MachineSpec, PresetNamesAndDefault)
{
    const std::vector<std::string> names = machinePresetNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "paper1997");
    // paper1997 must be *exactly* the legacy baseline: same JSON, so the
    // golden reports cannot tell the spec layer exists.
    const MachineSpec spec = machinePreset("paper1997");
    EXPECT_EQ(obs::toJson(spec.config).dump(),
              obs::toJson(MachineConfig::baseline()).dump());
}

TEST(MachineSpec, ModernPresetIsValidThreeLevel)
{
    const MachineSpec spec = machinePreset("modern");
    EXPECT_EQ(spec.config.numLevels(), 3u);
    EXPECT_TRUE(spec.config.coherent().shared);
    EXPECT_NO_THROW(spec.config.validate());
    EXPECT_NO_THROW(Machine m(spec.config));
}

TEST(MachineSpec, CacheSizeSweepPointsValidateOnModern)
{
    // Every Fig 10/11 point (L1 4K..256K, coherent level 32x that) and
    // the Fig 12 machine (1M / 32M) on a three-level chain: the L2 in
    // between is clamped into the new [L1, L3] range.
    const MachineConfig modern = machinePreset("modern").config;
    for (std::size_t l1 : {4 << 10, 16 << 10, 64 << 10, 256 << 10}) {
        const MachineConfig c = modern.withCacheSizes(l1, 32 * l1);
        EXPECT_NO_THROW(Machine m(c)) << l1;
        EXPECT_GE(c.levels[1].sizeBytes, l1);
        EXPECT_LE(c.levels[1].sizeBytes, 32 * l1);
    }
    const MachineConfig fig12 = modern.withCacheSizes(1 << 20, 32 << 20);
    EXPECT_NO_THROW(Machine m(fig12));
    EXPECT_EQ(fig12.levels[1].sizeBytes, std::size_t{1} << 20);
    // Where the intermediate level already fits, it keeps its size.
    EXPECT_EQ(modern.withCacheSizes(64 << 10, 2 << 20).levels[1].sizeBytes,
              modern.levels[1].sizeBytes);
}

TEST(MachineSpec, Scaled64PresetRuns)
{
    const MachineSpec spec = machinePreset("scaled64");
    EXPECT_EQ(spec.config.nprocs, 64u);
    Machine m(spec.config);
    std::vector<TraceStream> streams(64);
    for (unsigned p = 0; p < 64; ++p)
        streams[p].record(
            TraceEntry::read(0x1000 * p, DataClass::Data, 8));
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &s : streams)
        ptrs.push_back(&s);
    SimStats s = m.run(ptrs);
    EXPECT_EQ(s.procs.size(), 64u);
}

TEST(MachineSpec, UnknownPresetThrows)
{
    EXPECT_THROW(machinePreset("fast"), SimError);
    try {
        (void)loadSpec("fast");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        // The message lists the valid presets.
        EXPECT_NE(std::string(e.what()).find("paper1997"),
                  std::string::npos);
    }
}

TEST(MachineSpec, JsonRoundTripIsLossless)
{
    for (const std::string &name : machinePresetNames()) {
        const MachineSpec spec = machinePreset(name);
        const obs::Json j = toJson(spec);
        const MachineSpec back = specFromJson(j, "reparsed");
        EXPECT_EQ(toJson(back).dump(), j.dump()) << name;
        EXPECT_EQ(back.name, name); // "name" key wins over the argument
    }
}

TEST(MachineSpec, LoadsSpecFileAndRejectsUnknownKeys)
{
    const std::string path = ::testing::TempDir() + "machine_spec.json";
    {
        std::ofstream out(path);
        out << toJson(machinePreset("modern")).dump(2);
    }
    const MachineSpec spec = loadSpec(path);
    EXPECT_EQ(spec.config.numLevels(), 3u);
    EXPECT_EQ(spec.name, "modern");

    {
        std::ofstream out(path);
        out << R"({"nprocs": 4, "asoc": 2})"; // typo'd key
    }
    EXPECT_THROW(loadSpec(path), SimError);

    {
        std::ofstream out(path);
        out << R"({"nprocs": 0})"; // fails validation, not parsing
    }
    EXPECT_THROW(loadSpec(path), SimError);
    std::remove(path.c_str());
}

TEST(MachineSpec, MissingFileThrows)
{
    EXPECT_THROW(loadSpec("/nonexistent/machine.json"), SimError);
}

/**
 * Bit identity on two presets, paper1997 and modern, on Q6 tiny: a
 * repeat run produces byte-identical statistics, at two levels and at
 * three. A level-chain walk that consulted any state outside the
 * simulated machine would break this immediately.
 */
TEST(MachineSpec, FourConfigBitIdentityDifferentialQ6)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4, 42);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    for (const std::string &name : {std::string("paper1997"),
                                    std::string("modern")}) {
        const MachineSpec spec = machinePreset(name);
        const std::string first =
            obs::toJson(harness::runCold(spec.config, traces)).dump();
        const std::string rerun =
            obs::toJson(harness::runCold(spec.config, traces)).dump();
        EXPECT_EQ(rerun, first) << name << ": nondeterministic statistics";
    }
}

} // namespace
