/**
 * @file
 * Tests for the pluggable NUMA page-placement subsystem
 * (sim/placement.hh) and its wiring: the interleave policy must be
 * bit-identical to the historical hardwired Directory rule, first-touch
 * must resolve as a pure function of the traces, the
 * class-affinity and profile policies must follow their inputs (arena
 * class map / access histogram), and the per-run statistics reset the
 * placement work exposed must hold.
 */

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/bufmgr.hh"
#include "harness/options.hh"
#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/pageprof.hh"
#include "obs/stats_json.hh"
#include "sim/arena.hh"
#include "sim/directory.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"

#ifndef DSS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DSS_GOLDEN_DIR"
#endif

namespace {

using namespace dss;
using sim::Addr;
using sim::AddressSpace;
using sim::DataClass;
using sim::PlacementKind;
using sim::PlacementPolicy;
using sim::PlacementSpec;
using sim::ProcId;

PlacementPolicy::Geometry
baselineGeometry(unsigned nnodes = 4)
{
    return {nnodes, 8 * 1024, AddressSpace::kPrivateBase,
            AddressSpace::kPrivateStride};
}

/** Deterministic 64-bit LCG (no std::rand state leaking across tests). */
struct Lcg
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 11;
    }
};

// --- spec parsing --------------------------------------------------------

TEST(PlacementSpec, ParsesEveryPolicy)
{
    auto il = PlacementSpec::parse("interleave");
    ASSERT_TRUE(il);
    EXPECT_EQ(il->kind, PlacementKind::Interleave);
    EXPECT_EQ(il->str(), "interleave");

    auto ft = PlacementSpec::parse("first-touch");
    ASSERT_TRUE(ft);
    EXPECT_EQ(ft->kind, PlacementKind::FirstTouch);

    auto ca = PlacementSpec::parse("class-affinity");
    ASSERT_TRUE(ca);
    EXPECT_EQ(ca->kind, PlacementKind::ClassAffinity);
    EXPECT_TRUE(ca->arg.empty());

    auto ca2 = PlacementSpec::parse("class-affinity:2");
    ASSERT_TRUE(ca2);
    EXPECT_EQ(ca2->arg, "2");
    EXPECT_EQ(ca2->str(), "class-affinity:2");

    auto pr = PlacementSpec::parse("profile:hist.json");
    ASSERT_TRUE(pr);
    EXPECT_EQ(pr->kind, PlacementKind::Profile);
    EXPECT_EQ(pr->arg, "hist.json");
}

TEST(PlacementSpec, RejectsMalformedValues)
{
    EXPECT_FALSE(PlacementSpec::parse("round-robin"));
    EXPECT_FALSE(PlacementSpec::parse(""));
    EXPECT_FALSE(PlacementSpec::parse("interleave:3"));
    EXPECT_FALSE(PlacementSpec::parse("first-touch:x"));
    EXPECT_FALSE(PlacementSpec::parse("class-affinity:banana"));
    EXPECT_FALSE(PlacementSpec::parse("class-affinity:99"));
    EXPECT_FALSE(PlacementSpec::parse("profile")); // path is mandatory
}

// --- interleave vs. the historical hardwired rule ------------------------

TEST(Placement, InterleaveMatchesLegacyRuleEverywhere)
{
    const sim::LatencyConfig lat;
    // A Directory with no policy attached falls back to the historical
    // hardwired formula — the exact code every access ran before the
    // placement layer existed.
    sim::Directory legacy(4, 64, 8192, AddressSpace::kPrivateBase,
                          AddressSpace::kPrivateStride, lat);
    ASSERT_EQ(legacy.placement(), nullptr);
    auto policy = PlacementPolicy::interleave(baselineGeometry());

    Lcg rng;
    for (int i = 0; i < 10000; ++i) {
        // Mix shared addresses (below kPrivateBase) with private ones,
        // including far past the last private node's stride.
        Addr a = rng.next() % (AddressSpace::kPrivateBase * 2);
        EXPECT_EQ(legacy.homeOf(a), policy->homeOf(a)) << "addr " << a;
    }
    // The boundaries the two code paths could disagree on.
    for (Addr a : {Addr{0}, Addr{8191}, Addr{8192},
                   AddressSpace::kPrivateBase - 1,
                   AddressSpace::kPrivateBase,
                   AddressSpace::kPrivateBase +
                       AddressSpace::kPrivateStride * 7})
        EXPECT_EQ(legacy.homeOf(a), policy->homeOf(a)) << "addr " << a;
}

TEST(Placement, InterleaveHandlesNonPowerOfTwoGeometry)
{
    // 3 nodes, 12 KB pages: both divisions take the slow (non-shift)
    // path; the policy must still match idx % nnodes.
    PlacementPolicy::Geometry g{3, 12 * 1024, AddressSpace::kPrivateBase,
                                AddressSpace::kPrivateStride};
    auto policy = PlacementPolicy::interleave(g);
    for (Addr a = 0; a < 30 * g.pageBytes; a += 1021)
        EXPECT_EQ(policy->homeOf(a),
                  static_cast<ProcId>((a / g.pageBytes) % g.nnodes));
}

// --- pinPage -------------------------------------------------------------

TEST(Placement, PinPageOverridesTheRule)
{
    auto policy = PlacementPolicy::interleave(baselineGeometry());
    const Addr page3 = 3 * 8192;
    ASSERT_EQ(policy->homeOf(page3), 3u);
    policy->pinPage(page3 + 100, 1);
    EXPECT_EQ(policy->homeOf(page3), 1u);
    EXPECT_EQ(policy->homeOf(page3 + 8191), 1u);
    // Neighbours keep the rule.
    EXPECT_EQ(policy->homeOf(page3 - 1), 2u);
    EXPECT_EQ(policy->homeOf(page3 + 8192), 0u);
}

TEST(Placement, PinPageIgnoresPrivateAndBogusTargets)
{
    auto policy = PlacementPolicy::interleave(baselineGeometry());
    policy->pinPage(AddressSpace::kPrivateBase + 64, 3); // private
    EXPECT_EQ(policy->claimedPages(), 0u);
    policy->pinPage(8192, 99); // home out of range
    EXPECT_EQ(policy->claimedPages(), 0u);
    EXPECT_EQ(policy->homeOf(8192), 1u);
}

// --- first-touch ---------------------------------------------------------

TEST(Placement, FirstTouchClaimsByTracePositionNotProcessorOrder)
{
    // Page P: proc 2 touches it at position 0, proc 0 only at position 1.
    // The claim must go to proc 2 — position-major order, not the
    // processor-id order a naive per-stream scan would produce.
    const Addr page = 5 * 8192;
    std::vector<sim::TraceStream> streams(4);
    streams[0].record(sim::TraceEntry::busy(1));
    streams[0].record(sim::TraceEntry::read(page, DataClass::Data, 8));
    streams[2].record(sim::TraceEntry::read(page + 64, DataClass::Data, 8));

    auto policy = PlacementPolicy::firstTouch(baselineGeometry());
    policy->beginRun(
        {&streams[0], &streams[1], &streams[2], &streams[3]});
    EXPECT_EQ(policy->homeOf(page), 2u);
    EXPECT_EQ(policy->claimedPages(), 1u);

    // Claims persist: a second run whose position 0 is proc 0 must not
    // steal the page (first touch *ever* wins, like a real OS).
    std::vector<sim::TraceStream> later(4);
    later[0].record(sim::TraceEntry::read(page, DataClass::Data, 8));
    policy->beginRun({&later[0], &later[1], &later[2], &later[3]});
    EXPECT_EQ(policy->homeOf(page), 2u);
}

TEST(Placement, FirstTouchIdenticalAcrossEnginesAndThreads)
{
    // Four processors with overlapping page footprints: proc p streams
    // over pages [p, p+4), so most pages have several claimants and the
    // resolution order matters.
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    std::vector<sim::TraceStream> streams(cfg.nprocs);
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        const Addr base = static_cast<Addr>(p) * 8192;
        for (Addr a = 0; a < 4 * 8192; a += 64) {
            streams[p].record(
                sim::TraceEntry::read(base + a, DataClass::Data, 8));
            streams[p].record(sim::TraceEntry::busy(2));
        }
    }
    std::vector<const sim::TraceStream *> ptrs;
    for (const sim::TraceStream &s : streams)
        ptrs.push_back(&s);

    struct Outcome
    {
        std::string statsJson;
        std::vector<ProcId> homes;
        std::size_t claimed;
    };
    auto runOnce = [&] {
        sim::Machine m(cfg);
        m.setPlacement(PlacementPolicy::firstTouch(m.placementGeometry()));
        sim::SimStats stats = m.run(ptrs);
        const PlacementPolicy &policy = m.placement();
        Outcome o;
        o.statsJson = obs::toJson(stats).dump();
        for (std::size_t i = 0; i < policy.coveredPages(); ++i)
            o.homes.push_back(policy.homeOf(static_cast<Addr>(i) * 8192));
        o.claimed = policy.claimedPages();
        return o;
    };

    // The claim resolution is a pure function of the traces, in
    // (position, processor) order: position 0 of procs 0..3 claims pages
    // 0..3, and proc 3 reaches each of pages 4..6 before anyone else.
    const Outcome first = runOnce();
    EXPECT_EQ(first.homes, (std::vector<ProcId>{0, 1, 2, 3, 3, 3, 3}));
    EXPECT_EQ(first.claimed, 7u);
    const Outcome rerun = runOnce();
    EXPECT_EQ(first.statsJson, rerun.statsJson);
    EXPECT_EQ(first.homes, rerun.homes);
    EXPECT_EQ(first.claimed, rerun.claimed);
}

TEST(Placement, FirstTouchIdenticalAcrossEnginesOnRealQuery)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    struct Outcome
    {
        std::string statsJson;
        std::vector<ProcId> homes;
    };
    auto runOnce = [&] {
        harness::RunOptions ro;
        ro.placementSpec = *PlacementSpec::parse("first-touch");
        sim::Machine m(cfg);
        harness::wireMachine(m, ro);
        sim::SimStats stats =
            harness::runOnMachine(m, harness::tracePtrs(traces), ro);
        const PlacementPolicy &policy = m.placement();
        Outcome o;
        o.statsJson = obs::toJson(stats).dump();
        for (std::size_t i = 0; i < policy.coveredPages(); ++i)
            o.homes.push_back(
                policy.homeOf(static_cast<Addr>(i) * cfg.pageBytes));
        return o;
    };

    // A rerun reproduces both the homes and every statistic.
    const Outcome first = runOnce();
    const Outcome rerun = runOnce();
    EXPECT_FALSE(first.homes.empty());
    EXPECT_EQ(first.homes, rerun.homes);
    EXPECT_EQ(first.statsJson, rerun.statsJson);
}

// --- class-affinity ------------------------------------------------------

TEST(Placement, ClassAffinityFollowsTheArenaClassMap)
{
    // A synthetic address space: page 0 metadata, pages 1-2 data, page 3
    // index — affinity must home the metadata page at the chosen node and
    // leave the rest on the interleave rule.
    AddressSpace space(4, 64 * 1024, 4 * 1024);
    const std::size_t page = 8192;
    sim::MemArena &shared = space.shared();
    shared.alloc(page, DataClass::BufDesc);
    shared.alloc(2 * page, DataClass::Data);
    shared.alloc(page, DataClass::Index);

    const Addr base = shared.base();
    PlacementPolicy::Geometry g = baselineGeometry();
    auto policy = PlacementPolicy::classAffinity(g, space, 2);
    EXPECT_EQ(policy->homeOf(base), 2u); // metadata page -> node 2
    const auto rr = [&](Addr a) {
        return static_cast<ProcId>((a / page) % 4);
    };
    EXPECT_EQ(policy->homeOf(base + page), rr(base + page));
    EXPECT_EQ(policy->homeOf(base + 2 * page), rr(base + 2 * page));
    EXPECT_EQ(policy->homeOf(base + 3 * page), rr(base + 3 * page));
    // Unmapped shared pages report MetaOther but carry no engine
    // metadata: they stay interleaved.
    const Addr unmapped = base + 64 * page;
    EXPECT_EQ(policy->homeOf(unmapped), rr(unmapped));
}

TEST(Placement, ClassAffinityRejectsOutOfRangeNode)
{
    AddressSpace space(4, 64 * 1024, 4 * 1024);
    EXPECT_THROW(
        PlacementPolicy::classAffinity(baselineGeometry(), space, 4),
        std::invalid_argument);
}

TEST(Placement, BufferManagerHintsCoverPagesAndFeedPinPage)
{
    // The db layer records one placement hint per 8 KB buffer block; a
    // harness can replay explicit homes through pinPage. Check the hints
    // of a real TPC-D database line up with pages and carry classes, and
    // that feeding a hint through pinPage overrides the policy.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    db::BufferManager &bm = wl.db().bufmgr();
    const auto &hints = bm.placementHints();
    ASSERT_EQ(hints.size(), bm.numBlocks());
    for (const db::BufferManager::PlacementHint &h : hints) {
        EXPECT_EQ(h.page % 8192, 0u) << "hint not page-aligned";
        EXPECT_EQ(h.home, db::BufferManager::kNoHomeHint);
    }

    bm.hintHome(hints.front().page, 3);
    EXPECT_EQ(bm.placementHints().front().home, 3u);
    EXPECT_THROW(bm.hintHome(0xdead0000, 1), std::runtime_error);

    auto policy = PlacementPolicy::interleave(baselineGeometry());
    for (const db::BufferManager::PlacementHint &h : bm.placementHints())
        if (h.home != db::BufferManager::kNoHomeHint)
            policy->pinPage(h.page, h.home);
    EXPECT_EQ(policy->homeOf(hints.front().page), 3u);
}

// --- profile -------------------------------------------------------------

TEST(Placement, ProfileHomesPagesAtTheirMajorityAccessor)
{
    std::vector<sim::PageAccessCounts> hist;
    hist.push_back({0 * 8192, {1, 9, 0, 0}});  // proc 1 dominates
    hist.push_back({2 * 8192, {5, 5, 0, 0}});  // tie -> lower proc id
    hist.push_back({7 * 8192, {0, 0, 0, 0}});  // never accessed -> rule

    auto policy = PlacementPolicy::profile(baselineGeometry(), hist);
    EXPECT_EQ(policy->homeOf(0), 1u);
    EXPECT_EQ(policy->homeOf(2 * 8192), 0u);
    EXPECT_EQ(policy->homeOf(7 * 8192), 3u);  // interleave fallback
    EXPECT_EQ(policy->homeOf(4 * 8192), 0u);  // unprofiled -> interleave
}

TEST(Placement, ProfileRoundTripsThroughPageProfileJson)
{
    // Histogram traces, serialize to the --page-profile wire format,
    // parse back, build the policy: the end-to-end --placement=profile
    // pipeline in miniature.
    std::vector<sim::TraceStream> streams(4);
    const Addr pageA = 3 * 8192, pageB = 6 * 8192;
    for (int i = 0; i < 10; ++i)
        streams[2].record(sim::TraceEntry::read(pageA, DataClass::Data, 8));
    streams[0].record(sim::TraceEntry::read(pageA, DataClass::Data, 8));
    for (int i = 0; i < 3; ++i)
        streams[1].record(
            sim::TraceEntry::write(pageB + 32, DataClass::Index, 8));
    // Private and Busy references must not be profiled.
    streams[0].record(sim::TraceEntry::read(
        AddressSpace::kPrivateBase + 8, DataClass::Priv, 8));
    streams[0].record(sim::TraceEntry::busy(5));

    obs::PageProfile prof(8192);
    prof.addTraces({&streams[0], &streams[1], &streams[2], &streams[3]});
    EXPECT_EQ(prof.pageCount(), 2u);

    const obs::Json doc = prof.toJson();
    // The wire format is byte-stable: same input, same bytes.
    EXPECT_EQ(doc.dump(), prof.toJson().dump());

    const std::vector<sim::PageAccessCounts> hist =
        obs::PageProfile::parse(doc, 8192);
    auto policy = PlacementPolicy::profile(baselineGeometry(), hist);
    EXPECT_EQ(policy->homeOf(pageA), 2u);
    EXPECT_EQ(policy->homeOf(pageB), 1u);

    EXPECT_THROW(obs::PageProfile::parse(doc, 4096), std::runtime_error);
}

// --- the default must not move: golden byte-identity ---------------------

TEST(Placement, ExplicitInterleaveReproducesTheGoldenFixtureByteForByte)
{
    // Run Q3 with an explicitly attached interleave policy and compare
    // against the same checked-in fixture the no-policy golden test pins:
    // the policy layer must be invisible when the default is selected.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q3);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    sim::Machine m(cfg);
    m.setPlacement(PlacementPolicy::interleave(baselineGeometry(cfg.nprocs)));
    sim::SimStats stats =
        harness::runOnMachine(m, harness::tracePtrs(traces), {});
    const std::string actual = obs::toJson(stats).dump(2) + "\n";

    std::ifstream is(std::string(DSS_GOLDEN_DIR) + "/q3_seq.json");
    ASSERT_TRUE(is) << "missing golden fixture q3_seq.json";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(want.str(), actual);
}

// --- hop counters --------------------------------------------------------

TEST(Placement, SingleNodeMachineHasOnlyLocalTransactions)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.nprocs = 1;
    sim::TraceStream stream;
    for (Addr a = 0; a < 64 * 1024; a += 64)
        stream.record(sim::TraceEntry::read(a, DataClass::Data, 8));
    sim::Machine m(cfg);
    sim::SimStats stats = m.run({&stream});
    const sim::ProcStats agg = stats.aggregate();
    EXPECT_GT(agg.hopsTotal(), 0u);
    EXPECT_EQ(agg.hopsOfClass(0), agg.hopsTotal());
}

TEST(Placement, RemoteHomesProduceRemoteHops)
{
    // One processor streaming cold reads on a 4-node machine: 3/4 of the
    // interleaved pages are remote, so 2-hop transactions must dominate
    // and nothing can be 3-hop (no dirty third parties).
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    sim::TraceStream stream;
    for (Addr a = 0; a < 256 * 1024; a += 64)
        stream.record(sim::TraceEntry::read(a, DataClass::Data, 8));
    sim::Machine m(cfg);
    sim::SimStats stats = m.run({&stream});
    const sim::ProcStats agg = stats.aggregate();
    EXPECT_GT(agg.hopsOfClass(1), agg.hopsOfClass(0));
    EXPECT_EQ(agg.hopsOfClass(2), 0u);
}

// --- per-run statistics reset (the Fig 12 repetition bug) ----------------

TEST(Placement, MachineResetStatsClearsHomeCounters)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    sim::TraceStream stream;
    for (Addr a = 0; a < 64 * 1024; a += 64)
        stream.record(sim::TraceEntry::read(a, DataClass::Data, 8));
    sim::Machine m(cfg);
    m.run({&stream});

    std::uint64_t total = 0;
    for (const sim::Directory::HomeCounters &h :
         m.directory().homeCounters())
        total += h.requests;
    ASSERT_GT(total, 0u);

    m.resetStats();
    for (const sim::Directory::HomeCounters &h :
         m.directory().homeCounters()) {
        EXPECT_EQ(h.requests, 0u);
        EXPECT_EQ(h.queueCycles, 0u);
    }
}

TEST(Placement, RunSequenceSnapshotsCountOnlyTheLastRepetition)
{
    // Regression: the directory's per-home contention counters used to
    // accumulate across runSequence repetitions, so the registry snapshot
    // after a warm chain reported the *sum* of all repetitions. With the
    // per-run reset, the snapshot after {Q6, Q6} reflects the warm second
    // run only — which issues no more requests than the cold single run.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    harness::TraceSet traces = wl.trace(tpcd::QueryId::Q6);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    auto dirRequests = [](const obs::Json &snap) {
        std::uint64_t total = 0;
        for (const auto &[key, value] : snap.members())
            if (key.rfind("dir.home", 0) == 0 &&
                key.find(".requests") != std::string::npos)
                total += value.asUint();
        return total;
    };

    obs::Json one, two;
    harness::RunOptions ro1;
    ro1.registrySnapshot = &one;
    harness::runSequence(cfg, {&traces}, ro1);

    harness::RunOptions ro2;
    ro2.registrySnapshot = &two;
    harness::runSequence(cfg, {&traces, &traces}, ro2);

    const std::uint64_t cold = dirRequests(one);
    ASSERT_GT(cold, 0u);
    // Accumulation across repetitions would make this ~2x the cold run.
    EXPECT_LE(dirRequests(two), cold);
}

// --- the placement recipe (the harness glue) ----------------------------

TEST(Placement, MakePlacementBuildsEachPolicyAndValidatesInputs)
{
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();

    harness::RunOptions ro;
    sim::Machine def(cfg);
    harness::wireMachine(def, ro);
    EXPECT_EQ(def.placement().kind(), PlacementKind::Interleave);

    ro.placementSpec = *PlacementSpec::parse("class-affinity:1");
    ro.placementSpace = &wl.db().space();
    sim::Machine ca(cfg);
    harness::wireMachine(ca, ro);
    EXPECT_EQ(ca.placement().kind(), PlacementKind::ClassAffinity);
    EXPECT_GT(ca.placement().coveredPages(), 0u);

    // No silent fallback: class-affinity without a database is an error.
    ro.placementSpace = nullptr;
    sim::Machine orphan(cfg);
    EXPECT_THROW(harness::wireMachine(orphan, ro), std::runtime_error);

    // The session reads the profile: histogram once, up front.
    harness::BenchOptions opts;
    opts.placement = *PlacementSpec::parse("profile:/nonexistent.json");
    EXPECT_THROW(harness::ObsSession("test", opts, cfg), std::runtime_error);
}

TEST(Placement, WiredPolicyMatchesEachMachineGeometry)
{
    AddressSpace space(8, 64 * 1024, 4 * 1024);
    space.shared().alloc(8192, DataClass::BufDesc);
    const std::vector<sim::PageAccessCounts> hist{{0, {0, 3}}};
    for (const char *text : {"interleave", "first-touch", "class-affinity",
                             "profile:unused.json"}) {
        harness::RunOptions ro;
        ro.placementSpec = *PlacementSpec::parse(text);
        ro.placementSpace = &space;
        ro.placementHistogram = &hist;
        for (unsigned nprocs : {1u, 2u, 8u}) {
            SCOPED_TRACE(std::string(text) + " nprocs " +
                         std::to_string(nprocs));
            sim::MachineConfig cfg = sim::MachineConfig::baseline();
            cfg.nprocs = nprocs;
            sim::Machine m(cfg);
            harness::wireMachine(m, ro);
            EXPECT_EQ(m.placement().kind(), ro.placementSpec.kind);
            EXPECT_EQ(m.placement().geometry(), m.placementGeometry());
            EXPECT_EQ(m.placement().geometry().nnodes, nprocs);
            EXPECT_EQ(m.placement().geometry().pageBytes, cfg.pageBytes);
        }
    }

    // A policy of another geometry is refused, not silently adopted.
    sim::Machine m(sim::MachineConfig::baseline());
    EXPECT_THROW(m.setPlacement(PlacementPolicy::interleave(
                     baselineGeometry(2))),
                 std::invalid_argument);
    EXPECT_THROW(m.setPlacement(nullptr), std::invalid_argument);
}

TEST(Placement, FirstTouchColdRunsShareNoClaims)
{
    // Two cold runs from one session's runOptions() run on two machines,
    // each with its own first-touch policy: Q3's claims must not leak
    // into the Q6 run that follows it.
    harness::Workload wl(tpcd::ScaleConfig::tiny(), 4);
    const harness::TraceSet q3 = wl.trace(tpcd::QueryId::Q3);
    const harness::TraceSet q6 = wl.trace(tpcd::QueryId::Q6);
    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::BenchOptions opts;
    opts.placement = *PlacementSpec::parse("first-touch");

    harness::ObsSession session("test", opts, cfg);
    session.setDatabase(wl.db().space());
    harness::runCold(cfg, q3, session.runOptions());
    const sim::SimStats after_q3 =
        harness::runCold(cfg, q6, session.runOptions());

    harness::ObsSession lone_session("test", opts, cfg);
    const sim::SimStats lone =
        harness::runCold(cfg, q6, lone_session.runOptions());
    EXPECT_EQ(obs::toJson(after_q3).dump(), obs::toJson(lone).dump());
}

TEST(Placement, FirstTouchClaimsPersistAcrossARunSequence)
{
    // Run 1: processor 1 alone touches page 4 (interleave home: node 0)
    // and claims it. Run 2: processor 0 reads that page. On the chain's
    // one machine the claim holds, so the read is remote; a cold run of
    // run 2 alone claims the page for processor 0, so its read is local.
    const Addr page = 4 * 8192;
    harness::TraceSet claim(2), read(1);
    claim[0].record(sim::TraceEntry::busy(1));
    claim[1].record(sim::TraceEntry::read(page, DataClass::Data, 8));
    read[0].record(sim::TraceEntry::read(page + 64, DataClass::Data, 8));

    const sim::MachineConfig cfg = sim::MachineConfig::baseline();
    harness::RunOptions ro;
    ro.placementSpec = *PlacementSpec::parse("first-touch");
    const std::vector<sim::SimStats> chain =
        harness::runSequence(cfg, {&claim, &read}, ro);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[1].procs[0].hopsOfClass(0), 0u);
    EXPECT_EQ(chain[1].procs[0].hopsOfClass(1), 1u);

    const sim::SimStats cold = harness::runCold(cfg, read, ro);
    EXPECT_EQ(cold.procs[0].hopsOfClass(0), 1u);
    EXPECT_EQ(cold.procs[0].hopsOfClass(1), 0u);
}

} // namespace
