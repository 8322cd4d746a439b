/**
 * @file
 * Component microbenchmarks for the memory-hierarchy simulator
 * (google-benchmark): cache lookup/fill throughput, directory transaction
 * throughput, write-buffer operations and whole-machine trace replay
 * speed. These measure the *simulator's* host performance, not simulated
 * time.
 */

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness/guard.hh"

#include "obs/memprof.hh"
#include "sim/arena.hh"
#include "sim/cache.hh"
#include "sim/directory.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"
#include "sim/spec.hh"
#include "sim/write_buffer.hh"

using namespace dss::sim;

namespace {

void
BM_CacheHit(benchmark::State &state)
{
    Cache c({128 * 1024, 64, 2});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        c.fill(a);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a));
        a = (a + 64) & (64 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheHit)->UseRealTime();

void
BM_CacheMissFill(benchmark::State &state)
{
    Cache c({4 * 1024, 32, 1});
    Addr a = 0;
    for (auto _ : state) {
        if (!c.access(a)) {
            benchmark::DoNotOptimize(c.classifyMiss(a));
            c.fill(a);
        }
        a += 32; // stream: always misses
    }
}
BENCHMARK(BM_CacheMissFill)->UseRealTime();

void
BM_DirectoryTransaction(benchmark::State &state)
{
    LatencyConfig lat;
    Directory dir(4, 64, 8192, AddressSpace::kPrivateBase,
                  AddressSpace::kPrivateStride, lat);
    Addr a = 0x1000'0000;
    for (auto _ : state) {
        Directory::Entry &e = dir.entry(a);
        e.state = Directory::State::Shared;
        ProcId home = dir.homeOf(a);
        benchmark::DoNotOptimize(
            dir.transactionLatency(0, home, 0, false));
        a += 64;
    }
}
BENCHMARK(BM_DirectoryTransaction)->UseRealTime();

/** The historical hardwired home rule: per-access div/mod chain. */
void
BM_HomeOfLegacy(benchmark::State &state)
{
    LatencyConfig lat;
    Directory dir(4, 64, 8192, AddressSpace::kPrivateBase,
                  AddressSpace::kPrivateStride, lat);
    // No policy attached: Directory::homeOf falls back to the legacy
    // formula, exactly what every access paid before the placement layer.
    Addr a = 0x1000'0000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dir.homeOf(a));
        a = 0x1000'0000 + ((a + 64) & (64 * 1024 * 1024 - 1));
    }
}
BENCHMARK(BM_HomeOfLegacy)->UseRealTime();

/** The placement layer's flat page->home table (the new hot path). */
void
BM_HomeOfTable(benchmark::State &state)
{
    LatencyConfig lat;
    Directory dir(4, 64, 8192, AddressSpace::kPrivateBase,
                  AddressSpace::kPrivateStride, lat);
    auto policy = PlacementPolicy::interleave(
        {4, 8192, AddressSpace::kPrivateBase, AddressSpace::kPrivateStride});
    // Cover the whole touched range so every lookup hits the table.
    policy->pinPage(0x1000'0000 + (64 * 1024 * 1024 - 1), 0);
    dir.setPlacement(policy.get());
    Addr a = 0x1000'0000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dir.homeOf(a));
        a = 0x1000'0000 + ((a + 64) & (64 * 1024 * 1024 - 1));
    }
}
BENCHMARK(BM_HomeOfTable)->UseRealTime();

void
BM_WriteBufferPush(benchmark::State &state)
{
    WriteBuffer wb(16);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(wb.push(now, 16, now & ~63ull));
        now += 20; // drains keep up: no overflow path
    }
}
BENCHMARK(BM_WriteBufferPush)->UseRealTime();

/** Whole-machine replay throughput on a synthetic streaming trace. */
void
BM_MachineReplay(benchmark::State &state)
{
    TraceStream stream;
    for (Addr a = 0; a < 1 << 20; a += 8) {
        stream.record(TraceEntry::read(0x1000'0000 + a, DataClass::Data, 8));
        stream.record(TraceEntry::busy(3));
    }
    for (auto _ : state) {
        Machine m(MachineConfig::baseline());
        SimStats s = m.run({&stream});
        benchmark::DoNotOptimize(s.procs[0].reads);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MachineReplay)->UseRealTime();

/**
 * The same streaming replay on the three-level `modern` preset: what the
 * generalized level-chain walk costs when a chain actually has an
 * intermediate level. Compare against BM_MachineReplay (two levels) to
 * see the indirection's price; the two-level case itself must stay
 * within 5% of the pre-refactor fixed-L1/L2 machine.
 */
void
BM_HierarchyReplay(benchmark::State &state)
{
    TraceStream stream;
    for (Addr a = 0; a < 1 << 20; a += 8) {
        stream.record(TraceEntry::read(0x1000'0000 + a, DataClass::Data, 8));
        stream.record(TraceEntry::busy(3));
    }
    const MachineConfig cfg = machinePreset("modern").config;
    for (auto _ : state) {
        Machine m(cfg);
        SimStats s = m.run({&stream});
        benchmark::DoNotOptimize(s.procs[0].reads);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_HierarchyReplay)->UseRealTime();

/**
 * Four processors streaming over disjoint shared-space regions: the
 * interleaving cost of replay without coherence traffic.
 */
void
BM_MachineReplay4(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::baseline();
    std::vector<TraceStream> streams(cfg.nprocs);
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        const Addr base = 0x1000'0000 + static_cast<Addr>(p) * (4u << 20);
        for (Addr a = 0; a < 1 << 20; a += 8) {
            streams[p].record(
                TraceEntry::read(base + a, DataClass::Data, 8));
            streams[p].record(TraceEntry::busy(3));
        }
    }
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &s : streams)
        ptrs.push_back(&s);
    std::uint64_t entries = 0;
    for (auto _ : state) {
        Machine m(cfg);
        SimStats s = m.run(ptrs);
        benchmark::DoNotOptimize(s.procs[0].reads);
        entries += streams[0].size() * cfg.nprocs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_MachineReplay4)->UseRealTime();

/**
 * Cost of the --memprof machinery on the machine replay path. Four
 * processors mix reads and stores over an overlapping shared region, so
 * the word-granular sharing tracker (when enabled) exercises both its
 * store-recording and its miss-classification paths. "off" is the
 * default configuration every non-profiled run uses and must stay within
 * noise of the pre-memprof replay; "on" prices the tracker itself;
 * "profile" adds the profiler's own trace replay on top.
 */
void
BM_MemprofOverhead(benchmark::State &state, int mode)
{
    MachineConfig cfg = MachineConfig::baseline();
    std::vector<TraceStream> streams(cfg.nprocs);
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        for (Addr a = 0; a < 1 << 18; a += 8) {
            // Overlapping lines across processors: every fourth access
            // is a store, so lines ping-pong and coherence misses (the
            // tracker's slow path) actually occur.
            const Addr addr = 0x1000'0000 + a;
            if (((a >> 3) & 3) == p % 4)
                streams[p].record(
                    TraceEntry::write(addr, DataClass::Data, 8));
            else
                streams[p].record(
                    TraceEntry::read(addr, DataClass::Data, 8));
            streams[p].record(TraceEntry::busy(3));
        }
    }
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &s : streams)
        ptrs.push_back(&s);
    for (auto _ : state) {
        Machine m(cfg);
        m.enableSharing(mode >= 1);
        SimStats s = m.run(ptrs);
        benchmark::DoNotOptimize(s.procs[0].l2CoheTrue);
        if (mode >= 2) {
            dss::obs::MemProfile prof({cfg.coherent(), cfg.nprocs, cfg.pageBytes});
            prof.addTraces(ptrs);
            benchmark::DoNotOptimize(prof.lines().size());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(streams[0].size() * cfg.nprocs));
}
BENCHMARK_CAPTURE(BM_MemprofOverhead, off, 0)->UseRealTime();
BENCHMARK_CAPTURE(BM_MemprofOverhead, on, 1)->UseRealTime();
BENCHMARK_CAPTURE(BM_MemprofOverhead, profile, 2)->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    return dss::harness::guardedMain(
        "microbench_sim", argc, argv, [](int c, char **v) -> int {
            benchmark::Initialize(&c, v);
            if (benchmark::ReportUnrecognizedArguments(c, v))
                return 1;
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
            return 0;
        });
}
