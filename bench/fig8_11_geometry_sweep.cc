/**
 * @file
 * Figures 8-11: the cache-geometry sweeps of paper Sections 4.3-4.4.
 *
 * - Line-size sweep, 16..256 B L2 lines (the L1 line is always half the
 *   L2 line; rows are labeled by the L2 line), baseline 64 B = 100.
 *   Figure 8 gives misses per structure group (Priv, Data, Index,
 *   Metadata) in the primary and the secondary cache; Figure 9 gives
 *   execution time as Busy / PMem (stall on private data) / SMem (stall
 *   on shared data) / MSync.
 * - Cache-size sweep, 4 KB L1 / 128 KB L2 (baseline = 100) up to
 *   256 KB / 8 MB, lines fixed at 32 B / 64 B. Figure 10 gives misses
 *   per group, Figure 11 execution time, as above.
 *
 * Each query's traces are captured once and run on every point of both
 * sweeps; the four figures are printed from the per-point aggregates.
 * The paper's reference shapes, next to the measured values, are in
 * EXPERIMENTS.md.
 */

#include <exception>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/error.hh"

using namespace dss;

namespace {

constexpr tpcd::QueryId kQueries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                      tpcd::QueryId::Q12};
constexpr std::size_t kNumQueries = std::size(kQueries);

std::string
sizeName(std::size_t bytes)
{
    if (bytes >= (1u << 20))
        return std::to_string(bytes >> 20) + "M";
    return std::to_string(bytes >> 10) + "K";
}

/** One sweep: its points and, per query, every point's aggregate. */
struct Axis
{
    const char *column = nullptr; ///< first table column
    const char *key = nullptr;    ///< JSON run-label key
    std::vector<std::string> labels;
    std::vector<sim::MachineConfig> configs;
    std::size_t base = 0; ///< the point normalized to 100
    std::vector<sim::ProcStats> results[kNumQueries];
};

/** Figs 8 and 10: misses by structure group, per cache level. */
void
printGroupMisses(const Axis &axis)
{
    if (axis.configs.empty())
        return;
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
        const std::vector<sim::ProcStats> &points = axis.results[qi];
        for (bool l1 : {true, false}) {
            auto misses = [&](std::size_t i) -> const sim::MissTable & {
                return l1 ? points[i].l1Misses() : points[i].l2Misses();
            };
            const double base = std::max<double>(
                1.0, static_cast<double>(misses(axis.base).total()));
            auto n = [&](std::uint64_t count) {
                return harness::fixed(
                    100.0 * static_cast<double>(count) / base, 1);
            };
            harness::TextTable tab({axis.column, "Priv", "Data", "Index",
                                    "Metadata", "Total"});
            for (std::size_t i = 0; i < points.size(); ++i) {
                const sim::MissTable &m = misses(i);
                tab.addRow({axis.labels[i],
                            n(m.byGroup(sim::ClassGroup::Priv)),
                            n(m.byGroup(sim::ClassGroup::Data)),
                            n(m.byGroup(sim::ClassGroup::Index)),
                            n(m.byGroup(sim::ClassGroup::Metadata)),
                            n(m.total())});
            }
            std::cout << tpcd::queryName(kQueries[qi]) << ": "
                      << (l1 ? "primary" : "secondary")
                      << " cache misses\n";
            tab.print(std::cout);
            std::cout << '\n';
        }
    }
}

/** Figs 9 and 11: execution time as Busy / PMem / SMem / MSync. */
void
printTimeBreakdown(const Axis &axis)
{
    if (axis.configs.empty())
        return;
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
        const std::vector<sim::ProcStats> &points = axis.results[qi];
        const double base =
            static_cast<double>(points[axis.base].totalCycles());
        auto n = [&](sim::Cycles c) {
            return harness::fixed(100.0 * static_cast<double>(c) / base, 1);
        };
        harness::TextTable tab(
            {axis.column, "Busy", "PMem", "SMem", "MSync", "Total"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const sim::ProcStats &agg = points[i];
            tab.addRow({axis.labels[i], n(agg.busy), n(agg.pmem()),
                        n(agg.smem()), n(agg.syncStall),
                        n(agg.totalCycles())});
        }
        std::cout << tpcd::queryName(kQueries[qi]) << '\n';
        tab.print(std::cout);
        std::cout << '\n';
    }
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::ObsSession &session = ctx.session;
    const sim::MachineConfig &cfg = ctx.config();
    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    session.usePlacement(
        harness::makePlacement(ctx.opts, cfg, &wl.db().space()));
    session.wireMemprof(cfg, &wl.db().catalog());

    Axis line;
    line.column = "L2 line";
    line.key = "line";
    for (std::size_t bytes : {16, 32, 64, 128, 256}) {
        if (bytes == 64)
            line.base = line.labels.size();
        line.labels.push_back(std::to_string(bytes) + "B");
        line.configs.push_back(cfg.withLineSize(bytes));
    }
    // A machine may reject the cache-size points (on `modern` the sized
    // coherent level would be smaller than its L2). The line-size
    // figures still print, and the rejection exits 3 after the Fig 10
    // and Fig 11 headers, as it did when each figure had its own binary.
    Axis size;
    size.column = size.key = "caches";
    std::exception_ptr size_rejected;
    try {
        for (std::size_t l1 : {4 << 10, 16 << 10, 64 << 10, 256 << 10}) {
            const std::size_t l2 = 32 * l1; // 128K .. 8M
            size.labels.push_back(sizeName(l1) + "/" + sizeName(l2));
            size.configs.push_back(cfg.withCacheSizes(l1, l2));
        }
    } catch (const sim::SimError &) {
        size_rejected = std::current_exception();
        size.configs.clear();
    }

    // Only the per-point aggregates outlive a query's traces.
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
        const harness::TraceSet traces = wl.trace(kQueries[qi]);
        for (Axis *axis : {&line, &size}) {
            for (std::size_t i = 0; i < axis->configs.size(); ++i) {
                sim::SimStats stats = harness::runCold(
                    axis->configs[i], traces, session.runOptions());
                session.addRun(tpcd::queryName(kQueries[qi]) + "/" +
                                   axis->key + "=" + axis->labels[i],
                               stats);
                axis->results[qi].push_back(stats.aggregate());
            }
        }
    }

    std::cout << "=== Figure 8: misses vs. cache line size (normalized to "
                 "the 64 B-L2-line baseline = 100) ===\n\n";
    printGroupMisses(line);
    std::cout << "=== Figure 9: execution time vs. cache line size "
                 "(baseline 64 B = 100) ===\n\n";
    printTimeBreakdown(line);
    std::cout << "=== Figure 10: misses vs. cache size (baseline "
                 "4K/128K = 100) ===\n\n";
    printGroupMisses(size);
    std::cout << "=== Figure 11: execution time vs. cache size (baseline "
                 "4K/128K = 100) ===\n\n";
    printTimeBreakdown(size);
    const bool ok = session.finish(cfg, std::cerr);
    if (size_rejected)
        std::rethrow_exception(size_rejected);
    return ok ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig8_11_geometry_sweep", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
