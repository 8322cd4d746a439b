/**
 * @file
 * Figure 8: number of misses on each data-structure group (Priv, Data,
 * Index, Metadata) for several cache line sizes, in the primary and the
 * secondary cache, normalized to 100 for the baseline (32 B L1 / 64 B L2
 * lines). The L1 line is always half the L2 line (paper Section 4.3);
 * configurations are labeled by the L2 line size.
 *
 * Paper reference shapes: Data (and Index) misses fall sharply with line
 * size — good spatial locality; Priv misses in the L1 grow past 32 B
 * lines; Metadata bottoms out around 64 B and then grows.
 */

#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

namespace {

constexpr std::size_t kLineSizes[] = {16, 32, 64, 128, 256};
constexpr std::size_t kBaselineLine = 64;

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Figure 8: misses vs. cache line size (normalized to "
                 "the 64 B-L2-line baseline = 100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    session.usePlacement(harness::makePlacement(
        opts, ctx.config(), &wl.db().space()));
    session.wireMemprof(ctx.config(),
                        &wl.db().catalog());

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);

        // Gather miss counts by group for every line size.
        struct Row
        {
            std::size_t line;
            std::uint64_t l1[sim::kNumClassGroups];
            std::uint64_t l2[sim::kNumClassGroups];
        };
        std::vector<Row> rows;
        std::uint64_t base_l1 = 1, base_l2 = 1;
        for (std::size_t line : kLineSizes) {
            sim::MachineConfig cfg =
                ctx.config().withLineSize(line);
            sim::SimStats stats =
                harness::runCold(cfg, traces, session.runOptions());
            sim::ProcStats agg = stats.aggregate();
            Row r{line, {}, {}};
            for (std::size_t g = 0; g < sim::kNumClassGroups; ++g) {
                r.l1[g] = agg.l1Misses().byGroup(
                    static_cast<sim::ClassGroup>(g));
                r.l2[g] = agg.l2Misses().byGroup(
                    static_cast<sim::ClassGroup>(g));
            }
            if (line == kBaselineLine) {
                base_l1 = std::max<std::uint64_t>(1, agg.l1Misses().total());
                base_l2 = std::max<std::uint64_t>(1, agg.l2Misses().total());
            }
            rows.push_back(r);
        }

        auto print_level = [&](const char *name, bool l1,
                               std::uint64_t base) {
            harness::TextTable tab({"L2 line", "Priv", "Data", "Index",
                                    "Metadata", "Total"});
            for (const Row &r : rows) {
                const std::uint64_t *g = l1 ? r.l1 : r.l2;
                std::uint64_t tot = 0;
                for (std::size_t i = 0; i < sim::kNumClassGroups; ++i)
                    tot += g[i];
                auto n = [&](sim::ClassGroup gg) {
                    return harness::fixed(
                        100.0 *
                            static_cast<double>(
                                g[static_cast<std::size_t>(gg)]) /
                            static_cast<double>(base),
                        1);
                };
                tab.addRow({std::to_string(r.line) + "B",
                            n(sim::ClassGroup::Priv),
                            n(sim::ClassGroup::Data),
                            n(sim::ClassGroup::Index),
                            n(sim::ClassGroup::Metadata),
                            harness::fixed(100.0 *
                                               static_cast<double>(tot) /
                                               static_cast<double>(base),
                                           1)});
            }
            std::cout << tpcd::queryName(q) << ": " << name << " misses\n";
            tab.print(std::cout);
            std::cout << '\n';
        };
        print_level("primary cache", true, base_l1);
        print_level("secondary cache", false, base_l2);
    }
    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig8_line_size_misses", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
