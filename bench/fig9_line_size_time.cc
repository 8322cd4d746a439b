/**
 * @file
 * Figure 9: execution time for different cache line sizes, broken into
 * Busy / PMem (stall on private data) / SMem (stall on shared data) /
 * MSync, normalized to the baseline (64 B L2 lines) = 100.
 *
 * Paper reference shapes: SMem falls as lines grow (spatial locality of
 * database data and indices); PMem grows past 16-32 B; the total is
 * minimized at 64 B secondary-cache lines for all three queries.
 */

#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Figure 9: execution time vs. cache line size "
                 "(baseline 64 B = 100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    session.usePlacement(harness::makePlacement(
        opts, ctx.config(), &wl.db().space()));
    session.wireMemprof(ctx.config(),
                        &wl.db().catalog());
    constexpr std::size_t kLineSizes[] = {16, 32, 64, 128, 256};

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);

        // Pass 1: simulate every configuration.
        std::vector<sim::ProcStats> results;
        for (std::size_t line : kLineSizes) {
            sim::MachineConfig cfg =
                ctx.config().withLineSize(line);
            results.push_back(
                harness::runCold(cfg, traces, session.runOptions())
                    .aggregate());
        }

        // Pass 2: normalize to the 64 B baseline and print.
        double base_total = 1;
        for (std::size_t i = 0; i < std::size(kLineSizes); ++i) {
            if (kLineSizes[i] == 64)
                base_total =
                    static_cast<double>(results[i].totalCycles());
        }
        harness::TextTable tab(
            {"L2 line", "Busy", "PMem", "SMem", "MSync", "Total"});
        for (std::size_t i = 0; i < std::size(kLineSizes); ++i) {
            const sim::ProcStats &agg = results[i];
            auto n = [&](sim::Cycles c) {
                return harness::fixed(
                    100.0 * static_cast<double>(c) / base_total, 1);
            };
            tab.addRow({std::to_string(kLineSizes[i]) + "B", n(agg.busy),
                        n(agg.pmem()), n(agg.smem()), n(agg.syncStall),
                        n(agg.totalCycles())});
        }
        std::cout << tpcd::queryName(q) << '\n';
        tab.print(std::cout);
        std::cout << '\n';
    }
    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig9_line_size_time", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
