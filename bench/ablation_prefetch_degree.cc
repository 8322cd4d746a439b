/**
 * @file
 * Ablation: prefetch degree. The paper fixes the prefetcher at 4 lines
 * (Section 6); this sweep shows why that is a reasonable choice: degree 4
 * is where the Sequential-query gains saturate for 128-byte tuples on
 * 32-byte L1 lines, while the Index query only accumulates pollution.
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
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Ablation: sequential prefetch degree (exec time, "
                 "Base=100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    session.setDatabase(wl.db().space());
    session.wireMemprof(ctx.config(),
                        &wl.db().catalog());

    harness::TextTable tab(
        {"query", "degree 0", "1", "2", "4", "8", "16"});
    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);
        double base = 0;
        std::vector<std::string> row{tpcd::queryName(q)};
        for (unsigned degree : {0u, 1u, 2u, 4u, 8u, 16u}) {
            sim::MachineConfig cfg = ctx.config();
            cfg.prefetchData = degree > 0;
            cfg.prefetchDegree = degree;
            sim::SimStats stats =
                harness::runCold(cfg, traces, session.runOptions());
            session.addRun(tpcd::queryName(q) + "/degree=" +
                               std::to_string(degree),
                           stats);
            sim::ProcStats agg = stats.aggregate();
            if (degree == 0)
                base = static_cast<double>(agg.totalCycles());
            row.push_back(harness::fixed(
                100.0 * static_cast<double>(agg.totalCycles()) / base));
        }
        tab.addRow(std::move(row));
    }
    tab.print(std::cout);
    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ablation_prefetch_degree", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
