/**
 * @file
 * Figure 6: (a) normalized execution-time breakdown (Busy / Mem / MSync)
 * and (b) memory-stall decomposition by data-structure group (Data / Index
 * / Metadata / Priv) for Q3, Q6 and Q12 on the baseline machine.
 *
 * Paper reference shapes: Busy 50-70%, Mem 30-35%; Q3's shared stall is
 * dominated by Index + Metadata, Q6/Q12's by Data; Priv is roughly even
 * across queries.
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

    std::cout << "=== Figure 6: execution time and memory-stall breakdown "
                 "(baseline machine) ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.setDatabase(wl.db().space());
    session.wireMemprof(cfg, &wl.db().catalog());

    const tpcd::QueryId queries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                     tpcd::QueryId::Q12};

    harness::TextTable fig6a(
        {"query", "cycles", "Busy%", "Mem%", "MSync%"});
    harness::TextTable fig6b(
        {"query", "Data%", "Index%", "Metadata%", "Priv%"});

    for (tpcd::QueryId q : queries) {
        harness::TraceSet traces = wl.trace(q);
        sim::SimStats stats =
            harness::runCold(cfg, traces, session.runOptions());
        session.addRun(tpcd::queryName(q), stats);

        harness::TimeBreakdown tb = harness::timeBreakdown(stats);
        fig6a.addRow({tpcd::queryName(q), std::to_string(tb.total),
                      harness::fixed(100 * tb.busy),
                      harness::fixed(100 * tb.mem),
                      harness::fixed(100 * tb.msync)});

        harness::MemBreakdown mb = harness::memBreakdown(stats);
        auto g = [&](sim::ClassGroup gg) {
            return harness::fixed(
                100 * mb.byGroup[static_cast<std::size_t>(gg)]);
        };
        fig6b.addRow({tpcd::queryName(q), g(sim::ClassGroup::Data),
                      g(sim::ClassGroup::Index),
                      g(sim::ClassGroup::Metadata),
                      g(sim::ClassGroup::Priv)});
    }

    std::cout << "Figure 6(a): execution time breakdown\n";
    fig6a.print(std::cout);
    std::cout << "\nFigure 6(b): memory stall time by structure\n";
    fig6b.print(std::cout);
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig6_time_breakdown", argc, argv,
                                 harness::BenchOptions::kAll, run);
}
