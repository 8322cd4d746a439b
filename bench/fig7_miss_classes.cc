/**
 * @file
 * Figure 7: read misses in the primary and secondary caches classified by
 * the data structure missed on (Priv, Data, Index, BufDesc, BufLook,
 * LockHash, XidHash, LockSLock) and by miss type (Cold, Conf, Cohe), for
 * Q3, Q6 and Q12 on the baseline machine. Also prints the absolute miss
 * rates quoted in Section 5.1 (L1 ~3-6%, L2 global ~0.5-0.8%).
 *
 * Paper reference shapes: L1 misses dominated by Priv/Conf everywhere;
 * L2: Q3 mixes metadata (Cohe, LockSLock prominent) + Index + Data, while
 * Q6/Q12 are overwhelmingly Data/Cold.
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

    std::cout << "=== Figure 7: miss classification by data structure "
                 "(baseline machine) ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.setDatabase(wl.db().space());
    session.wireMemprof(cfg, &wl.db().catalog());

    harness::TextTable rates(
        {"query", "L1 miss rate %", "L2 global miss rate %"});

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);
        sim::SimStats stats =
            harness::runCold(cfg, traces, session.runOptions());
        session.addRun(tpcd::queryName(q), stats);
        sim::ProcStats agg = stats.aggregate();

        harness::printMissTable(
            std::cout, tpcd::queryName(q) + ": primary cache read misses",
            agg.l1Misses());
        std::cout << '\n';
        harness::printMissTable(
            std::cout,
            tpcd::queryName(q) + ": secondary cache read misses",
            agg.l2Misses());
        std::cout << '\n';

        rates.addRow({tpcd::queryName(q),
                      harness::fixed(100 * agg.l1MissRate(), 2),
                      harness::fixed(100 * agg.l2GlobalMissRate(), 2)});
    }

    std::cout << "Section 5.1 absolute miss rates "
                 "(paper: L1 5.5/3.4/4.8%, L2 0.8/0.6/0.5%)\n";
    rates.print(std::cout);
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig7_miss_classes", argc, argv,
                                 harness::BenchOptions::kAll, run);
}
