/**
 * @file
 * Ablation: where does the Index query's metalock traffic come from?
 *
 * DESIGN.md attributes Q3's LockSLock / LockHash / XidHash coherence
 * misses and its MSync time to Postgres95's per-rescan lock-manager
 * activity (every inner index rescan re-initializes the scan descriptor
 * through LockMgrLock). This bench re-runs Q3 and Q12 with that
 * discipline disabled (locks held across rescans) and shows how much of
 * the paper-observed metadata behaviour that single discipline produces.
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
    std::cout << "=== Ablation: per-rescan lock-manager discipline ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.setDatabase(wl.db().space());
    session.wireMemprof(cfg, &wl.db().catalog());

    harness::TextTable tab({"query", "relock", "exec cycles", "MSync%",
                            "L2 LockSLock", "L2 LockHash", "L2 XidHash"});
    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q12}) {
        for (bool relock : {true, false}) {
            harness::TraceSet traces =
                wl.traceWithLockDiscipline(q, 1, relock);
            sim::SimStats stats =
                harness::runCold(cfg, traces, session.runOptions());
            session.addRun(tpcd::queryName(q) +
                               (relock ? "/relock=on" : "/relock=off"),
                           stats);
            sim::ProcStats agg = stats.aggregate();
            tab.addRow(
                {tpcd::queryName(q), relock ? "on (paper)" : "off",
                 std::to_string(agg.totalCycles()),
                 harness::fixed(100.0 *
                                static_cast<double>(agg.syncStall) /
                                static_cast<double>(agg.totalCycles())),
                 std::to_string(
                     agg.l2Misses().byClass(sim::DataClass::LockSLock)),
                 std::to_string(
                     agg.l2Misses().byClass(sim::DataClass::LockHash)),
                 std::to_string(
                     agg.l2Misses().byClass(sim::DataClass::XidHash))});
        }
    }
    tab.print(std::cout);

    std::cout << "\nReading: with the discipline off, Q3's LockHash and "
                 "XidHash misses all\nbut vanish — the lock-manager hash "
                 "traffic of Figure 7 is exactly the\nper-rescan "
                 "activity. The LockSLock class only shrinks partially "
                 "because it\nalso contains BufMgrLock, which every page "
                 "pin still takes.\n";
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ablation_lock_discipline", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
