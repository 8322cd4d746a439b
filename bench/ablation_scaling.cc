/**
 * @file
 * Ablation: processor-count scaling of the inter-query workload.
 *
 * The paper fixes the machine at 4 processors. This sweep runs 1/2/4/8
 * query instances on 1/2/4/8 nodes and shows how the sharing-driven
 * costs grow: coherence misses on metadata (lock words, descriptors) and
 * MSync both rise with the processor count, while private and database
 * data behaviour stays per-processor-constant — the scalability story
 * behind the paper's Sequent STiNG motivation.
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
    std::cout << "=== Ablation: inter-query workload vs. processor count "
                 "===\n\n";

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6}) {
        harness::TextTable tab({"procs", "exec cycles", "MSync%",
                                "L2 Cohe misses/proc",
                                "L2 Data misses/proc"});
        for (unsigned nprocs : {1u, 2u, 4u, 8u}) {
            harness::Workload wl(tpcd::ScaleConfig::paperScale(), nprocs);
            harness::TraceSet traces = wl.trace(q);
            sim::MachineConfig cfg = ctx.config();
            cfg.nprocs = nprocs;
            // Re-arms per sweep point: the JSON memprof block
            // reports the last point's profile.
            session.wireMemprof(cfg, &wl.db().catalog());
            session.setDatabase(wl.db().space());
            sim::SimStats stats =
                harness::runCold(cfg, traces, session.runOptions());
            session.addRun(tpcd::queryName(q) + "/procs=" +
                               std::to_string(nprocs),
                           stats);
            sim::ProcStats agg = stats.aggregate();

            std::uint64_t cohe = 0;
            for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
                cohe += agg.l2Misses().of(static_cast<sim::DataClass>(c),
                                        sim::MissType::Cohe);
            }
            tab.addRow(
                {std::to_string(nprocs),
                 std::to_string(stats.executionTime()),
                 harness::fixed(100.0 *
                                static_cast<double>(agg.syncStall) /
                                static_cast<double>(agg.totalCycles())),
                 std::to_string(cohe / nprocs),
                 std::to_string(
                     agg.l2Misses().byGroup(sim::ClassGroup::Data) /
                     nprocs)});
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
    return harness::benchMain("ablation_scaling", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
