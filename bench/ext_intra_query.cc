/**
 * @file
 * Extension (the paper's future work, Section 7): intra-query parallelism.
 *
 * The paper runs one query per processor (inter-query parallelism) and
 * names intra-query parallelism as remaining work. This bench partitions a
 * single Q6 scan across the processors — each node aggregates a
 * contiguous block range of lineitem — and compares it against (a) one
 * processor running the whole Q6 and (b) the paper's inter-query setup.
 *
 * Expected behaviour: near-linear scan speedup (the partitions touch
 * disjoint data, so there is no extra coherence traffic), with the same
 * Data-cold-miss character as the inter-query Sequential workload.
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
    std::cout << "=== Extension: intra-query parallelism for Q6 ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.setDatabase(wl.db().space());
    session.wireMemprof(cfg, &wl.db().catalog());

    // (a) One processor runs the whole Q6.
    harness::TraceSet solo;
    solo.push_back(wl.traceOne(tpcd::QueryId::Q6, 0, 7919));
    sim::SimStats s_solo = harness::runCold(cfg, solo, session.runOptions());
    session.addRun("1 proc, whole Q6", s_solo);

    // (b) Inter-query: four independent Q6 instances (the paper's setup).
    harness::TraceSet inter = wl.trace(tpcd::QueryId::Q6, 1);
    sim::SimStats s_inter =
        harness::runCold(cfg, inter, session.runOptions());
    session.addRun("4 procs, 4 Q6 queries", s_inter);

    // (c) Intra-query: one Q6 split into four block-range partitions.
    harness::TraceSet intra = wl.traceIntraQueryQ6(1);
    sim::SimStats s_intra =
        harness::runCold(cfg, intra, session.runOptions());
    session.addRun("4 procs, 1 Q6 split", s_intra);

    harness::TextTable tab({"setup", "exec cycles", "speedup vs 1-proc",
                            "L2 Data misses", "L2 Cohe misses"});
    auto row = [&](const char *name, const sim::SimStats &s) {
        sim::ProcStats agg = s.aggregate();
        std::uint64_t cohe = 0;
        for (std::size_t c = 0; c < sim::kNumDataClasses; ++c) {
            cohe += agg.l2Misses().of(static_cast<sim::DataClass>(c),
                                    sim::MissType::Cohe);
        }
        double speedup =
            static_cast<double>(s_solo.executionTime()) /
            static_cast<double>(s.executionTime());
        tab.addRow({name, std::to_string(s.executionTime()),
                    harness::fixed(speedup, 2),
                    std::to_string(
                        agg.l2Misses().byGroup(sim::ClassGroup::Data)),
                    std::to_string(cohe)});
    };
    row("1 proc, whole Q6      ", s_solo);
    row("4 procs, 4 Q6 queries ", s_inter);
    row("4 procs, 1 Q6 split   ", s_intra);
    tab.print(std::cout);

    std::cout << "\nNote: 'speedup' for the inter-query row is throughput "
                 "over four queries\n(each processor still scans the whole "
                 "table); the intra-query row is true\nresponse-time "
                 "speedup for one query.\n";
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ext_intra_query", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
