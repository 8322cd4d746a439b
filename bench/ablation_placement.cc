/**
 * @file
 * Ablation: NUMA page-placement policy (sim/placement.hh).
 *
 * The paper measures remote-memory transactions as the dominant stall
 * source (80-cycle local vs. 249-cycle 2-hop vs. 351-cycle 3-hop,
 * Section 3.1) and names data placement as the CC-NUMA lever against
 * them. This sweep runs the three traced queries under every placement
 * policy and shows where the demand transactions land (local / 2-hop /
 * 3-hop) next to the paper-style time breakdown.
 *
 * The profile policy is exercised end-to-end in-process: the per-page
 * access histogram is collected from the traces, round-tripped through
 * its JSON wire format (the same bytes --page-profile writes and
 * --placement profile:<path> reads back), and used to home each page at
 * its majority accessor.
 *
 * Expected shapes: interleave scatters homes uniformly, so ~1/N of
 * demand transactions are local. first-touch and profile home pages at
 * their (first/majority) accessor — private-ish pages turn local, truly
 * shared pages keep paying remote hops. class-affinity concentrates
 * metadata at node 0: that node's metadata turns local and dirty-remote
 * metadata transfers lose their third hop (owner or home coincide more
 * often), which is visible on the metadata-heavy Q3.
 */

#include <array>
#include <iostream>
#include <string>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "obs/pageprof.hh"

using namespace dss;

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    std::cout << "=== Ablation: NUMA page-placement policy ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    const sim::MachineConfig cfg = ctx.config();
    session.wireMemprof(cfg, &wl.db().catalog());
    session.setDatabase(wl.db().space());

    const sim::PlacementKind kinds[] = {
        sim::PlacementKind::Interleave, sim::PlacementKind::FirstTouch,
        sim::PlacementKind::ClassAffinity, sim::PlacementKind::Profile};

    obs::Json figure = obs::Json::array();

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);

        // The profile policy's first pass: histogram the traces and
        // round-trip through the --page-profile JSON format.
        obs::PageProfile prof(cfg.pageBytes);
        prof.addTraces(harness::tracePtrs(traces));
        const std::vector<sim::PageAccessCounts> hist =
            obs::PageProfile::parse(prof.toJson(), cfg.pageBytes);

        harness::TextTable tab({"policy", "exec cycles", "Busy%", "Mem%",
                                "MSync%", "local", "2-hop", "3-hop",
                                "3-hop vs interleave"});
        std::uint64_t base_hop3 = 0;

        for (sim::PlacementKind kind : kinds) {
            const char *name = sim::placementKindName(kind);
            harness::RunOptions ro = session.runOptions();
            ro.placementSpec.kind = kind;
            ro.placementHistogram = &hist;
            sim::SimStats stats = harness::runCold(cfg, traces, ro);
            const std::string label =
                std::string(tpcd::queryName(q)) + "/" + name;
            session.addRun(label, stats);

            sim::ProcStats agg = stats.aggregate();
            std::array<std::uint64_t, sim::ProcStats::kNumHopClasses>
                hops{};
            for (std::size_t h = 0; h < hops.size(); ++h)
                hops[h] = agg.hopsOfClass(h);
            if (kind == sim::PlacementKind::Interleave)
                base_hop3 = hops[2];

            harness::TimeBreakdown tb = harness::timeBreakdown(stats);
            const double delta =
                base_hop3 > 0
                    ? 100.0 *
                          (static_cast<double>(hops[2]) -
                           static_cast<double>(base_hop3)) /
                          static_cast<double>(base_hop3)
                    : 0.0;
            tab.addRow({name, std::to_string(tb.total),
                        harness::fixed(100 * tb.busy),
                        harness::fixed(100 * tb.mem),
                        harness::fixed(100 * tb.msync),
                        std::to_string(hops[0]), std::to_string(hops[1]),
                        std::to_string(hops[2]),
                        harness::fixed(delta, 1) + "%"});

            if (session.wantJson()) {
                obs::Json row = obs::Json::object();
                row["query"] = tpcd::queryName(q);
                row["policy"] = name;
                row["execCycles"] = tb.total;
                row["busyPct"] = 100 * tb.busy;
                row["memPct"] = 100 * tb.mem;
                row["msyncPct"] = 100 * tb.msync;
                row["local"] = hops[0];
                row["hop2"] = hops[1];
                row["hop3"] = hops[2];
                row["hop3DeltaPct"] = delta;
                figure.push(std::move(row));
            }
        }
        std::cout << tpcd::queryName(q) << '\n';
        tab.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "Reading: hop counts cover demand transactions (read "
                 "miss, write\nupgrade/allocate, lock RMW). Local costs "
                 "80 cycles, 2-hop 249, 3-hop 351\n(Section 3.1), so a "
                 "policy that converts 3-hop and 2-hop transactions "
                 "into\nlocal ones attacks the dominant stall term "
                 "directly.\n";

    if (session.wantJson())
        session.extra()["placementSweep"] = std::move(figure);
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ablation_placement", argc, argv,
                              harness::BenchOptions::kJson |
                                  harness::BenchOptions::kScale |
                                  harness::BenchOptions::kCheck |
                                  harness::BenchOptions::kMemprof,
                              run);
}
