/**
 * @file
 * Figure 10: number of misses on each data-structure group for several
 * cache sizes, from 4 KB L1 / 128 KB L2 (baseline) to 256 KB L1 / 8 MB
 * L2, normalized to the baseline = 100. Line sizes fixed at 32 B / 64 B.
 *
 * Paper reference shapes: Priv misses in the primary cache collapse as
 * caches grow (private data is reused); the Data curve in the secondary
 * cache is flat (no intra-query temporal locality); Q3's Index and
 * Metadata misses shrink (indices are re-traversed within the query).
 */

#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

namespace {

struct SizePoint
{
    std::size_t l1, l2;
};

constexpr SizePoint kSizes[] = {
    {4 << 10, 128 << 10},
    {16 << 10, 512 << 10},
    {64 << 10, 2 << 20},
    {256 << 10, 8 << 20},
};

std::string
sizeName(std::size_t bytes)
{
    if (bytes >= (1u << 20))
        return std::to_string(bytes >> 20) + "M";
    return std::to_string(bytes >> 10) + "K";
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Figure 10: misses vs. cache size (baseline "
                 "4K/128K = 100) ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    session.usePlacement(harness::makePlacement(
        opts, ctx.config(), &wl.db().space()));
    session.wireMemprof(ctx.config(),
                        &wl.db().catalog());

    for (tpcd::QueryId q : {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                            tpcd::QueryId::Q12}) {
        harness::TraceSet traces = wl.trace(q);

        std::vector<sim::ProcStats> results;
        for (const SizePoint &sp : kSizes) {
            sim::MachineConfig cfg =
                ctx.config().withCacheSizes(sp.l1,
                                                              sp.l2);
            results.push_back(
                harness::runCold(cfg, traces, session.runOptions())
                    .aggregate());
        }

        const double base_l1 = std::max<double>(
            1.0, static_cast<double>(results[0].l1Misses().total()));
        const double base_l2 = std::max<double>(
            1.0, static_cast<double>(results[0].l2Misses().total()));

        auto print_level = [&](const char *name, bool l1, double base) {
            harness::TextTable tab({"caches", "Priv", "Data", "Index",
                                    "Metadata", "Total"});
            for (std::size_t i = 0; i < std::size(kSizes); ++i) {
                const sim::MissTable &m =
                    l1 ? results[i].l1Misses() : results[i].l2Misses();
                auto n = [&](sim::ClassGroup g) {
                    return harness::fixed(
                        100.0 * static_cast<double>(m.byGroup(g)) / base,
                        1);
                };
                tab.addRow({sizeName(kSizes[i].l1) + "/" +
                                sizeName(kSizes[i].l2),
                            n(sim::ClassGroup::Priv),
                            n(sim::ClassGroup::Data),
                            n(sim::ClassGroup::Index),
                            n(sim::ClassGroup::Metadata),
                            harness::fixed(
                                100.0 *
                                    static_cast<double>(m.total()) / base,
                                1)});
            }
            std::cout << tpcd::queryName(q) << ": " << name
                      << " misses\n";
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
    return harness::benchMain("fig10_cache_size_misses", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
