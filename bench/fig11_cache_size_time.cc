/**
 * @file
 * Figure 11: execution time for different cache sizes (4K/128K to
 * 256K/8M), broken into Busy / PMem / SMem / MSync and normalized to the
 * baseline = 100.
 *
 * Paper reference shapes: queries speed up with cache size, but most of
 * the gain is PMem (private data reuse); Q3 also gains SMem from index and
 * metadata temporal locality; Q6/Q12 barely gain SMem because database
 * data has no intra-query reuse.
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
    std::cout << "=== Figure 11: execution time vs. cache size (baseline "
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

        const double base =
            static_cast<double>(results[0].totalCycles());
        harness::TextTable tab(
            {"caches", "Busy", "PMem", "SMem", "MSync", "Total"});
        for (std::size_t i = 0; i < std::size(kSizes); ++i) {
            const sim::ProcStats &agg = results[i];
            auto n = [&](sim::Cycles c) {
                return harness::fixed(
                    100.0 * static_cast<double>(c) / base, 1);
            };
            tab.addRow({sizeName(kSizes[i].l1) + "/" +
                            sizeName(kSizes[i].l2),
                        n(agg.busy), n(agg.pmem()), n(agg.smem()),
                        n(agg.syncStall), n(agg.totalCycles())});
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
    return harness::benchMain("fig11_cache_size_time", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
