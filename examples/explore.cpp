/**
 * @file
 * explore — a small command-line driver over the whole library.
 *
 *   explore [options]
 *     --query N        TPC-D query number 1..17 (default 6)
 *     --procs N        processors / query instances (default 4)
 *     --l1 BYTES       primary cache size (default 4096)
 *     --l2 BYTES       secondary cache size (default 131072)
 *     --line BYTES     L2 line size; L1 line is half (default 64)
 *     --prefetch N     sequential data prefetch degree (default off)
 *     --customers N    population scale (default 600)
 *     --seed N         parameter seed (default 1)
 *
 * Examples:
 *   explore --query 3 --line 128
 *   explore --query 12 --prefetch 4
 */

#include <cstring>
#include <iostream>

#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

namespace {

struct Options
{
    int query = 6;
    unsigned procs = 4;
    std::size_t l1 = 4096;
    std::size_t l2 = 128 * 1024;
    std::size_t line = 64;
    unsigned prefetch = 0;
    unsigned customers = 600;
    std::uint64_t seed = 1;
};

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto want_value = [&](const char *flag) {
            if (a != flag)
                return false;
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(flag) +
                                         " needs a value");
            return true;
        };
        if (want_value("--query"))
            o.query = std::atoi(argv[++i]);
        else if (want_value("--procs"))
            o.procs = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (want_value("--l1"))
            o.l1 = static_cast<std::size_t>(std::atoll(argv[++i]));
        else if (want_value("--l2"))
            o.l2 = static_cast<std::size_t>(std::atoll(argv[++i]));
        else if (want_value("--line"))
            o.line = static_cast<std::size_t>(std::atoll(argv[++i]));
        else if (want_value("--prefetch"))
            o.prefetch = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (want_value("--customers"))
            o.customers = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (want_value("--seed"))
            o.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else {
            std::cerr << "unknown option: " << a << '\n';
            return false;
        }
    }
    if (o.query < 1 || o.query > 17) {
        std::cerr << "--query must be 1..17\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        if (!parse(argc, argv, o))
            return 1;

        tpcd::ScaleConfig scale;
        scale.customers = o.customers;
        scale.parts = o.customers * 4 / 3;
        scale.suppliers = std::max(10u, o.customers / 15);
        harness::Workload wl(scale, o.procs, 42);
        auto q = static_cast<tpcd::QueryId>(o.query);
        std::cout << "tracing " << tpcd::queryName(q) << " ("
                  << tpcd::kNumQueries << " available) on " << o.procs
                  << " processors...\n";
        std::vector<sim::TraceStream> traces = wl.trace(q, o.seed);

        sim::MachineConfig cfg = sim::MachineConfig::baseline()
                                     .withLineSize(o.line)
                                     .withCacheSizes(o.l1, o.l2);
        cfg.nprocs = std::max(o.procs, 1u);
        if (o.prefetch > 0) {
            cfg.prefetchData = true;
            cfg.prefetchDegree = o.prefetch;
        }

        sim::Machine machine(cfg);
        std::vector<const sim::TraceStream *> ptrs;
        for (const auto &t : traces)
            ptrs.push_back(&t);
        sim::SimStats stats = machine.run(ptrs);
        sim::ProcStats agg = stats.aggregate();

        std::cout << "\nmachine: " << cfg.nprocs << " procs, L1 "
                  << o.l1 / 1024 << "K/" << cfg.l1().lineBytes << "B, L2 "
                  << o.l2 / 1024 << "K/" << cfg.l2().lineBytes
                  << "B, prefetch "
                  << (cfg.prefetchData
                          ? std::to_string(cfg.prefetchDegree)
                          : std::string("off"))
                  << "\n\n";

        harness::TextTable summary({"metric", "value"});
        summary.addRow({"execution time (cycles)",
                        std::to_string(stats.executionTime())});
        summary.addRow(
            {"Busy %", harness::pct(static_cast<double>(agg.busy),
                                    static_cast<double>(
                                        agg.totalCycles()))});
        summary.addRow(
            {"Mem %", harness::pct(static_cast<double>(agg.memStall),
                                   static_cast<double>(
                                       agg.totalCycles()))});
        summary.addRow(
            {"MSync %", harness::pct(static_cast<double>(agg.syncStall),
                                     static_cast<double>(
                                         agg.totalCycles()))});
        summary.addRow({"L1 miss rate %",
                        harness::fixed(100 * agg.l1MissRate(), 2)});
        summary.addRow({"L2 global miss rate %",
                        harness::fixed(100 * agg.l2GlobalMissRate(), 2)});
        summary.print(std::cout);
        std::cout << '\n';

        harness::printMissTable(std::cout, "L2 read misses",
                                agg.l2Misses());
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
