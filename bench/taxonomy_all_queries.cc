/**
 * @file
 * Section 3.4 taxonomy check over ALL 17 read-only queries.
 *
 * The paper derives its Sequential/Index classification from the three
 * traced queries and the plans of Table 1. Here we trace and simulate
 * every read-only query and *measure* the classification: a query whose
 * shared L2 misses are dominated by database data is Sequential-like; one
 * dominated by indices + metadata is Index-like; in between is Mixed.
 * The measured classes should line up with the Table 1 grouping.
 */

#include <array>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

namespace {

const char *
className(tpcd::QueryClass c)
{
    switch (c) {
      case tpcd::QueryClass::Sequential: return "Sequential";
      case tpcd::QueryClass::Index: return "Index";
      default: return "Mixed";
    }
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    std::cout << "=== Taxonomy: measured access-pattern class of Q1..Q17 "
                 "===\n\n";

    // The default population here is already reduced from the paper scale:
    // it keeps the long-plan queries quick, and the class boundaries are
    // scale-invariant. --scale tiny shrinks it further for smoke tests.
    tpcd::ScaleConfig scale;
    scale.customers = 300;
    scale.parts = 400;
    scale.suppliers = 20;
    if (opts.scale == "tiny")
        scale = tpcd::ScaleConfig::tiny();
    harness::Workload wl(scale, 4);
    const sim::MachineConfig cfg = ctx.config();
    session.setDatabase(wl.db().space());
    session.wireMemprof(cfg, &wl.db().catalog());

    harness::TextTable tab({"query", "Data% of shared L2 misses",
                            "Index+Meta%", "measured class",
                            "paper class", "agree"});
    obs::Json taxonomy = obs::Json::array();
    int agreements = 0;
    // NUMA hop histogram (local / 2-hop / 3-hop demand transactions per
    // data-structure group), summed over all queries.
    std::array<std::array<std::uint64_t, sim::ProcStats::kNumHopClasses>,
               sim::kNumClassGroups>
        hops{};
    for (int qi = 1; qi <= tpcd::kNumQueries; ++qi) {
        auto q = static_cast<tpcd::QueryId>(qi);
        harness::TraceSet traces = wl.trace(q);
        sim::SimStats stats =
            harness::runCold(cfg, traces, session.runOptions());
        session.addRun(tpcd::queryName(q), stats);
        sim::ProcStats agg = stats.aggregate();
        for (std::size_t g = 0; g < sim::kNumClassGroups; ++g)
            for (std::size_t h = 0; h < sim::ProcStats::kNumHopClasses;
                 ++h)
                hops[g][h] += agg.hopsByGroup[g][h];

        const double data = static_cast<double>(
            agg.l2Misses().byGroup(sim::ClassGroup::Data));
        const double index = static_cast<double>(
            agg.l2Misses().byGroup(sim::ClassGroup::Index));
        const double meta = static_cast<double>(
            agg.l2Misses().byGroup(sim::ClassGroup::Metadata));
        const double shared = std::max(1.0, data + index + meta);

        const double data_share = data / shared;
        tpcd::QueryClass measured =
            data_share > 0.70 ? tpcd::QueryClass::Sequential
            : data_share < 0.40 ? tpcd::QueryClass::Index
                                : tpcd::QueryClass::Mixed;
        tpcd::QueryClass paper = tpcd::queryClassOf(q);
        bool agree = measured == paper;
        agreements += agree ? 1 : 0;

        tab.addRow({tpcd::queryName(q),
                    harness::fixed(100 * data_share),
                    harness::fixed(100 * (index + meta) / shared),
                    className(measured), className(paper),
                    agree ? "yes" : "NO"});

        if (session.wantJson()) {
            obs::Json row = obs::Json::object();
            row["query"] = tpcd::queryName(q);
            row["dataSharePct"] = 100 * data_share;
            row["indexMetaSharePct"] = 100 * (index + meta) / shared;
            row["measuredClass"] = className(measured);
            row["paperClass"] = className(paper);
            row["agree"] = agree;
            taxonomy.push(std::move(row));
        }
    }
    tab.print(std::cout);
    std::cout << "\nagreement: " << agreements << "/17 queries\n"
              << "(the paper's taxonomy comes from the select algorithm "
                 "in Table 1; the\nmeasured class is derived purely from "
                 "the simulated miss mix)\n";

    if (session.wantJson()) {
        session.extra()["taxonomy"] = std::move(taxonomy);
        session.extra()["agreements"] =
            static_cast<std::int64_t>(agreements);
        obs::Json placement = obs::Json::object();
        placement["policy"] = opts.placement.str();
        obs::Json by_group = obs::Json::object();
        static const char *const kHopNames[] = {"local", "hop2", "hop3"};
        for (std::size_t g = 0; g < sim::kNumClassGroups; ++g) {
            obs::Json row = obs::Json::object();
            for (std::size_t h = 0; h < sim::ProcStats::kNumHopClasses;
                 ++h)
                row[kHopNames[h]] = hops[g][h];
            by_group[std::string(sim::classGroupName(
                static_cast<sim::ClassGroup>(g)))] = std::move(row);
        }
        placement["hopsByGroup"] = std::move(by_group);
        session.extra()["placement"] = std::move(placement);
    }
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("taxonomy_all_queries", argc, argv,
                                 harness::BenchOptions::kAll, run);
}
