/**
 * @file
 * Figure 12: inter-query data reuse. Secondary-cache misses of Q3 and Q12
 * when (a) the caches are cold, (b) the caches were warmed by another
 * execution of the same query with different parameters, and (c) the
 * caches were warmed by the other query. Very large caches (1 MB L1 /
 * 32 MB L2) are used to expose the upper bound on reuse, as in the paper.
 *
 * Paper reference shapes: Q12 after Q12 loses nearly all Data misses (the
 * whole lineitem table is reused); Q3 after Q3 loses Index misses but
 * little Data; Q12 warms Q3 partially (lineitem tuples + orders index);
 * Q3 warms Q12 barely.
 */

#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace dss;

namespace {

void
printRun(const std::string &label, const sim::SimStats &stats, double base)
{
    const sim::ProcStats agg = stats.aggregate();
    const sim::MissTable &m = agg.l2Misses();
    auto n = [&](sim::ClassGroup g) {
        return harness::fixed(
            100.0 * static_cast<double>(m.byGroup(g)) / base, 1);
    };
    std::cout << "  " << label << ": Meta=" << n(sim::ClassGroup::Metadata)
              << " Index=" << n(sim::ClassGroup::Index)
              << " Data=" << n(sim::ClassGroup::Data)
              << " Priv=" << n(sim::ClassGroup::Priv) << " Total="
              << harness::fixed(
                     100.0 * static_cast<double>(m.total()) / base, 1)
              << '\n';
}

// Case labels are space-padded for the text report; strip that for JSON.
std::string
trimmed(std::string s)
{
    while (!s.empty() && s.back() == ' ')
        s.pop_back();
    return s;
}

obs::Json
normalizedRow(const sim::SimStats &stats, double base)
{
    const sim::ProcStats agg = stats.aggregate();
    const sim::MissTable &m = agg.l2Misses();
    auto n = [&](sim::ClassGroup g) {
        return 100.0 * static_cast<double>(m.byGroup(g)) / base;
    };
    obs::Json row = obs::Json::object();
    row["metadataPct"] = n(sim::ClassGroup::Metadata);
    row["indexPct"] = n(sim::ClassGroup::Index);
    row["dataPct"] = n(sim::ClassGroup::Data);
    row["privPct"] = n(sim::ClassGroup::Priv);
    row["totalPct"] = 100.0 * static_cast<double>(m.total()) / base;
    return row;
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    std::cout << "=== Figure 12: secondary-cache misses with warm caches "
                 "(1M L1 / 32M L2; cold run = 100) ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    sim::MachineConfig cfg = ctx.config().withCacheSizes(
        1 << 20, 32 << 20);
    session.setDatabase(wl.db().space());
    session.wireMemprof(cfg, &wl.db().catalog());

    // Distinct parameter seeds: the warm-up query is "the same query using
    // different parameters" (paper Section 5.2.2).
    harness::TraceSet q3_a = wl.trace(tpcd::QueryId::Q3, 11);
    harness::TraceSet q3_b = wl.trace(tpcd::QueryId::Q3, 23);
    harness::TraceSet q12_a = wl.trace(tpcd::QueryId::Q12, 31);
    harness::TraceSet q12_b = wl.trace(tpcd::QueryId::Q12, 47);

    struct Case
    {
        const char *label;
        const harness::TraceSet *warm; // may be null (cold)
        const harness::TraceSet *measured;
    };

    obs::Json &figure = session.extra();
    auto run_group = [&](const char *title, const Case (&cases)[3]) {
        std::cout << title << '\n';
        obs::Json rows = obs::Json::array();
        double base = 1;
        for (const Case &c : cases) {
            std::vector<const harness::TraceSet *> seq;
            if (c.warm)
                seq.push_back(c.warm);
            seq.push_back(c.measured);
            std::vector<sim::SimStats> all =
                harness::runSequence(cfg, seq, session.runOptions());
            const sim::SimStats &measured = all.back();
            session.addRun(trimmed(c.label), measured);
            if (!c.warm) {
                base = std::max<double>(
                    1.0, static_cast<double>(
                             measured.aggregate().l2Misses().total()));
            }
            printRun(c.label, measured, base);
            if (session.wantJson()) {
                obs::Json row = normalizedRow(measured, base);
                row["label"] = trimmed(c.label);
                rows.push(std::move(row));
            }
        }
        if (session.wantJson())
            figure[title] = std::move(rows);
        std::cout << '\n';
    };

    const Case q3_cases[3] = {
        {"Q3, cold caches        ", nullptr, &q3_a},
        {"Q3, warmed by another Q3", &q3_b, &q3_a},
        {"Q3, warmed by Q12       ", &q12_b, &q3_a},
    };
    run_group("Figure 12(a): misses of Q3", q3_cases);

    const Case q12_cases[3] = {
        {"Q12, cold caches         ", nullptr, &q12_a},
        {"Q12, warmed by another Q12", &q12_b, &q12_a},
        {"Q12, warmed by Q3         ", &q3_b, &q12_a},
    };
    run_group("Figure 12(b): misses of Q12", q12_cases);
    return session.finish(cfg, std::cerr) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("fig12_inter_query_reuse", argc, argv,
                                 harness::BenchOptions::kAll, run);
}
