/**
 * @file
 * Ablation: write-buffer depth. The paper's processors stall on
 * write-buffer overflow with 16 entries; read-only queries rarely hit
 * that limit, but the write-heavy update function UF1 (extension) does.
 * This sweep shows where the 16-entry choice sits for both.
 */

#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "tpcd/updates.hh"

using namespace dss;

namespace {

sim::TraceStream
traceUF1(tpcd::TpcdDb &db, unsigned orders)
{
    sim::TraceStream stream;
    db::TracedMemory mem(db.space(), 0, stream);
    db::PrivateHeap priv(db.space(), 0);
    std::size_t mark = priv.mark();
    db::ExecContext ctx{mem, db.catalog(), priv, 9000};
    tpcd::runUF1(db, ctx, orders, 23);
    priv.rewind(mark);
    return stream;
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::ObsSession &session = ctx.session;
    std::cout << "=== Ablation: write-buffer depth ===\n\n";

    harness::Workload wl(tpcd::ScaleConfig::paperScale(), 4);
    harness::TraceSet q6 = wl.trace(tpcd::QueryId::Q6);

    tpcd::TpcdDb update_db(tpcd::ScaleConfig::paperScale(), 1);
    session.wireMemprof(ctx.config(),
                        &wl.db().catalog());
    harness::TraceSet uf1;
    uf1.push_back(traceUF1(update_db, update_db.scale().orders() / 20));

    for (auto [name, traces, procs, space] :
         {std::tuple<const char *, harness::TraceSet *, unsigned,
                     sim::AddressSpace *>{"Q6 (read-only)", &q6, 4u,
                                          &wl.db().space()},
          {"UF1 (write-heavy, 1 proc)", &uf1, 1u, &update_db.space()}}) {
        harness::TextTable tab({"entries", "exec cycles", "overflows",
                                "Mem%"});
        session.setDatabase(*space);
        for (std::size_t entries : {1, 4, 16, 64}) {
            sim::MachineConfig cfg = ctx.config();
            cfg.nprocs = procs;
            cfg.writeBufferEntries = entries;
            sim::SimStats stats =
                harness::runCold(cfg, *traces, session.runOptions());
            session.addRun(std::string(name) + "/entries=" +
                               std::to_string(entries),
                           stats);
            sim::ProcStats agg = stats.aggregate();
            tab.addRow({std::to_string(entries),
                        std::to_string(agg.totalCycles()),
                        std::to_string(agg.wbOverflows),
                        harness::pct(static_cast<double>(agg.memStall),
                                     static_cast<double>(
                                         agg.totalCycles()))});
        }
        std::cout << name << '\n';
        tab.print(std::cout);
        std::cout << '\n';
    }
    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("ablation_write_buffer", argc, argv,
                              harness::BenchOptions::kPlacement |
                                  harness::BenchOptions::kJson |
                                  harness::BenchOptions::kMemprof,
                              run);
}
