/**
 * @file
 * Query-stream throughput: the scheduler (src/sched/) admitting seeded
 * streams of Q3/Q6/Q12 instances onto the simulated machine.
 *
 * Three experiments:
 *
 *  1. Closed-loop sweep: offered load (concurrent clients) x processor
 *     count. Reports makespan, completed queries per million simulated
 *     cycles, and the p50/p95/p99 latency tail per point.
 *  2. Open-loop sweep: exponential arrivals at decreasing mean
 *     inter-arrival gaps (rising offered load) on the 4-processor
 *     baseline — the p95-vs-load curve of EXPERIMENTS.md.
 *  3. Trace-cache validation: the heaviest closed-loop point run twice,
 *     cache off vs on, asserting the two stream reports (every
 *     per-instance simulation statistic included) are bit-identical and
 *     reporting the host wall-clock speedup the cache buys (on
 *     stderr: stdout carries only simulated results).
 *
 * Stream knobs: --stream <n>, --stream-seed <s>,
 * --stream-policy <fifo|shortest>, --trace-cache <on|off|N>.
 * Resilience knobs (src/sched/resilience.hh): --deadline <cycles>,
 * --queue-cap <n>, --shed <newest|class|deadline>, --breaker <p>.
 */

#include <chrono>
#include <iostream>

#include "harness/bench_main.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "sched/scheduler.hh"

using namespace dss;

namespace {

struct TimedRun
{
    sched::StreamResult result;
    double hostSeconds = 0;
};

TimedRun
runStream(harness::Workload &wl, const sim::MachineConfig &cfg,
          const sched::StreamConfig &scfg, harness::RunOptions ro,
          sched::TraceCache *cache,
          const sched::ResilienceConfig &res = sched::ResilienceConfig())
{
    const auto t0 = std::chrono::steady_clock::now();
    sched::StreamScheduler sched(wl, cfg, scfg, ro, cache, res);
    TimedRun out;
    out.result = sched.run();
    out.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
}

void
printPoint(const std::string &label, const sched::StreamResult &r)
{
    std::cout << "  " << label << ": makespan=" << r.makespan
              << " thr=" << harness::fixed(r.throughputPerMcycle, 3)
              << "/Mcyc p50=" << harness::fixed(r.latency.p50, 0)
              << " p95=" << harness::fixed(r.latency.p95, 0)
              << " p99=" << harness::fixed(r.latency.p99, 0)
              << " cache=" << r.cache.hits << "h/" << r.cache.misses
              << "m\n";
}

} // namespace

int
run(harness::BenchContext &ctx)
{
    harness::BenchOptions &opts = ctx.opts;
    harness::ObsSession &session = ctx.session;

    const unsigned instances =
        opts.streamInstances ? opts.streamInstances : 12;
    const auto policy = sched::parsePolicy(opts.streamPolicy);
    if (!policy) {
        std::cerr << "throughput_stream: bad --stream-policy\n";
        return 2;
    }
    session.checkPlacementFits(2); // the closed-loop sweep's p2 points

    std::cout << "=== Query-stream throughput (" << instances
              << " instances, seed " << opts.streamSeed << ", "
              << opts.streamPolicy << ", trace cache "
              << (opts.traceCache ? "on" : "off") << ") ===\n\n";

    harness::Workload wl(opts.scaleConfig(), 4);
    session.wireMemprof(ctx.config(),
                        &wl.db().catalog());
    session.setDatabase(wl.db().space());

    // One shared cache across every sweep point: captures are pure, so
    // entries are valid wherever the key recurs.
    sched::TraceCache cache(opts.traceCacheCapacity);
    sched::TraceCache *cachep = opts.traceCache ? &cache : nullptr;

    sched::StreamConfig base;
    base.instances = instances;
    base.seed = opts.streamSeed;
    base.policy = *policy;

    // Resilience knobs pass straight through; with none given, res stays
    // disabled and the stream reports are byte-identical to a build
    // without the resilience layer.
    sched::ResilienceConfig res;
    res.deadline = opts.deadlineCycles;
    if (opts.queueCapacity != ~std::uint64_t{0})
        res.queueCapacity = static_cast<unsigned>(opts.queueCapacity);
    if (auto sp = sched::parseShedPolicy(opts.shedPolicy))
        res.shed = *sp;
    res.breakerThreshold = opts.breakerThreshold;

    obs::Json &figure = session.extra();

    // Solo calibration anchors: one single-instance stream per traced
    // query fills the report's standard "runs" array (the schema
    // json_validate checks) with the solo stats that make the stream
    // latencies interpretable — and that serviceRank's ordering is
    // calibrated against. Keys land in the shared cache, so the sweep
    // below re-serves them as hits.
    for (tpcd::QueryId q :
         {tpcd::QueryId::Q3, tpcd::QueryId::Q6, tpcd::QueryId::Q12}) {
        sched::StreamConfig solo = base;
        solo.instances = 1;
        solo.mix = {{q, 1}};
        solo.paramVariants = 1;
        TimedRun tr = runStream(wl, ctx.config(), solo,
                                session.runOptions(), cachep);
        session.addRun("solo " + tpcd::queryName(q),
                       tr.result.records.front().stats);
    }

    auto runPoint = [&](const std::string &label,
                        const sim::MachineConfig &cfg,
                        const sched::StreamConfig &scfg,
                        sched::TraceCache *c) {
        harness::RunOptions ro = session.runOptions();
        obs::Json registry;
        ro.registrySnapshot = session.wantJson() ? &registry : nullptr;
        TimedRun tr = runStream(wl, cfg, scfg, ro, c, res);
        printPoint(label, tr.result);
        if (session.wantJson()) {
            obs::Json point = toJson(tr.result, /*include_run_stats=*/false);
            point["label"] = label;
            point["nprocs"] = cfg.nprocs;
            point["registry"] = std::move(registry);
            figure["points"].push(std::move(point));
        }
        return tr;
    };

    std::cout << "Closed-loop sweep: clients x processors\n";
    const unsigned client_sweep[] = {1, 2, 4, 6};
    const unsigned proc_sweep[] = {2, 4};
    for (unsigned nprocs : proc_sweep) {
        sim::MachineConfig cfg = ctx.config();
        cfg.nprocs = nprocs;
        for (unsigned clients : client_sweep) {
            sched::StreamConfig scfg = base;
            scfg.mode = sched::ArrivalMode::Closed;
            scfg.clients = clients;
            runPoint("closed c" + std::to_string(clients) + " p" +
                         std::to_string(nprocs),
                     cfg, scfg, cachep);
        }
    }

    std::cout << "\nOpen-loop sweep: offered load on the 4-proc baseline\n";
    const sim::Cycles gap_sweep[] = {2000000, 1000000, 500000, 250000};
    for (sim::Cycles gap : gap_sweep) {
        sched::StreamConfig scfg = base;
        scfg.mode = sched::ArrivalMode::Open;
        scfg.meanInterarrival = gap;
        runPoint("open gap" + std::to_string(gap),
                 ctx.config(), scfg, cachep);
    }

    // Cache validation: heaviest closed point, cold cache off vs on. The
    // stream reports must match bit for bit — a cached trace replays the
    // exact bytes a fresh capture would produce.
    std::cout << "\nTrace-cache validation (closed c6 p4)\n";
    sched::StreamConfig vcfg = base;
    vcfg.mode = sched::ArrivalMode::Closed;
    vcfg.clients = 6;
    harness::RunOptions vro = session.runOptions();
    TimedRun uncached = runStream(wl, ctx.config(), vcfg,
                                  vro, nullptr, res);
    // Warm the cache with one pass, then measure the all-hit pass — the
    // repeated-stream scenario the cache exists for. Each pass gets a
    // fresh machine, so the warm pass cannot influence the measured one.
    sched::TraceCache vcache(opts.traceCacheCapacity);
    runStream(wl, ctx.config(), vcfg, vro, &vcache, res);
    TimedRun cached = runStream(wl, ctx.config(), vcfg,
                                vro, &vcache, res);
    const std::string ju = toJson(uncached.result, true)["records"].dump();
    const std::string jc = toJson(cached.result, true)["records"].dump();
    if (ju != jc) {
        std::cerr << "throughput_stream: cached stream diverged from "
                     "uncached stream\n";
        return 1;
    }
    const double speedup =
        cached.hostSeconds > 0 ? uncached.hostSeconds / cached.hostSeconds
                               : 0;
    // Host wall-clock timings go to stderr, so stdout stays a pure
    // function of the flags.
    std::cout << "  bit-identical: yes (hits=" << vcache.stats().hits
              << " misses=" << vcache.stats().misses << ")\n";
    std::cerr << "throughput_stream: cache validation host time uncached="
              << harness::fixed(uncached.hostSeconds, 3) << "s cached="
              << harness::fixed(cached.hostSeconds, 3) << "s speedup="
              << harness::fixed(speedup, 2) << "x\n";
    if (session.wantJson()) {
        obs::Json v = obs::Json::object();
        v["bit_identical"] = obs::Json(true);
        v["uncached_seconds"] = obs::Json(uncached.hostSeconds);
        v["cached_seconds"] = obs::Json(cached.hostSeconds);
        v["speedup"] = obs::Json(speedup);
        v["hits"] = obs::Json(vcache.stats().hits);
        v["misses"] = obs::Json(vcache.stats().misses);
        figure["cache_validation"] = std::move(v);
    }

    return session.finish(ctx.config(), std::cerr) ? 0
                                                                     : 1;
}

int
main(int argc, char **argv)
{
    return harness::benchMain("throughput_stream", argc, argv,
                                 harness::BenchOptions::kAll | harness::BenchOptions::kStream |
            harness::BenchOptions::kResilience, run);
}
