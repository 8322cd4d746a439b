/**
 * @file
 * Host-time benchmark driver: how long the simulator takes, and how much
 * memory it holds, to reproduce the paper's experiments.
 *
 *     hostbench --workload cold-paper|stream-closed
 *               --seed N --seconds S --trace 0|1
 *               [--reference FILE] [--record] [--baseline FILE]
 *               [--spans FILE]
 *
 * One process, one host thread. "Reps" of the workload run back to back
 * for about S seconds, each on a freshly built TPC-D database (the
 * median build is setup_s). Host times are rescaled to a reference host
 * speed measured by a fixed probe kernel (HostProbe). Each rep is a fixed
 * list of ops (one op = one simulated run: one query on the baseline
 * machine, or one stream instance), and every op's output is checked:
 *
 *  - invariants that hold for any seed (cycle and stall-share algebra,
 *    stores = trace writes + lock acquires, loads >= trace reads,
 *    stream completion);
 *  - repeatability: every exact count of a rep equals the first rep's;
 *  - at the reference seed, the digest of obs::toJson(SimStats) equals
 *    the one recorded in the reference file.
 *
 * With --trace 1 the reps alternate untraced and traced. Traced reps
 * record spans (name, label, start, end, parent, run) around every call
 * into a layer; they are kept in memory, written to --spans at exit, and
 * reduced to per-layer metrics. The untraced/traced wall-time ratio is
 * the tracing overhead.
 *
 * The last line of stdout is one JSON object: {correct, attempted,
 * failed, metrics}. Layers are entered only through harness::Workload,
 * harness::runCold (default seq path), obs::toJson + Json::dump and
 * sched::StreamScheduler::run.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "harness/runner.hh"
#include "harness/workload.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"
#include "sched/scheduler.hh"
#include "sched/trace_cache.hh"
#include "sim/spec.hh"

using namespace dss;

namespace {

using Clock = std::chrono::steady_clock;

/** Seed whose op digests are pinned in the reference file. */
constexpr std::uint64_t kReferenceSeed = 42;
constexpr unsigned kNprocs = 4;       // the paper's 4-node machine
constexpr unsigned kMinReps = 3;      // fewest reps a median is taken of
/** Database builds before each rep, so that setup_s is a median of
 * 20-50 short builds per run. */
constexpr unsigned kColdBuildsPerRep = 3;
constexpr unsigned kStreamBuildsPerRep = 6;
constexpr unsigned kStreams = 6;      // independent streams per rep
constexpr unsigned kStreamInstances = 12; // per stream
constexpr unsigned kStreamClients = 4;

const tpcd::QueryId kPaperQueries[] = {tpcd::QueryId::Q3, tpcd::QueryId::Q6,
                                       tpcd::QueryId::Q12};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ----------------------------------------------------------- host probe

/**
 * Median probe time, in seconds, on the host the benchmark was proven on
 * (a 4-vCPU Intel Xeon VM): the host speed that wall_s, accesses_per_s
 * and setup_s are reported at.
 */
constexpr double kProbeReferenceS = 0.033;

/**
 * A fixed host-speed probe. A shared host's speed drifts by up to ~25%
 * over minutes, from neighbours contending for cache and memory, and the
 * simulator's memory-bound replay and the database build feel that drift
 * more than compute-bound code does. The probe does work of the same
 * kind, random inserts and lookups in a 32 MB open-addressing table,
 * without allocating. It runs before every database build and every
 * stream, and the run's times are rescaled by kProbeReferenceS / (median
 * probe time), which cancels most of the drift. The probe is the benchmark's own code, so
 * no change to the program moves it.
 */
class HostProbe
{
  public:
    double
    run()
    {
        const auto t0 = Clock::now();
        std::fill(table_.begin(), table_.end(), 0);
        const std::uint64_t mask = table_.size() - 1;
        auto slot = [&](std::uint64_t key) {
            std::uint64_t h = key & mask;
            while (table_[h] != 0 && table_[h] != key)
                h = (h + 1) & mask;
            return h;
        };
        std::uint64_t state = 0, found = 0;
        for (unsigned i = 0; i < kKeys; ++i) {
            const std::uint64_t key = mix(state += kGolden) | 1;
            table_[slot(key)] = key;
        }
        state = 0;
        for (unsigned i = 0; i < kKeys; ++i) {
            // Every other lookup is of a key that was not inserted.
            const std::uint64_t key = mix((state += kGolden) ^ (i & 1)) | 1;
            found += table_[slot(key)] == key;
        }
        if (found < kKeys / 2)
            throw std::logic_error("host probe lost keys");
        return since(t0);
    }

  private:
    static constexpr unsigned kKeys = 1u << 19;
    static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

    /** SplitMix64 finaliser. */
    static std::uint64_t
    mix(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::vector<std::uint64_t> table_ =
        std::vector<std::uint64_t>(std::size_t{1} << 22);
};

// ---------------------------------------------------------------- spans

struct Span
{
    std::string name;  ///< layer call, e.g. "sim.replay"
    std::string label; ///< op or query the call served, e.g. "Q3"
    unsigned run;      ///< rep the span belongs to
    int parent;        ///< index of the enclosing span; -1 at top level
    double start, end; ///< seconds since the tracer was created
};

/** In-memory span recorder; a disabled tracer reads no clocks. */
class Tracer
{
  public:
    bool enabled = false;
    unsigned run = 0; ///< stamped on every span opened

    int
    open(const std::string &name, const std::string &label)
    {
        if (!enabled)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, label, run, parent, now(), 0.0});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Span duration minus the time its direct children cover. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        return self;
    }

  private:
    double now() const { return since(t0_); }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, const std::string &label = "")
        : t_(t), id_(t.open(name, label))
    {
    }
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

// ------------------------------------------------------------ op checks

/** Trace-side counts of one op, per processor slot. */
using TraceCounts = std::vector<sim::TraceStream::Counts>;

TraceCounts
countsOf(const harness::TraceSet &traces)
{
    TraceCounts out;
    for (const sim::TraceStream &t : traces)
        out.push_back(t.counts());
    return out;
}

/** Everything one op produced that the checks and metrics read. */
struct OpResult
{
    std::string name;
    std::string report;  ///< obs::toJson(SimStats).dump()
    std::string digest;  ///< FNV-1a of report
    std::string failure; ///< empty = passed every check
    /** Exact values that must repeat across reps at one seed. */
    std::map<std::string, double> exact;
};

/** Numeric member @p key of a report or registry snapshot. */
std::uint64_t
field(const obs::Json &j, const char *key)
{
    const obs::Json *v = j.find(key);
    if (!v || !v->isNumber())
        throw std::runtime_error(std::string("JSON lacks ") + key);
    return v->asUint();
}

/**
 * The invariants that hold for any seed, checked on the op's JSON
 * report (so the report layer is checked too) against its traces.
 * Returns an empty string when all hold.
 */
std::string
checkInvariants(const obs::Json &report, const TraceCounts &traces)
{
    const obs::Json *procs = report.find("procs");
    if (!procs || !procs->isArray())
        return "report has no procs array";
    if (procs->size() < traces.size())
        return "report has fewer procs than traces";
    for (std::size_t p = 0; p < procs->size(); ++p) {
        const obs::Json &ps = procs->at(p);
        const std::string where = "proc" + std::to_string(p) + ": ";
        const std::uint64_t busy = field(ps, "busy");
        const std::uint64_t mem = field(ps, "memStall");
        const std::uint64_t sync = field(ps, "syncStall");
        if (field(ps, "totalCycles") != busy + mem + sync)
            return where + "totalCycles != busy + memStall + syncStall";
        const obs::Json *groups = ps.find("memStallByGroup");
        if (!groups || !groups->isObject())
            return where + "no memStallByGroup";
        std::uint64_t group_sum = 0;
        for (const auto &kv : groups->members())
            group_sum += kv.second.asUint();
        if (group_sum != mem)
            return where + "stall shares do not sum to memStall";
        const sim::TraceStream::Counts c =
            p < traces.size() ? traces[p] : sim::TraceStream::Counts{};
        if (field(ps, "writes") != c.writes + c.lockAcqs)
            return where + "stores != trace writes + lock acquires";
        if (field(ps, "reads") < c.reads)
            return where + "loads < trace reads";
    }
    return "";
}

/** The exact per-op counts every layer metric of the sim is built from. */
void
addSimCounts(std::map<std::string, double> &m, const sim::SimStats &stats)
{
    const sim::ProcStats agg = stats.aggregate();
    std::uint64_t cohe = 0;
    for (std::size_t c = 0; c < sim::kNumDataClasses; ++c)
        cohe += agg.l2Misses().of(static_cast<sim::DataClass>(c),
                                  sim::MissType::Cohe);
    m["sim.l1_misses"] += static_cast<double>(agg.l1Misses().total());
    m["sim.l2_misses"] += static_cast<double>(agg.l2Misses().total());
    m["sim.l2_cohe_misses"] += static_cast<double>(cohe);
    m["sim.dir_txns"] += static_cast<double>(agg.hopsTotal());
    m["sim.dir_txns_3hop"] += static_cast<double>(agg.hopsOfClass(2));
    m["sim.wb_overflows"] += static_cast<double>(agg.wbOverflows);
    m["sim.sync_stall_cycles"] += static_cast<double>(agg.syncStall);
    m["sim.mem_stall_cycles"] += static_cast<double>(agg.memStall);
    m["sim.cycles"] += static_cast<double>(stats.executionTime());
    m["sim.loads"] += static_cast<double>(agg.reads);
    m["sim.stores"] += static_cast<double>(agg.writes);
}

/** Granted metalock acquires: uncontended ones plus waiter handoffs. */
double
lockAcquires(const obs::Json &snapshot)
{
    return static_cast<double>(field(snapshot, "locks.acquires") +
                               field(snapshot, "locks.handoffs"));
}

// ------------------------------------------------------------ workloads

/** One rep: its wall time and every op it ran. */
struct Rep
{
    double wall = 0.0;   ///< host seconds of the rep's work, probes excluded
    double probing = 0.0; ///< host seconds of the probes run inside the rep
    bool traced = false;
    std::vector<OpResult> ops;
    /** Exact rep-level values (capture and stream accounting). */
    std::map<std::string, double> exact;
    /** Replayed trace entries per query, for ns/entry. */
    std::map<std::string, double> replayEntries;
};

struct Context
{
    std::string workload;
    std::uint64_t seed = 0;
    sim::MachineConfig cfg = sim::machinePreset("paper1997").config;
    harness::Workload *wl = nullptr;
    Tracer tracer;
    HostProbe probe;
    std::vector<double> probes; ///< every probe time of the run
};

/** Runs the host probe once, records its time and returns it. */
double
probeHost(Context &ctx)
{
    Scope s(ctx.tracer, "driver.probe");
    ctx.probes.push_back(ctx.probe.run());
    return ctx.probes.back();
}

/** Replay, report and check one query's trace set on the baseline
 * machine. */
OpResult
simulateOp(Context &ctx, Rep &rep, const std::string &query,
           const harness::TraceSet &traces)
{
    OpResult op;
    op.name = query;
    sim::SimStats stats;
    obs::Json registry;
    {
        Scope s(ctx.tracer, "sim.replay", query);
        stats = harness::runCold(ctx.cfg, traces, nullptr, nullptr,
                                 &registry);
    }
    const TraceCounts counts = countsOf(traces);
    std::uint64_t entries = 0, trace_acqs = 0;
    for (const sim::TraceStream &t : traces)
        entries += t.size();
    for (const auto &c : counts)
        trace_acqs += c.lockAcqs;
    rep.replayEntries[query] += static_cast<double>(entries);

    obs::Json report;
    std::string text;
    {
        Scope s(ctx.tracer, "obs.report", query);
        report = obs::toJson(stats);
        text = report.dump();
    }
    op.digest = hex(fnv1a(text));
    op.report = std::move(text);
    op.exact["obs.report_bytes"] = static_cast<double>(op.report.size());
    addSimCounts(op.exact, stats);
    op.exact["sim.lock_acquires"] = lockAcquires(registry);
    op.failure = checkInvariants(report, counts);
    if (op.failure.empty() &&
        op.exact["sim.lock_acquires"] != static_cast<double>(trace_acqs))
        op.failure = "lock acquires != trace LockAcq entries";
    return op;
}

harness::TraceSet
capture(Context &ctx, Rep &rep, tpcd::QueryId q)
{
    const std::string name = tpcd::queryName(q);
    harness::TraceSet traces;
    {
        Scope s(ctx.tracer, "db.capture", name);
        traces = ctx.wl->trace(q, ctx.seed);
    }
    double entries = 0;
    for (const sim::TraceStream &t : traces)
        entries += static_cast<double>(t.size());
    rep.exact["db.trace_entries"] += entries;
    return traces;
}

/** Fig 6/7/taxonomy path: capture, cold replay, report per query. */
void
runColdPaper(Context &ctx, Rep &rep)
{
    for (tpcd::QueryId q : kPaperQueries) {
        const std::string name = tpcd::queryName(q);
        try {
            const harness::TraceSet traces = capture(ctx, rep, q);
            rep.ops.push_back(simulateOp(ctx, rep, name, traces));
        } catch (const std::exception &e) {
            rep.ops.push_back({name, "", "", e.what(), {}});
        }
    }
}

/** Closed loop, kStreamClients clients, default Q3:Q6:Q12 = 1:1:1 mix. */
sched::StreamConfig
streamConfig(std::uint64_t stream_seed)
{
    sched::StreamConfig sc;
    sc.instances = kStreamInstances;
    sc.seed = stream_seed;
    sc.mode = sched::ArrivalMode::Closed;
    sc.clients = kStreamClients;
    return sc;
}

/** One closed-loop stream on one warm machine, with its own trace
 * cache; its ops are named "<prefix>instance<id>". */
void
runStream(Context &ctx, Rep &rep, std::uint64_t stream_seed,
          const std::string &prefix)
{
    const sched::StreamConfig sc = streamConfig(stream_seed);

    sched::TraceCache cache;
    obs::Json registry;
    harness::RunOptions opts;
    opts.registrySnapshot = &registry;
    sched::StreamResult result;
    try {
        Scope s(ctx.tracer, "sched.run", prefix);
        sched::StreamScheduler scheduler(*ctx.wl, ctx.cfg, sc, opts, &cache);
        result = scheduler.run();
    } catch (const std::exception &e) {
        for (unsigned i = 0; i < sc.instances; ++i)
            rep.ops.push_back({prefix + "instance" + std::to_string(i), "",
                               "", e.what(), {}});
        return;
    }

    const std::size_t generated = sched::makeInstances(sc).size();
    std::vector<bool> seen(generated, false);
    for (const sched::InstanceRecord &r : result.records) {
        OpResult op;
        op.name = prefix + "instance" + std::to_string(r.inst.id);
        obs::Json report;
        std::string text;
        {
            Scope s(ctx.tracer, "obs.report", op.name);
            report = obs::toJson(r.stats);
            text = report.dump();
        }
        op.digest = hex(fnv1a(text));
        op.exact["obs.report_bytes"] = static_cast<double>(text.size());
        op.exact["sched.latency_cycles"] = static_cast<double>(r.latency);
        op.exact["sched.cache_hit"] = r.cacheHit ? 1.0 : 0.0;
        addSimCounts(op.exact, r.stats);

        const sim::TraceStream *stream =
            cache.lookup({r.inst.query, r.inst.paramSeed, r.proc});
        TraceCounts counts(r.proc + 1);
        if (stream)
            counts[r.proc] = stream->counts();
        if (!stream)
            op.failure = "trace missing from the cache";
        else if (r.outcome != sched::Outcome::Ok)
            op.failure = "instance did not complete";
        else if (r.inst.id >= generated || seen[r.inst.id])
            op.failure = "instance id out of range or repeated";
        else {
            try {
                op.failure = checkInvariants(report, counts);
            } catch (const std::exception &e) {
                op.failure = e.what();
            }
        }
        if (r.inst.id < generated)
            seen[r.inst.id] = true;
        rep.ops.push_back(std::move(op));
    }
    // Instances generated but never resolved are failed ops too.
    for (std::size_t i = 0; i < generated; ++i)
        if (!seen[i])
            rep.ops.push_back({prefix + "instance" + std::to_string(i), "",
                               "", "instance never resolved", {}});

    // Hit ratio from this cache's own lookups (a fresh cache per stream,
    // so no stream inherits another's hits).
    const sched::TraceCache::Stats &cs = cache.stats();
    const double completed =
        static_cast<double>(field(registry, "sched.completed"));
    rep.exact["sched.cache_hits"] += static_cast<double>(cs.hits);
    rep.exact["sched.cache_lookups"] +=
        static_cast<double>(cs.hits + cs.misses);
    rep.exact["sched.captures"] += static_cast<double>(cs.misses);
    rep.exact["sched.completed"] += completed;
    rep.exact["sched.queue_peak"] =
        std::max(rep.exact["sched.queue_peak"],
                 static_cast<double>(field(registry, "sched.queue_peak")));
    rep.exact["sched.latency_p95_cycles"] =
        std::max(rep.exact["sched.latency_p95_cycles"], result.latency.p95);
    rep.exact["sched.instances"] += static_cast<double>(generated);
    rep.exact["db.trace_entries"] += static_cast<double>(cs.traceEntries);
    rep.exact["sim.lock_acquires"] += lockAcquires(registry);
    if (completed != static_cast<double>(generated) && !rep.ops.empty() &&
        rep.ops.back().failure.empty())
        rep.ops.back().failure = "completed instances != generated";
}

/**
 * The seed of stream @p k of a run: the first seed in (run seed, k)'s own
 * range whose instances hold every query of the mix equally often. A
 * free draw of a rep's 72 instances moves its Q12 count by about +-4
 * (+-17%), and Q12 is the costliest query, so a rep's work would swing
 * with the run seed; fixing the realised mix leaves the parameters and
 * the order of the queries to the seed.
 */
std::uint64_t
balancedStreamSeed(std::uint64_t seed, unsigned k)
{
    static_assert(kStreamInstances % 3 == 0, "Q3:Q6:Q12 is a 1:1:1 mix");
    const std::uint64_t base = (seed * kStreams + k) << 20;
    for (std::uint64_t j = 0; j < (1u << 20); ++j) {
        const sched::StreamConfig sc = streamConfig(base + j);
        std::map<tpcd::QueryId, unsigned> count;
        for (const sched::QueryInstance &i : sched::makeInstances(sc))
            ++count[i.query];
        if (count.size() == sc.mix.size() &&
            std::all_of(count.begin(), count.end(), [&](const auto &kv) {
                return kv.second == count.begin()->second;
            }))
            return sc.seed;
    }
    throw std::runtime_error("no stream seed realises the mix");
}

/**
 * kStreams independent streams, seeded by balancedStreamSeed. One stream
 * seed fixes a pool of only paramVariants parameter sets per query, so
 * a single stream's cost swings with its seed; several streams per rep
 * average that out.
 */
void
runStreamClosed(Context &ctx, Rep &rep)
{
    for (unsigned k = 0; k < kStreams; ++k) {
        // A probe between streams samples the host's speed across the
        // rep, not only at its start.
        rep.probing += probeHost(ctx);
        runStream(ctx, rep, balancedStreamSeed(ctx.seed, k),
                  "s" + std::to_string(k) + ".");
    }
    const double lookups = rep.exact["sched.cache_lookups"];
    rep.exact["sched.cache_hit_ratio"] =
        lookups > 0 ? rep.exact["sched.cache_hits"] / lookups : 0.0;
}

void
runRep(Context &ctx, Rep &rep)
{
    if (ctx.workload == "cold-paper")
        runColdPaper(ctx, rep);
    else
        runStreamClosed(ctx, rep);
}

// ------------------------------------------------------- reference file

obs::Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return obs::Json::parse(ss.str());
}

/** Reference digests of @p workload, op name -> digest. */
std::map<std::string, std::string>
loadReference(const std::string &path, const std::string &workload)
{
    std::map<std::string, std::string> out;
    const obs::Json ref = readJsonFile(path);
    const obs::Json *seed = ref.find("seed");
    if (!seed || seed->asUint() != kReferenceSeed)
        throw std::runtime_error(path + ": reference seed mismatch");
    const obs::Json *wls = ref.find("workloads");
    const obs::Json *ops = wls ? wls->find(workload) : nullptr;
    if (!ops)
        throw std::runtime_error(path + ": no reference for " + workload);
    for (const auto &kv : ops->members())
        out[kv.first] = kv.second.asString();
    return out;
}

void
recordReference(const std::string &path, const std::string &workload,
                const Rep &rep)
{
    obs::Json ref = obs::Json::object();
    if (std::ifstream(path))
        ref = readJsonFile(path);
    ref["seed"] = obs::Json(static_cast<std::uint64_t>(kReferenceSeed));
    obs::Json ops = obs::Json::object();
    for (const OpResult &op : rep.ops)
        ops[op.name] = obs::Json(op.digest);
    obs::Json wls = ref.find("workloads") ? *ref.find("workloads")
                                          : obs::Json::object();
    wls[workload] = std::move(ops);
    ref["workloads"] = std::move(wls);
    std::ofstream out(path);
    ref.dump(out, 2);
    out << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------ accuracy table

const obs::Json *
baselineRun(const obs::Json &baseline, const std::string &label)
{
    const obs::Json *runs = baseline.find("runs");
    if (!runs)
        return nullptr;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const obs::Json *l = runs->at(i).find("label");
        if (l && l->asString() == label)
            return runs->at(i).find("stats");
    }
    return nullptr;
}

std::string
pctOf(const obs::Json *stats, const char *block, const char *key)
{
    const obs::Json *b = stats ? stats->find(block) : nullptr;
    const obs::Json *v = b ? b->find(key) : nullptr;
    if (!v || !v->isNumber())
        return "n/a";
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.1f", v->asDouble());
    return buf;
}

/** Simulated-vs-paper table for cold-paper (Fig 6a/6b), from @p rep's
 * per-query reports. */
void
printAccuracy(std::uint64_t seed, const Rep &rep,
              const std::string &baseline_path, std::ostream &os)
{
    std::optional<obs::Json> baseline;
    try {
        baseline = readJsonFile(baseline_path);
    } catch (const std::exception &) {
        // The table then shows n/a in the baseline columns.
    }
    os << "accuracy: simulated vs paper (Fig 6; the model is not validated "
          "against hardware)\n"
       << "  paper's stated ranges: Busy 50-70%, Mem 30-35%; Fig 6b: Q3's "
          "shared stall mostly Index+Metadata, Q6/Q12's mostly Data, Priv "
          "roughly even\n"
       << "  sim = this run (seed " << seed << "); base = "
       << baseline_path << " (db seed 42, params 1)\n"
       << "  query  Busy% sim/base  Mem% sim/base  MSync% sim/base  "
          "Data%  Index%  Metadata%  Priv%  (sim/base)\n";
    for (const OpResult &op : rep.ops) {
        if (op.report.empty())
            continue;
        const std::string &name = op.name;
        const obs::Json sim = obs::Json::parse(op.report);
        const obs::Json *base =
            baseline ? baselineRun(*baseline, name) : nullptr;
        auto pair = [&](const char *block, const char *key) {
            return pctOf(&sim, block, key) + "/" + pctOf(base, block, key);
        };
        os << "  " << name << "  " << pair("breakdown", "busyPct") << "  "
           << pair("breakdown", "memPct") << "  "
           << pair("breakdown", "msyncPct") << "  "
           << pair("memByGroupPct", "Data") << "  "
           << pair("memByGroupPct", "Index") << "  "
           << pair("memByGroupPct", "Metadata") << "  "
           << pair("memByGroupPct", "Priv") << '\n';
    }
}

// ------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
writeSpans(const std::string &path, const Context &ctx)
{
    const std::vector<Span> &spans = ctx.tracer.spans();
    const std::vector<double> self = ctx.tracer.selfTimes();
    obs::Json arr = obs::Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        obs::Json j = obs::Json::object();
        j["id"] = obs::Json(static_cast<std::uint64_t>(i));
        j["name"] = obs::Json(s.name);
        j["label"] = obs::Json(s.label);
        j["run"] = obs::Json(s.run);
        j["parent"] = obs::Json(s.parent);
        j["start_s"] = obs::Json(s.start);
        j["end_s"] = obs::Json(s.end);
        j["self_s"] = obs::Json(self[i]);
        arr.push(std::move(j));
    }
    obs::Json out = obs::Json::object();
    out["workload"] = obs::Json(ctx.workload);
    out["seed"] = obs::Json(static_cast<std::uint64_t>(ctx.seed));
    out["spans"] = std::move(arr);
    std::ofstream f(path);
    out.dump(f, 1);
    f << '\n';
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

/** Per-layer metrics of one traced rep, from its spans. */
std::map<std::string, double>
layerTimes(const Context &ctx, const Rep &rep, unsigned run)
{
    std::map<std::string, double> t;
    const std::vector<Span> &spans = ctx.tracer.spans();
    const std::vector<double> self = ctx.tracer.selfTimes();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.run != run || s.name == "driver.setup" ||
            s.name == "tpcd.build" || s.name == "driver.probe")
            continue;
        const double d = s.end - s.start;
        if (s.name == "driver.rep") {
            t["driver.self_s"] += self[i];
            continue;
        }
        t[s.name + "_s"] += d;
        if (s.name == "sim.replay")
            t["sim.replay_s." + s.label] += d;
    }
    auto per_entry = [&](const std::string &secs, double entries) {
        return entries > 0 ? t[secs] * 1e9 / entries : 0.0;
    };
    double replayed = 0;
    for (const auto &kv : rep.replayEntries)
        replayed += kv.second;
    const auto captured = rep.exact.find("db.trace_entries");
    t["db.capture_ns_per_entry"] = per_entry(
        "db.capture_s", captured == rep.exact.end() ? 0.0 : captured->second);
    t["sim.replay_ns_per_entry"] = per_entry("sim.replay_s", replayed);
    for (tpcd::QueryId q : kPaperQueries) {
        const std::string n = tpcd::queryName(q);
        const auto it = rep.replayEntries.find(n);
        t["sim.replay_ns_per_entry." + n] =
            per_entry("sim.replay_s." + n,
                      it == rep.replayEntries.end() ? 0.0 : it->second);
    }
    return t;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10;
    bool trace = false;
    bool record = false;
    std::string reference = "hostbench/reference.json";
    std::string baseline = "BENCH_baseline.json";
    std::string spans = "hostbench-spans.json";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(f + " needs a value");
            return argv[++i];
        };
        if (f == "--workload")
            a.workload = value();
        else if (f == "--seed")
            a.seed = std::stoull(value());
        else if (f == "--seconds")
            a.seconds = std::stod(value());
        else if (f == "--trace")
            a.trace = std::stoi(value()) != 0;
        else if (f == "--record")
            a.record = true;
        else if (f == "--reference")
            a.reference = value();
        else if (f == "--baseline")
            a.baseline = value();
        else if (f == "--spans")
            a.spans = value();
        else
            throw std::invalid_argument("unknown flag " + f);
    }
    if (a.workload != "cold-paper" && a.workload != "stream-closed")
        throw std::invalid_argument("unknown --workload '" + a.workload +
                                    "'");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

int
run(const Args &args)
{
    Context ctx;
    ctx.workload = args.workload;
    ctx.seed = args.seed;
    ctx.tracer.enabled = args.trace;

    std::map<std::string, std::string> reference;
    const bool check_reference = args.seed == kReferenceSeed && !args.record;
    if (check_reference)
        reference = loadReference(args.reference, args.workload);

    // Every rep runs on a freshly built database: Workload::trace draws
    // fresh transaction ids per call, so only a fresh build makes a rep's
    // captures a pure function of the seed. The last of the builds is
    // kept; setup_s is the median of all of them.
    // Under --trace 1 the reps alternate untraced/traced. A rep starts
    // only if, at the length of the last one, it ends within half a rep
    // of --seconds, so a run lasts about --seconds.
    const unsigned builds_per_rep = args.workload == "cold-paper"
                                        ? kColdBuildsPerRep
                                        : kStreamBuildsPerRep;
    std::vector<double> setups;
    std::vector<Rep> reps;
    std::optional<harness::Workload> wl;
    const auto measure0 = Clock::now();
    double last_rep = 0.0; // seconds of the last rep, builds included
    while (reps.size() < kMinReps ||
           since(measure0) + 0.5 * last_rep < args.seconds) {
        const auto rep0 = Clock::now();
        Rep rep;
        rep.traced = args.trace && reps.size() % 2 == 1;
        ctx.tracer.enabled = rep.traced;
        ctx.tracer.run = static_cast<unsigned>(reps.size());
        for (unsigned b = 0; b < builds_per_rep; ++b) {
            wl.reset();
            probeHost(ctx);
            Scope top(ctx.tracer, "driver.setup");
            const auto t0 = Clock::now();
            {
                Scope s(ctx.tracer, "tpcd.build");
                wl.emplace(tpcd::ScaleConfig::paperScale(), kNprocs,
                           args.seed);
            }
            setups.push_back(since(t0));
        }
        ctx.wl = &*wl;
        const auto t0 = Clock::now();
        {
            Scope top(ctx.tracer, "driver.rep", ctx.workload);
            runRep(ctx, rep);
        }
        rep.wall = since(t0) - rep.probing;
        reps.push_back(std::move(rep));
        last_rep = since(rep0);
    }
    ctx.tracer.enabled = false;

    if (args.record) {
        recordReference(args.reference, args.workload, reps.front());
        std::cerr << "hostbench: recorded " << reps.front().ops.size()
                  << " digests for " << args.workload << " in "
                  << args.reference << '\n';
    }

    // Checks: invariants (already on each op), repeatability against
    // rep 0, reference digests at the reference seed.
    std::uint64_t attempted = 0, failed = 0;
    const Rep &first = reps.front();
    for (const Rep &rep : reps) {
        const bool same_rep_counts = rep.exact == first.exact;
        for (std::size_t i = 0; i < rep.ops.size(); ++i) {
            const OpResult &op = rep.ops[i];
            std::string why = op.failure;
            if (why.empty() && !same_rep_counts)
                why = "rep-level counts differ from the first rep";
            if (why.empty() &&
                (i >= first.ops.size() || first.ops[i].name != op.name ||
                 first.ops[i].digest != op.digest ||
                 first.ops[i].exact != op.exact))
                why = "output differs from the first rep (determinism)";
            if (why.empty() && check_reference) {
                const auto it = reference.find(op.name);
                if (it == reference.end() || it->second != op.digest)
                    why = "digest differs from the reference";
            }
            ++attempted;
            if (!why.empty()) {
                ++failed;
                std::cerr << "hostbench: FAILED " << op.name << ": " << why
                          << '\n';
            }
        }
    }

    if (args.workload == "cold-paper")
        printAccuracy(args.seed, reps.front(), args.baseline, std::cout);

    // Exact counts of one rep (identical across reps when nothing failed).
    std::map<std::string, double> counts = first.exact;
    for (const OpResult &op : first.ops)
        for (const auto &kv : op.exact)
            counts[kv.first] += kv.second;

    // Host times are reported at the reference host speed (HostProbe).
    const double probe_s = median(ctx.probes);
    const double speed = kProbeReferenceS / probe_s;
    std::vector<double> walls, traced_walls, rates;
    const double accesses = counts["sim.loads"] + counts["sim.stores"];
    for (const Rep &rep : reps) {
        (rep.traced ? traced_walls : walls).push_back(rep.wall);
        if (!rep.traced)
            rates.push_back(accesses / (rep.wall * speed));
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"wall_s", median(walls) * speed, "s"},
            {"accesses_per_s", median(rates), "1/s"},
            {"setup_s", median(setups) * speed, "s"},
            {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
             "MB"},
        };
    } else {
        std::map<std::string, std::vector<double>> per_rep;
        for (unsigned i = 0; i < reps.size(); ++i)
            if (reps[i].traced)
                for (const auto &kv : layerTimes(ctx, reps[i], i))
                    per_rep[kv.first].push_back(kv.second);
        auto layer = [&](const std::string &n) { return median(per_rep[n]); };
        std::vector<double> builds;
        for (const Span &s : ctx.tracer.spans())
            if (s.name == "tpcd.build")
                builds.push_back(s.end - s.start);
        const double untraced = median(walls);
        metrics = {
            {"tpcd.build_s", median(builds), "s"},
            {"db.capture_s", layer("db.capture_s"), "s"},
            {"db.capture_ns_per_entry", layer("db.capture_ns_per_entry"),
             "ns"},
            {"db.trace_entries", counts["db.trace_entries"], "count"},
            {"sim.replay_s", layer("sim.replay_s"), "s"},
            {"sim.replay_ns_per_entry", layer("sim.replay_ns_per_entry"),
             "ns"},
            {"sim.replay_ns_per_entry.Q3",
             layer("sim.replay_ns_per_entry.Q3"), "ns"},
            {"sim.replay_ns_per_entry.Q6",
             layer("sim.replay_ns_per_entry.Q6"), "ns"},
            {"sim.replay_ns_per_entry.Q12",
             layer("sim.replay_ns_per_entry.Q12"), "ns"},
        };
        for (const char *n :
             {"sim.l1_misses", "sim.l2_misses", "sim.l2_cohe_misses",
              "sim.dir_txns", "sim.dir_txns_3hop", "sim.wb_overflows",
              "sim.sync_stall_cycles", "sim.lock_acquires",
              "sim.mem_stall_cycles", "sim.cycles", "sim.loads",
              "sim.stores"})
            metrics.push_back({n, counts[n],
                               std::string(n).find("cycles") !=
                                       std::string::npos
                                   ? "cycles"
                                   : "count"});
        metrics.push_back({"obs.report_s", layer("obs.report_s"), "s"});
        metrics.push_back(
            {"obs.report_bytes", counts["obs.report_bytes"], "bytes"});
        metrics.push_back({"sched.run_s", layer("sched.run_s"), "s"});
        for (const char *n : {"sched.cache_lookups", "sched.captures",
                              "sched.completed", "sched.queue_peak"})
            metrics.push_back({n, counts[n], "count"});
        metrics.push_back(
            {"sched.cache_hit_ratio", counts["sched.cache_hit_ratio"],
             "ratio"});
        metrics.push_back({"sched.latency_p95_cycles",
                           counts["sched.latency_p95_cycles"], "cycles"});
        metrics.push_back({"driver.self_s", layer("driver.self_s"), "s"});
        metrics.push_back({"host.probe_s", probe_s, "s"});
        metrics.push_back(
            {"trace.overhead_pct",
             untraced > 0 ? 100.0 * (median(traced_walls) / untraced - 1.0)
                          : 0.0,
             "%"});
        writeSpans(args.spans, ctx);
        std::cout << "spans: " << ctx.tracer.spans().size() << " written to "
                  << args.spans << '\n';
    }

    std::cout << "workload " << args.workload << ", seed " << args.seed
              << ", " << reps.size() << " reps ("
              << traced_walls.size() << " traced), " << setups.size()
              << " set-ups\n  rep walls (s):";
    for (const Rep &rep : reps)
        std::cout << ' ' << std::setprecision(4) << rep.wall
                  << (rep.traced ? "t" : "");
    std::cout << "\n  unscaled medians: wall " << std::setprecision(4)
              << median(walls) << " s, setup " << median(setups)
              << " s; host probe " << probe_s << " s against "
              << kProbeReferenceS << " s\n";
    std::cout << std::setprecision(12);
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit
                  << '\n';
    std::cout << "  ops_failed/ops_total = " << failed << '/' << attempted
              << " ops\n";

    obs::Json mj = obs::Json::object();
    for (const Metric &m : metrics) {
        obs::Json v = obs::Json::object();
        const bool whole = (m.unit == "count" || m.unit == "cycles" ||
                            m.unit == "bytes") &&
                           m.value == std::floor(m.value);
        v["value"] = whole ? obs::Json(static_cast<std::uint64_t>(m.value))
                           : obs::Json(m.value);
        v["unit"] = obs::Json(m.unit);
        mj[m.name] = std::move(v);
    }
    obs::Json result = obs::Json::object();
    result["correct"] = obs::Json(failed == 0);
    result["attempted"] = obs::Json(attempted);
    result["failed"] = obs::Json(failed);
    result["metrics"] = std::move(mj);
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << '\n';
        return 2;
    }
}
