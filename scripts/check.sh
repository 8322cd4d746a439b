#!/usr/bin/env bash
# Tier-1 check: configure, build, and run the full test suite.
#
# Usage: scripts/check.sh [--sanitize=thread|address|undefined] [--chaos]
#                         [--placement] [--memprof] [--stream]
#                         [--resilience] [--machine] [--verify] [--lint]
#                         [build-dir]
#
# --sanitize builds into a separate build directory (build-tsan/,
# build-asan/ or build-ubsan/) with -DSIM_SANITIZE set and runs only the
# machine, coherence and metalock-table tests there — the interleaving-heavy
# subset — so the instrumented build never pollutes the normal one and
# stays fast enough for routine use.
#
# --chaos runs the robustness gauntlet: TSan and ASan builds over the
# fault-injection, invariant-checker and machine suites, plus the
# chaos_fault_sweep bench at tiny scale (nonzero fault rates, checker
# on, exit 1 on any violation) and the placement-policy sweep under the
# checker.
#
# --placement runs the NUMA placement checks: the placement unit tests,
# the 4-policy x Q3/Q6/Q12 sweep under the invariant checker, fig6's
# first-touch cycles against that sweep's first-touch rows (each cold run
# owns its policy, so no page claim leaks between runs), and
# chaos_fault_sweep under interleave vs first-touch with the same fault
# seed — the injected fault/retry schedule must be byte-identical
# (FaultPlan keys on trace positions, never on page homes).
#
# --memprof runs the line-level memory-profiler checks: the memprof unit
# tests, report_memprof over Q3/Q6/Q12 at tiny scale, JSON schema
# validation of the profile block, each profile's totals against the
# machine counters of its run, the per-processor
# cohe == cohe.true + cohe.false counter invariant, and byte-identity
# of the JSON report across two identical runs.
#
# --stream runs the query-stream scheduler checks: the sched unit,
# property, fuzz and golden tests, then throughput_stream at tiny scale
# twice with JSON output, validating the stream report schema and
# asserting the whole sweep (points, summaries, registry snapshots) is
# bit-identical between the two runs. The chaos gauntlet also runs
# these under each sanitizer.
#
# --resilience runs the stream-resilience checks: the resilience unit,
# breaker, outage-table, scheduler and golden tests, then the
# resilience_sweep bench at tiny scale with JSON output and the invariant
# checker attached to every run (zero violations), validating the
# SLO accounting schema, outcome conservation at every swept point,
# breaker trip + recovery in the failure-window scenario, and
# byte-identity of the JSON report across two identical runs. The chaos
# gauntlet also runs these under each sanitizer.
#
# --machine runs the machine-spec checks: the hierarchy/spec unit tests,
# `--machine list` preset discovery, byte-identity of the default report
# against an explicit `--machine paper1997` (the spec layer must be
# invisible to the goldens), the modern three-level preset over
# Q3/Q6/Q12 under the invariant checker with per-level counter
# reconciliation, a machine-spec *file* (written on the spot) driving
# a bench end to end, and Fig 12's cache-size point on the modern
# three-level chain. The chaos gauntlet also runs these under each
# sanitizer.
#
# --verify runs the explicit-state protocol model checker
# (bench/verify_protocol, src/verify/): the canonicalization/symmetry
# and mutant-soundness unit tests, then exhaustive 2-proc x 2-line
# searches on both machine presets (paper1997 and modern) that must find
# zero invariant violations, a mutant sweep in which the checker must
# catch all four injected protocol bugs, and a bit-identity check of the
# JSON report across repeated runs. The chaos gauntlet runs these too.
#
# --lint runs the static gates: scripts/determinism_lint.py over the
# deterministic core (src/sim/, src/sched/) and, when clang-tidy is
# installed, clang-tidy with the repo .clang-tidy config (warnings are
# errors) over src/ using the build tree's compile_commands.json. A
# missing clang-tidy binary skips that half with a notice — the
# determinism lint always runs. The chaos gauntlet runs these too.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize=""
chaos=0
placement=0
memprof=0
stream=0
resilience=0
machine=0
verify=0
lint=0
build=""

for arg in "$@"; do
    case "$arg" in
        --sanitize=thread|--sanitize=address|--sanitize=undefined)
            sanitize="${arg#--sanitize=}"
            ;;
        --sanitize*)
            echo "check.sh: unknown sanitizer in '$arg'" \
                 "(thread, address, undefined)" >&2
            exit 2
            ;;
        --chaos)
            chaos=1
            ;;
        --placement)
            placement=1
            ;;
        --memprof)
            memprof=1
            ;;
        --stream)
            stream=1
            ;;
        --resilience)
            resilience=1
            ;;
        --machine)
            machine=1
            ;;
        --verify)
            verify=1
            ;;
        --lint)
            lint=1
            ;;
        -*)
            echo "check.sh: unknown option '$arg'" >&2
            exit 2
            ;;
        *)
            build="$arg"
            ;;
    esac
done

short_of() {
    case "$1" in
        thread) echo tsan ;;
        address) echo asan ;;
        undefined) echo ubsan ;;
    esac
}

# Query-stream scheduler checks against an existing build dir: the sched
# unit/property/fuzz/golden tests, then the throughput_stream bench run
# twice, validating the JSON schema, the latency algebra of every
# record, and rerun bit-identity of the full sweep.
stream_checks() {
    local dir="$1"
    local filter='Percentile.*:LatencySummary.*:StreamModel.*'
    filter+=':TraceCacheUnit.*:SchedSim.*:StreamFuzz.*:GoldenStats.Stream*'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    local first_json="$dir/stream_check_first.json"
    local rerun_json="$dir/stream_check_rerun.json"
    "$dir/bench/throughput_stream" --scale tiny --stream 8 \
        --json "$first_json" > /dev/null
    "$dir/bench/throughput_stream" --scale tiny --stream 8 \
        --json "$rerun_json" > /dev/null

    python3 - "$first_json" "$rerun_json" <<'PYSTREAM'
import json, sys

seq = json.load(open(sys.argv[1]))
rerun = json.load(open(sys.argv[2]))

def fail(msg):
    sys.stderr.write("check.sh: stream: %s\n" % msg)
    sys.exit(1)

points = seq.get("points")
if not isinstance(points, list) or not points:
    fail("no stream points in %s" % sys.argv[1])
for pt in points:
    for key in ("label", "nprocs", "config", "summary", "cache",
                "records", "registry"):
        if key not in pt:
            fail("point %r lacks '%s'" % (pt.get("label"), key))
    summ = pt["summary"]
    for key in ("instances", "makespan", "throughput_per_mcycle",
                "latency", "wait", "service", "by_query"):
        if key not in summ:
            fail("%s summary lacks '%s'" % (pt["label"], key))
    for dist in ("latency", "wait", "service"):
        for key in ("count", "mean", "p50", "p95", "p99", "max"):
            if key not in summ[dist]:
                fail("%s %s lacks '%s'" % (pt["label"], dist, key))
    if summ["instances"] != len(pt["records"]):
        fail("%s record count != summary instances" % pt["label"])
    for rec in pt["records"]:
        for key in ("id", "query", "param_seed", "proc", "arrival",
                    "start", "complete", "service", "wait", "latency",
                    "trace_hash"):
            if key not in rec:
                fail("%s record lacks '%s'" % (pt["label"], key))
        if rec["complete"] != rec["start"] + rec["service"]:
            fail("%s: complete != start + service" % pt["label"])
        if rec["latency"] != rec["complete"] - rec["arrival"]:
            fail("%s: latency != complete - arrival" % pt["label"])
    reg = pt["registry"]
    if reg.get("sched.completed") != summ["instances"]:
        fail("%s: sched.completed counter mismatch" % pt["label"])
    cache = pt["cache"]
    if cache["enabled"] and cache["hits"] + cache["misses"] == 0:
        fail("%s: enabled cache never consulted" % pt["label"])

cv = seq.get("cache_validation")
if not cv or not cv.get("bit_identical"):
    fail("cache validation block missing or not bit-identical")

# The whole sweep must reproduce bit for bit. (The cache_validation
# block carries host wall-clock seconds, so only the points compare.)
if json.dumps(seq["points"]) != json.dumps(rerun["points"]):
    fail("stream sweep differs between two identical runs")

print("check.sh: stream schema, latency algebra and rerun"
      " bit-identity OK")
PYSTREAM
}

# Stream-resilience checks against an existing build dir: the resilience
# unit/property/scheduler/golden tests, then the resilience_sweep bench
# (whose own per-point invariants — bounded queues, conservation,
# breaker recovery — make its exit code a verdict) run twice under
# --check, validating the JSON SLO schema, the failure-window scenario,
# the checker's presence in every run and byte-identity of the two
# reports.
resilience_checks() {
    local dir="$1"
    local filter='ShedPolicyModel.*:ResilienceConfigModel.*'
    filter+=':ShedVictimModel.*:CircuitBreakerModel.*:OutageTableModel.*'
    filter+=':ResilienceSim.*:GoldenStats.StreamResilience*'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    local out_json="$dir/resilience_check.json"
    local rerun_json="$dir/resilience_check_rerun.json"
    "$dir/bench/resilience_sweep" --scale tiny --check \
        --json "$out_json" > /dev/null
    "$dir/bench/resilience_sweep" --scale tiny --check \
        --json "$rerun_json" > /dev/null
    if ! cmp -s "$out_json" "$rerun_json"; then
        echo "check.sh: resilience: JSON report differs between two" \
             "identical runs" >&2
        exit 1
    fi

    python3 - "$out_json" <<'PYRES'
import json, sys

doc = json.load(open(sys.argv[1]))

def fail(msg):
    sys.stderr.write("check.sh: resilience: %s\n" % msg)
    sys.exit(1)

points = doc.get("points")
if not isinstance(points, list) or not points:
    fail("no sweep points in %s" % sys.argv[1])
slo_keys = ("submitted", "goodput", "timeouts", "shed_queue",
            "shed_breaker", "shed_expired", "abandoned", "migrations")
for pt in points:
    label = pt.get("label")
    res = pt.get("resilience")
    if not isinstance(res, dict):
        fail("%s lacks a resilience block" % label)
    for key in ("config", "slo", "latency", "breaker", "outages",
                "degraded_cycles"):
        if key not in res:
            fail("%s resilience block lacks '%s'" % (label, key))
    total = res["slo"]["total"]
    for key in slo_keys:
        if key not in total:
            fail("%s slo total lacks '%s'" % (label, key))
    resolved = (total["goodput"] + total["timeouts"] +
                total["shed_queue"] + total["shed_breaker"] +
                total["shed_expired"] + total["abandoned"])
    if resolved != total["submitted"]:
        fail("%s outcomes (%d) do not sum to submitted (%d)"
             % (label, resolved, total["submitted"]))
    if total["goodput"] == 0:
        fail("%s goodput collapsed to zero" % label)
    by_class = res["slo"]["by_class"]
    if sum(c["submitted"] for c in by_class.values()) != total["submitted"]:
        fail("%s per-class submitted does not sum to total" % label)
    if pt["rate"] == 0 and res["outages"]:
        fail("%s reports outages at fault rate 0" % label)
    if pt["rate"] == 0 and res["degraded_cycles"] != 0:
        fail("%s reports degraded cycles at fault rate 0" % label)

bl = doc.get("breaker_lifecycle")
if not isinstance(bl, dict):
    fail("no breaker_lifecycle scenario block")
br = bl["resilience"]["breaker"]
if br["trips"] == 0 or br["recoveries"] == 0:
    fail("breaker scenario: trips=%d recoveries=%d — the life cycle was"
         " not exercised" % (br["trips"], br["recoveries"]))
if not bl["resilience"]["outages"]:
    fail("breaker scenario saw no outages")

# --check must reach the runs: the checker's counters land in every
# solo run's registry snapshot, and it finds nothing.
if doc.get("check", {}).get("violations", {}).get("total") != 0:
    fail("no clean invariant-checker report under --check")
for run in doc["runs"]:
    if run["counters"].get("check.violations.total") != 0:
        fail("%s: the invariant checker was not attached" % run["label"])

print("check.sh: resilience SLO schema, conservation, breaker life"
      " cycle and rerun byte-identity OK")
PYRES
}

# Machine-spec checks against an existing build dir: the hierarchy and
# spec unit tests, preset discovery, byte-identity of the default run
# against an explicit --machine paper1997, the modern preset over
# Q3/Q6/Q12 under the invariant checker with per-level counter
# reconciliation, and a spec file written on the spot driving a bench.
machine_checks() {
    local dir="$1"
    local filter='Hierarchy.*:MachineSpec.*:MachineValidation.*'
    filter+=':BenchOptions.Machine*:BenchOptionsDeath.Machine*'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    # Preset discovery: `--machine list` prints every preset and exits 0.
    local listing
    listing="$("$dir/bench/fig6_time_breakdown" --machine list)"
    for preset in paper1997 modern scaled64; do
        if ! grep -q "$preset" <<< "$listing"; then
            echo "check.sh: machine: '--machine list' lacks $preset" >&2
            exit 1
        fi
    done

    # The spec layer must be invisible to the goldens: a run with no
    # --machine flag and one with an explicit paper1997 are the same
    # binary report, byte for byte.
    local dflt_json="$dir/machine_check_default.json"
    local paper_json="$dir/machine_check_paper1997.json"
    "$dir/bench/fig6_time_breakdown" --scale tiny \
        --json "$dflt_json" > /dev/null
    "$dir/bench/fig6_time_breakdown" --scale tiny --machine paper1997 \
        --json "$paper_json" > /dev/null
    if ! cmp -s "$dflt_json" "$paper_json"; then
        echo "check.sh: machine: default report differs from an explicit" \
             "--machine paper1997" >&2
        exit 1
    fi

    # The modern three-level preset over Q3/Q6/Q12, invariant checker on.
    local modern_json="$dir/machine_check_modern.json"
    "$dir/bench/fig6_time_breakdown" --scale tiny --check \
        --machine modern --json "$modern_json" > /dev/null

    # A machine-spec *file* must drive a bench end to end: modern's
    # geometry with a distinctive middle level (512K instead of 256K)
    # so the report provably came from the file, not a preset.
    local spec_json="$dir/machine_check_spec.json"
    local file_json="$dir/machine_check_from_file.json"
    cat > "$spec_json" <<'SPEC'
{
  "name": "check-file",
  "levels": [
    {"sizeBytes": 32768, "lineBytes": 64, "assoc": 8, "hitCycles": 1},
    {"sizeBytes": 524288, "lineBytes": 64, "assoc": 8, "hitCycles": 14},
    {"sizeBytes": 8388608, "lineBytes": 64, "assoc": 16,
     "hitCycles": 48, "shared": true}
  ]
}
SPEC
    "$dir/bench/fig6_time_breakdown" --scale tiny \
        --machine "$spec_json" --json "$file_json" > /dev/null

    # Cache-size sweeps on a three-level chain: Fig 12 resizes L1 and the
    # coherent level, and the L2 between them must still validate.
    "$dir/bench/fig12_inter_query_reuse" --scale tiny --machine modern \
        > /dev/null

    python3 - "$modern_json" "$file_json" <<'PYMACHINE'
import json, sys

modern = json.load(open(sys.argv[1]))
fromfile = json.load(open(sys.argv[2]))

def fail(msg):
    sys.stderr.write("check.sh: machine: %s\n" % msg)
    sys.exit(1)

levels = modern.get("config", {}).get("levels")
if not isinstance(levels, list) or len(levels) != 3:
    fail("modern config does not expose a three-entry levels array")
if not levels[-1].get("shared"):
    fail("modern LLC lost its shared flag on the way to JSON")

def miss_total(c, proc, lvl):
    prefix = "%s.%s.miss." % (proc, lvl)
    return sum(v for k, v in c.items() if k.startswith(prefix))

for run in modern["runs"]:
    c = run["counters"]
    procs = sorted({k.split(".")[0] for k in c if k.startswith("proc")})
    if not procs:
        fail("%s exports no per-processor counters" % run["label"])
    for p in procs:
        l2_acc = c["%s.l2_accesses" % p]
        if c["%s.l3_accesses" % p] == 0 and l2_acc > 0:
            fail("%s %s: l2 accesses but the l3 was never consulted"
                 % (run["label"], p))
        # Every L1 miss is an L2 lookup, and every L2 lookup resolves.
        if miss_total(c, p, "l1") != l2_acc:
            fail("%s %s: l1 misses (%d) != l2 accesses (%d)"
                 % (run["label"], p, miss_total(c, p, "l1"), l2_acc))
        if c["%s.l2_hits" % p] + miss_total(c, p, "l2") != l2_acc:
            fail("%s %s: l2 hits + misses != l2 accesses"
                 % (run["label"], p))
        # Atomics consult the coherence point even on an upper-level
        # hit, so hits + misses bound the lookups from below.
        l3_acc = c["%s.l3_accesses" % p]
        if c["%s.l3_hits" % p] + miss_total(c, p, "l3") > l3_acc:
            fail("%s %s: l3 hits + misses exceed l3 accesses"
                 % (run["label"], p))

file_levels = fromfile["config"]["levels"]
if len(file_levels) != 3:
    fail("spec file's three levels did not reach the report")
if file_levels[1]["sizeBytes"] != 524288:
    fail("spec file's 512K middle level did not reach the report"
         " (got %d)" % file_levels[1]["sizeBytes"])

print("check.sh: machine preset listing, paper1997 byte-identity,"
      " modern counter reconciliation and spec-file run OK")
PYMACHINE
}

# Line-level memory-profiler checks against an existing build dir: unit
# tests, then report_memprof over Q3/Q6/Q12 with --memprof run twice,
# validating the JSON profile schema, each profile's totals against its
# run's machine counters, the per-processor
# cohe == cohe.true + cohe.false registry invariant, and byte-identity
# of the two reports.
memprof_checks() {
    local dir="$1"
    "$dir/tests/dss_tests" --gtest_filter='MemProfile.*:RegionMap.*'

    local seq_json="$dir/memprof_check.json"
    local rerun_json="$dir/memprof_check_rerun.json"
    "$dir/bench/report_memprof" --memprof --scale tiny \
        --json "$seq_json" > /dev/null
    "$dir/bench/report_memprof" --memprof --scale tiny \
        --json "$rerun_json" > /dev/null
    if ! cmp -s "$seq_json" "$rerun_json"; then
        echo "check.sh: memprof: JSON report differs between two" \
             "identical runs" >&2
        exit 1
    fi

    python3 - "$seq_json" <<'EOF'
import json, re, sys

seq = json.load(open(sys.argv[1]))

def fail(msg):
    sys.stderr.write("check.sh: memprof: %s\n" % msg)
    sys.exit(1)

profiles = seq.get("memprof")
if not isinstance(profiles, dict) or not profiles:
    fail("no memprof block in %s" % sys.argv[1])
for query, prof in profiles.items():
    for key in ("lineBytes", "nprocs", "linesTracked", "lines",
                "classes", "sets", "totals"):
        if key not in prof:
            fail("%s profile lacks '%s'" % (query, key))
    fields = ("accesses", "reads", "writes", "cold", "conf",
              "coheTrue", "coheFalse", "upgrades", "hop3")
    for rec in prof["lines"]:
        for key in ("addr", "symbol", "class") + fields:
            if key not in rec:
                fail("%s line record lacks '%s'" % (query, key))
    for rec in prof["sets"]:
        if "set" not in rec or "conf" not in rec:
            fail("%s set record malformed" % query)
    tot = prof["totals"]
    summed = {f: 0 for f in fields}
    for cls in prof["classes"].values():
        for f in fields:
            summed[f] += cls[f]
    if any(summed[f] != tot[f] for f in fields):
        fail("%s class totals do not sum to profile totals" % query)
    if not prof["lines"]:
        fail("%s profile tracked no lines" % query)

# The profile is the machine's own record: each query's totals equal
# that run's counters summed over processors (coherent-level cold/conf
# misses, the true/false coherence split, 3-hop transactions).
runs = {run["label"]: run["counters"] for run in seq["runs"]}
for query, prof in profiles.items():
    c = runs.get(query)
    if c is None:
        fail("no run labelled %s for its profile" % query)
    coh = max(int(k.split(".")[1][1:]) for k in c
              if re.match(r"proc\d+\.l\d\.miss\.", k))
    def total(pattern):
        return sum(v for k, v in c.items() if re.fullmatch(pattern, k))
    machine = {
        "cold": total(r"proc\d+\.l%d\.miss\.cold\.\w+" % coh),
        "conf": total(r"proc\d+\.l%d\.miss\.conf\.\w+" % coh),
        "coheTrue": total(r"proc\d+\.miss\.cohe\.true"),
        "coheFalse": total(r"proc\d+\.miss\.cohe\.false"),
        "hop3": total(r"proc\d+\.hops\.\w+\.hop3"),
    }
    for f, n in machine.items():
        if prof["totals"][f] != n:
            fail("%s profile %s %d != machine counters %d"
                 % (query, f, prof["totals"][f], n))
    if machine["coheTrue"] + machine["coheFalse"] == 0:
        fail("%s: no coherence misses to reconcile" % query)

# Per-proc coherence split invariant from the machine's own counters.
for run in seq["runs"]:
    c = run["counters"]
    procs = {k.split(".")[0] for k in c if k.startswith("proc")}
    for p in sorted(procs):
        cohe = c.get(p + ".miss.cohe", 0)
        true = c.get(p + ".miss.cohe.true", 0)
        false_ = c.get(p + ".miss.cohe.false", 0)
        if cohe != true + false_:
            fail("%s %s: cohe %d != true %d + false %d"
                 % (run["label"], p, cohe, true, false_))

print("check.sh: memprof schema, machine reconciliation, counter"
      " invariant and rerun byte-identity OK")
EOF
}

# Protocol-verification checks against an existing build dir: the
# canonicalization/symmetry, model and mutant unit tests plus the
# model-checker-to-real-machine bridge test, then verify_protocol in
# clean mode on both machine presets (the exhaustive 2x2 search must
# report zero violations), the full mutant sweep (every injected
# protocol bug must be caught with a counterexample), and bit-identity
# of the JSON report across repeated runs.
verify_checks() {
    local dir="$1"
    local filter='VerifyCanonical.*:VerifyModel.*:VerifyClean.*'
    filter+=':VerifyTraces.*:AllMutants/VerifyMutants.*'
    filter+=':CheckerClean.ModelCheckerTracesReplayCleanOnTheRealMachine'
    "$dir/tests/dss_tests" --gtest_filter="$filter"

    # Exhaustive clean searches: 2 procs x 2 lines + lock on both the
    # paper's two-level hierarchy and the modern three-level one. The
    # bench exits 3 on any invariant violation.
    local paper_json="$dir/verify_check_paper1997.json"
    local modern_json="$dir/verify_check_modern.json"
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 2 \
        --json "$paper_json"
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 2 \
        --machine modern --json "$modern_json"

    # Soundness: all four protocol mutants must be *caught*. A mutant
    # that escapes the search makes the bench exit 3.
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 1 \
        --verify-mutant all > /dev/null

    # Determinism: the search must be bit-identical across runs.
    local rerun_json="$dir/verify_check_rerun.json"
    "$dir/bench/verify_protocol" --verify-procs 2 --verify-lines 2 \
        --json "$rerun_json" > /dev/null
    if ! cmp -s "$paper_json" "$rerun_json"; then
        echo "check.sh: verify: JSON report differs between repeated" \
             "runs of the same search" >&2
        exit 1
    fi

    python3 - "$paper_json" "$modern_json" <<'PYVERIFY'
import json, sys

def fail(msg):
    sys.stderr.write("check.sh: verify: %s\n" % msg)
    sys.exit(1)

reports = [json.load(open(p)) for p in sys.argv[1:3]]
states = []
for path, doc in zip(sys.argv[1:3], reports):
    runs = doc.get("verify")
    if not isinstance(runs, list) or not runs:
        fail("no verify block in %s" % path)
    run = runs[0]
    for key in ("states", "transitions", "depth", "violations",
                "exhausted", "mutant"):
        if key not in run:
            fail("%s verify block lacks '%s'" % (path, key))
    if run["mutant"] != "none":
        fail("%s first run is not the clean search" % path)
    if not run["exhausted"]:
        fail("%s search did not exhaust the state space" % path)
    if run["violations"] != 0:
        fail("%s clean search reports violations" % path)
    c = doc.get("counters", {})
    if c.get("verify.states") != run["states"]:
        fail("%s verify.states counter disagrees with the report" % path)
    states.append(run["states"])

# One tracked subline cannot tell the hierarchies apart: the extra
# level only changes latency, which the abstraction drops.
if states[0] != states[1]:
    fail("paper1997 (%d states) and modern (%d states) disagree"
         % (states[0], states[1]))

print("check.sh: verify clean searches exhausted (%d states), mutants"
      " caught, report bit-identical" % states[0])
PYVERIFY
}

# Static gates: the determinism lint over the deterministic core always;
# clang-tidy over src/ with the repo .clang-tidy (warnings are errors)
# when the binary is installed, driven by the build tree's
# compile_commands.json.
lint_checks() {
    local dir="$1"
    python3 "$repo/scripts/determinism_lint.py" "$repo"

    if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "check.sh: lint: clang-tidy not installed — skipping the" \
             "static-analysis half (determinism lint still gates)"
        return 0
    fi
    if [[ ! -f "$dir/compile_commands.json" ]]; then
        cmake -B "$dir" -S "$repo" > /dev/null
    fi
    local srcs
    srcs="$(cd "$repo" && ls src/*/*.cc)"
    (cd "$repo" && xargs clang-tidy -p "$dir" --quiet <<< "$srcs")
    echo "check.sh: lint: clang-tidy clean over src/"
}

if [[ "$chaos" -eq 1 ]]; then
    # Robustness gauntlet: the fault/checker/guard suites plus the
    # machine's contended-lock interleavings, under both TSan and ASan,
    # then the chaos sweep bench end to end (its exit code is the
    # verdict).
    filter='FaultDeterminism.*:FaultInjection.*:GracefulFailure.*'
    filter+=':CheckerCorruption.*:CheckerClean.*:Backoff.*:RetryOnAbort.*'
    filter+=':GuardedMain.*:Machine.*'
    filter+=':SchedSim.*:StreamFuzz.*'
    for san in thread address; do
        dir="$repo/build-$(short_of "$san")"
        cmake -B "$dir" -S "$repo" -DSIM_SANITIZE="$san"
        cmake --build "$dir" -j"$(nproc)" \
            --target dss_tests chaos_fault_sweep ablation_placement \
            report_memprof throughput_stream resilience_sweep \
            fig6_time_breakdown fig12_inter_query_reuse verify_protocol
        "$dir/tests/dss_tests" --gtest_filter="$filter"
        "$dir/bench/chaos_fault_sweep" --scale tiny
        "$dir/bench/ablation_placement" --scale tiny --check
        # The profiler's replay and the sharing tracker under the
        # sanitizer, plus the schema/invariant/bit-identity checks.
        memprof_checks "$dir"
        # Stream scheduler rerun identity + schema under the sanitizer.
        stream_checks "$dir"
        # Deadlines, shedding, breaker and node-failure migration under
        # the sanitizer, plus the SLO schema/conservation checks.
        resilience_checks "$dir"
        # The N-level hierarchy and machine-spec layer under the
        # sanitizer: preset discovery, paper1997 byte-identity, modern
        # counter reconciliation and a spec-file-driven run.
        machine_checks "$dir"
        # The exhaustive protocol search and mutant sweep under the
        # sanitizer: the model checker drives the real transition
        # functions, so races and UB in the protocol paths surface here.
        verify_checks "$dir"
    done
    # The static gates once (sanitizers do not change source text);
    # the last sanitizer build dir supplies compile_commands.json.
    lint_checks "$dir"
    echo "check.sh: chaos gauntlet passed"
elif [[ "$placement" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests ablation_placement chaos_fault_sweep \
        fig6_time_breakdown
    "$build/tests/dss_tests" --gtest_filter='Placement*.*'

    # The 4-policy x Q3/Q6/Q12 sweep under the coherence invariant
    # checker: every policy must finish with zero violations.
    sweep="$("$build/bench/ablation_placement" --scale tiny --check)"

    # Every machine builds its own policy: fig6's cold runs under
    # first-touch must read exactly the sweep's first-touch rows, which
    # each run on a fresh machine. A policy shared across fig6's runs
    # would carry Q3's page claims into Q6 and Q12.
    fig6="$("$build/bench/fig6_time_breakdown" --scale tiny \
        --placement first-touch |
        awk '/^Figure 6\(a\)/ { a = 1 } /^Figure 6\(b\)/ { a = 0 }
             a && $1 ~ /^Q[0-9]+$/ { print $1, $2 }')"
    rows="$(awk '$1 ~ /^Q[0-9]+$/ && NF == 1 { q = $1 }
                 $1 == "first-touch" { print q, $2 }' <<< "$sweep")"
    if [[ "$(wc -l <<< "$fig6")" -ne 3 || "$fig6" != "$rows" ]]; then
        echo "check.sh: fig6 first-touch cycles differ from" \
             "ablation_placement's first-touch rows" >&2
        diff <(echo "$fig6") <(echo "$rows") >&2 || true
        exit 1
    fi

    # Fault schedules must be placement-invariant: the FaultPlan keys on
    # per-processor trace positions, never on page homes, so moving every
    # shared page (first-touch vs interleave) must leave the injected
    # fault and retry counts byte-identical at the same seed.
    sched_of() {
        "$build/bench/chaos_fault_sweep" --scale tiny --fault-seed 7 \
            --placement "$1" |
            awk 'NF >= 7 && $2 ~ /^0\./ { print $1, $2, $3, $4 }'
    }
    a="$(sched_of interleave)"
    b="$(sched_of first-touch)"
    if [[ -z "$a" ]]; then
        echo "check.sh: no fault-schedule rows extracted from" \
             "chaos_fault_sweep output" >&2
        exit 1
    fi
    if [[ "$a" != "$b" ]]; then
        echo "check.sh: fault schedule moved with the placement policy" >&2
        diff <(echo "$a") <(echo "$b") >&2 || true
        exit 1
    fi
    echo "check.sh: placement checks passed (fault schedule is" \
         "placement-invariant)"
elif [[ "$memprof" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests report_memprof
    memprof_checks "$build"
    echo "check.sh: memprof checks passed"
elif [[ "$stream" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests throughput_stream
    stream_checks "$build"
    echo "check.sh: stream checks passed"
elif [[ "$resilience" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests resilience_sweep
    resilience_checks "$build"
    echo "check.sh: resilience checks passed"
elif [[ "$machine" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests fig6_time_breakdown fig12_inter_query_reuse
    machine_checks "$build"
    echo "check.sh: machine checks passed"
elif [[ "$verify" -eq 1 ]]; then
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)" \
        --target dss_tests verify_protocol
    verify_checks "$build"
    echo "check.sh: verify checks passed"
elif [[ "$lint" -eq 1 ]]; then
    build="${build:-$repo/build}"
    lint_checks "$build"
    echo "check.sh: lint checks passed"
elif [[ -n "$sanitize" ]]; then
    build="${build:-$repo/build-$(short_of "$sanitize")}"
    cmake -B "$build" -S "$repo" -DSIM_SANITIZE="$sanitize"
    cmake --build "$build" -j"$(nproc)" --target dss_tests
    "$build/tests/dss_tests" \
        --gtest_filter='Machine.*:Coherence*.*:LockTable.*'
else
    build="${build:-$repo/build}"
    cmake -B "$build" -S "$repo"
    cmake --build "$build" -j"$(nproc)"
    ctest --test-dir "$build" --output-on-failure -j"$(nproc)"
fi
