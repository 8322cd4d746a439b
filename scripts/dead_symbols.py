#!/usr/bin/env python3
"""Dead-symbol gate: find library functions that no program calls.

Usage: dead_symbols.py <repo> <gc-build-dir>

<gc-build-dir> must hold a build of the repo's bench/ and examples/
binaries (in bench/ and examples/) and of the hostbench driver (in
hostbench/hostbench), compiled with -ffunction-sections -fdata-sections
and linked with -Wl,--gc-sections, so a function no binary reaches is
dropped from every one of them. scripts/check.sh --lint makes that build.

A function defined in one of the src/ libraries (an `nm` text symbol of
src/libdss_*.a) is reported when
  1. no such binary retains it (`nm -C`), and
  2. its bare name appears in no src/, bench/, examples/ or hostbench/
     source file, comments and string literals stripped, beyond its own
     declaration and definition (at most two occurrences).
The second condition keeps functions that were inlined into every
caller, and any name shared with another function, off the list.

Accessors that only tests use to observe state are allowed by name in
ALLOWED below, each with the reason it stays. Exit 1 when anything is
reported, 0 otherwise.
"""

import os
import re
import subprocess
import sys

# Functions that stay although no binary calls them, keyed by
# "Class::name" (or a free function's bare name), each with its reason.
ALLOWED = {
    "LockManager::holdersOf": "tests read lock holders to check 2PL state",
    "BufferManager::pinCountOf": "tests check every pin is released",
    "CircuitBreaker::stateOf": "tests follow the breaker life cycle",
    "Timeline::procSpans": "tests inspect one processor's spans",
    "Timeline::spanCount": "tests count coalesced timeline spans",
    "Registry::contains": "tests check which metrics a run registers",
    "Registry::gaugeValue": "tests read gauges back from the registry",
    "Registry::counterValue": "tests read counters back from the registry",
    "Sampler::runTotal": "tests reconcile epoch deltas with run totals",
    "countLiveTuples": "tests count tuples left after update queries",
    "Json::asInt": "tests/json_validate reads signed JSON integers",
    "logicalOpName": "names Table 1's operators for operator attribution",
    "AddressSpace::ownerOf": "tests check private arenas by owner",
    "FaultPlan::schedule": "tests compare fault schedules across reruns",
    "WriteBuffer::occupancy": "tests watch the write buffer drain",
    "LockTable::corruptDropHolderForTest":
        "checker tests corrupt lock state on purpose",
    "Cache::markDirty": "cache tests dirty a resident line directly",
    "percentile": "tests pin the interpolation the latency summary uses",
}

SOURCE_DIRS = ("src", "bench", "examples", "hostbench")
SOURCE_EXTS = (".cc", ".hh", ".cpp", ".h")


def nm(path, text_only):
    """Demangled names of the symbols defined in @p path."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3:
            continue  # archive member headers and blank lines
        kind, name = parts[1], parts[2]
        if text_only and kind != "T":
            continue
        names.add(name)
    return names


def function_path(symbol):
    """"ns::Class::name" of a demangled function symbol (no arguments)."""
    depth = 0
    for i, ch in enumerate(symbol):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0 and i > 0:
            return symbol[:i]
    return symbol


def bare_name(path):
    """The last "::" component of @p path, template arguments dropped."""
    depth = 0
    start = 0
    for i, ch in enumerate(path):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0 and path.startswith("::", i):
            start = i + 2
    return re.sub(r"<.*", "", path[start:])


def allowed(path):
    """True when @p path ends in an ALLOWED key."""
    bare = re.sub(r"<[^<>]*>", "", path)
    return any(bare == k or bare.endswith("::" + k) for k in ALLOWED)


COMMENT_OR_STRING = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.S)


def strip_comments(text):
    text = re.sub(r"(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])", "", text)  # 1'000
    return COMMENT_OR_STRING.sub(
        lambda m: "" if m.group(0).startswith("/") else '""', text)


def load_sources(repo):
    texts = []
    for top in SOURCE_DIRS:
        for root, _, files in os.walk(os.path.join(repo, top)):
            for f in files:
                if f.endswith(SOURCE_EXTS):
                    with open(os.path.join(root, f),
                              encoding="utf-8") as fh:
                        texts.append(strip_comments(fh.read()))
    return "\n".join(texts)


def binaries(gc_dir):
    found = []
    for sub in ("bench", "examples"):
        d = os.path.join(gc_dir, sub)
        for f in sorted(os.listdir(d)):
            p = os.path.join(d, f)
            if os.path.isfile(p) and os.access(p, os.X_OK):
                found.append(p)
    found.append(os.path.join(gc_dir, "hostbench", "hostbench"))
    return found


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    repo, gc_dir = sys.argv[1], sys.argv[2]

    libs = sorted(os.path.join(gc_dir, "src", f)
                  for f in os.listdir(os.path.join(gc_dir, "src"))
                  if f.startswith("libdss_") and f.endswith(".a"))
    defined = set()
    for lib in libs:
        defined |= nm(lib, text_only=True)
    bins = binaries(gc_dir)
    retained = set()
    for b in bins:
        retained |= nm(b, text_only=False)

    sources = load_sources(repo)
    counts = {}
    flagged = []
    for symbol in sorted(defined - retained):
        path = function_path(symbol)
        name = bare_name(path)
        if not re.fullmatch(r"~?[A-Za-z_]\w*", name) or \
                name.startswith("operator"):
            continue
        if name not in counts:
            counts[name] = len(re.findall(
                r"(?<![\w~])" + re.escape(name) + r"\b", sources))
        if counts[name] > 2:
            continue  # inlined into its callers, or a shared name
        if allowed(path):
            continue
        flagged.append(symbol)

    print("dead_symbols: %d library functions, %d retained by %d binaries"
          % (len(defined), len(defined & retained), len(bins)))
    if flagged:
        print("dead_symbols: %d function(s) nothing calls:" % len(flagged))
        for s in flagged:
            print("  " + s)
        sys.exit(1)
    print("dead_symbols: every library function has a caller")


if __name__ == "__main__":
    main()
