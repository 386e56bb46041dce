#!/usr/bin/env python3
"""Prints the code size of the batch engine's hot symbols in two builds.

    python3 tools/hot_symbols.py BUILD_A BUILD_B

Each argument is a build directory holding the library archive (the repo
build's libslabgraph.a or the benchmark build's libperfbench_slabgraph.a),
or the path of an archive or object file. The script runs `nm -S -C` on
both and prints, per hot symbol and policy, the bytes of code in each build
and the difference. A symbol GCC inlined into its caller has no entry of
its own and prints as "-". It gates nothing: code placement moves the
benchmark (docs/PERF.md), and this table shows which hot bodies a change
grew, shrank, split or inlined.
"""
import glob
import os
import re
import subprocess
import sys

POLICY = r"sg::core::DynGraph<sg::core::(?P<policy>Map|Set)Policy>::"
LAYOUT = r"sg::slabhash::SlabOps<sg::slabhash::(?P<policy>Map|Set)Layout>::"
# A chunk body of launch_runs: the (first, last) lambda, out of line or
# inlined into its std::function invoker.
CHUNK = (r"\(.*\)(?: const)?::\{lambda\(unsigned long, unsigned long\)#1\}"
         r"(?:::operator\(\)|>::_M_invoke)")

# The mutation staging entry point, or its per-lookup-mode loop when GCC
# keeps that out of line.
STAGE_LOOP = (r"(?:stage_mutations_shard<|"
              r"\(anonymous namespace\)::stage_mutations<(?:true|false), )")


def walk(name, member=None):
    """A stage-3 walk: the free function templated on the slab layout, or
    the DynGraph<Policy> member (`member`, default `name`) that held it
    before it moved out of DynGraph."""
    return (r"sg::core::(?:" + name + r"<sg::slabhash::(?P<layout>Map|Set)"
            r"Layout>|DynGraph<sg::core::(?P<policy>Map|Set)Policy>::" +
            (member or name) + r")")


# (label, regex over the demangled name). A label may match several
# symbols (template instances, a function and its out-of-line lambda):
# their sizes add up. A symbol outside the DynGraph and SlabOps templates
# and the layout-templated walks is compiled once and prints under policy
# "-". Stage 1 and the epoch driver used to be compiled inside
# DynGraph<Policy>, once per policy, and so did the stage-3 walks (the
# gather emit inside gather_neighbors); the alternations also match those
# older names, so a comparison across either move prints a row for each
# side (an older build's run_epoch_pipeline row adds up its insert, erase
# and query instances). tests/test_hot_symbols.py checks every label
# against real names of both layouts.
HOT = [
    ("stage_mutations_shard<WeightedEdge>",
     r"^void sg::core::(?:" + STAGE_LOOP + r"sg::core::WeightedEdge>\(|"
     r"stage_weighted_edges_shard<.*" + POLICY + ")"),
    ("stage_mutations_shard<Edge>",
     r"^void sg::core::(?:" + STAGE_LOOP + r"sg::core::Edge>\(|"
     r"stage_edges_shard<.*" + POLICY + ")"),
    ("stage_queries_shard",
     r"^(?:void )?sg::core::stage_queries_shard(?:\(|<.*" + POLICY + ")"),
    ("stage_epoch", r"^sg::core::stage_epoch\("),
    ("run_epoch_pipeline",
     r"^(?:unsigned long " + POLICY + r"run_epoch_pipeline<|"
     r"sg::core::run_epoch_pipeline\()"),
    ("search_batched", r"^" + POLICY + r"search_batched\(.*\) const$"),
    ("apply_mutation_runs",
     r"^(?:unsigned long )?" + walk("apply_mutation_runs") +
     r"\([^{]*\)$"),
    ("apply_mutation_runs chunk", r"^(?:std::_Function_handler<.*)?" +
     walk("apply_mutation_runs") + CHUNK),
    ("search_apply_runs",
     r"^(?:void )?" + walk("search_apply_runs") + r"\([^{]*\)(?: const)?$"),
    ("search_apply_runs chunk", r"^(?:std::_Function_handler<.*)?" +
     walk("search_apply_runs") + CHUNK),
    ("gather_neighbors", r"^" + POLICY +
     r"gather_neighbors\(std::span<unsigned int const, \d+ul>, std::vector"),
    ("gather_emit", r"^void " + walk("gather_emit") + r"\([^{]*\)$"),
    ("gather_emit chunk", r"^(?:std::_Function_handler<.*)?" +
     walk("gather_emit", "gather_neighbors") + CHUNK),
    ("SlabOps::bulk_insert", r"^" + LAYOUT + r"bulk_insert\("),
    ("SlabOps::bulk_erase", r"^" + LAYOUT + r"bulk_erase\("),
    ("SlabOps::bulk_search", r"^" + LAYOUT + r"bulk_search\("),
]
POLICIES = ("Map", "Set", "-")


def archive_of(path):
    if os.path.isfile(path):
        return path
    found = sorted(glob.glob(os.path.join(path, "lib*slabgraph.a")))
    if not found:
        sys.exit("hot_symbols: no lib*slabgraph.a under " + path)
    return found[0]


def classify(name):
    """(label, policy) of every HOT label matching one demangled name."""
    hits = []
    for label, pattern in HOT:
        m = re.search(pattern, name)
        if m:
            policy = next((v for v in m.groupdict().values() if v), "-")
            hits.append((label, policy))
    return hits


def sizes(path):
    """{(label, policy): bytes} of the hot symbols in one build."""
    out = subprocess.run(["nm", "-S", "-C", "--defined-only", archive_of(path)],
                         capture_output=True, text=True, check=True).stdout
    seen = set()  # weak symbols repeat in every object that emits them
    table = {}
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[2] not in "TtWw":
            continue
        size, name = int(parts[1], 16), parts[3]
        if name in seen:
            continue
        seen.add(name)
        for key in classify(name):
            table[key] = table.get(key, 0) + size
    return table


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    a, b = sizes(sys.argv[1]), sizes(sys.argv[2])
    print("| symbol | policy | A bytes | B bytes | B - A |")
    print("|---|---|---:|---:|---:|")
    for label, _ in HOT:
        for policy in POLICIES:
            key = (label, policy)
            if key not in a and key not in b:
                continue
            sa, sb = a.get(key), b.get(key)
            delta = "" if sa is None or sb is None else "%+d" % (sb - sa)
            print("| %s | %s | %s | %s | %s |" % (
                label, policy, "-" if sa is None else sa,
                "-" if sb is None else sb, delta))
    missing = [label for label, _ in HOT
               if not any(k[0] == label for k in list(a) + list(b))]
    if missing:
        print("inlined in both builds: " + ", ".join(missing))


if __name__ == "__main__":
    main()
