#!/usr/bin/env python3
"""Tests for tools/hot_symbols.py's HOT regexes.

Every label must match demangled names (as `nm -C` prints them) from the
layout before the stage-3 walks moved out of DynGraph<Policy> ("old") and
after ("new"), with the right policy, and no label may match nothing: a
rename that leaves a regex stale fails here instead of silently dropping a
row from the code-placement table.

Runs under pytest or standalone (`python3 tests/test_hot_symbols.py`).
"""

import importlib.util
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "hot_symbols", os.path.join(_HERE, "..", "tools", "hot_symbols.py"))
hot_symbols = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hot_symbols)

_SPAN = "18446744073709551615ul"
_STAGING = "sg::core::BatchStaging const&"
_INVOKE = "(std::_Any_data const&, unsigned long&&, unsigned long&&)"
_CHUNK = "::{lambda(unsigned long, unsigned long)#1}"
_HANDLER = "std::_Function_handler<void (unsigned long, unsigned long), "


def _member(policy, rest):
    return "sg::core::DynGraph<sg::core::%sPolicy>::%s" % (policy, rest)


def _walk(ret, name, layout, params):
    head = "sg::core::%s<sg::slabhash::%sLayout>(%s)" % (name, layout, params)
    return ret + head, head


_APPLY_PARAMS = ("sg::memory::SlabArena&, sg::core::VertexDictionary&, " +
                 _STAGING + ", bool, double, std::vector<unsigned int, "
                 "std::allocator<unsigned int> >&, bool")
_SEARCH_PARAMS = ("sg::memory::SlabArena const&, sg::core::VertexDictionary "
                  "const&, " + _STAGING + ", unsigned char*, unsigned int*, "
                  "bool")
_GATHER_PARAMS = ("sg::memory::SlabArena const&, sg::core::VertexDictionary "
                  "const&, std::span<unsigned int const, " + _SPAN + ">, "
                  "std::span<unsigned long const, " + _SPAN + ">, "
                  "unsigned int*")
_GATHER_MEMBER = ("gather_neighbors(std::span<unsigned int const, " + _SPAN +
                  ">, std::vector<unsigned long, std::allocator<unsigned "
                  "long> >&, std::vector<unsigned int, std::allocator<"
                  "unsigned int> >&) const")


def _samples():
    """{label: [(demangled name, expected policy), ...]}, old and new."""
    s = {label: [] for label, _ in hot_symbols.HOT}
    dict_arena = ("sg::core::VertexDictionary&, sg::memory::SlabArena*, "
                  "sg::core::BatchStaging&)")
    for edge in ("WeightedEdge", "Edge"):
        s["stage_mutations_shard<%s>" % edge].append((
            "void sg::core::stage_mutations_shard<sg::core::%s>(std::span<"
            "sg::core::%s const, %s>, bool, bool, unsigned long, unsigned "
            "int, unsigned int, %s" % (edge, edge, _SPAN, dict_arena), "-"))
    s["stage_queries_shard"].append((
        "sg::core::stage_queries_shard(std::span<sg::core::Edge const, " +
        _SPAN + ">, unsigned long, unsigned int, unsigned int, "
        "sg::core::VertexDictionary const&, sg::core::BatchStaging&, "
        "unsigned int)", "-"))
    s["stage_epoch"].append((
        "sg::core::stage_epoch(sg::core::ShardedStaging&, unsigned int, "
        "sg::core::StageKind, bool, std::function<void (unsigned int, "
        "sg::core::BatchStaging&)> const&)", "-"))
    s["run_epoch_pipeline"].append((
        "sg::core::run_epoch_pipeline(unsigned long, unsigned int, unsigned "
        "int, unsigned int, sg::core::ShardedStaging*, "
        "sg::core::ShardedStaging*, sg::core::BatchPipelineStats&, "
        "std::function<void (sg::core::ShardedStaging&, unsigned long, "
        "unsigned long, unsigned int)> const&, std::function<unsigned long "
        "(" + _STAGING + ", bool)> const&)", "-"))
    for p in ("Map", "Set"):
        s["search_batched"].append((_member(
            p, "search_batched(std::span<sg::core::Edge const, " + _SPAN +
            ">, unsigned char*, unsigned int*) const"), p))
        # Old layout: the walks were DynGraph<Policy> members, and the
        # gather emit was gather_neighbors' own chunk lambda.
        old_apply = _member(p, "apply_mutation_runs(" + _STAGING +
                            ", bool, bool)")
        s["apply_mutation_runs"].append((old_apply, p))
        s["apply_mutation_runs chunk"].append(
            (old_apply + _CHUNK + "::operator()(unsigned long, unsigned "
             "long) const", p))
        s["apply_mutation_runs chunk"].append(
            (_HANDLER + old_apply + _CHUNK + ">::_M_invoke" + _INVOKE, p))
        old_search = _member(p, "search_apply_runs(" + _STAGING +
                             ", unsigned char*, unsigned int*, bool) const")
        s["search_apply_runs"].append((old_search, p))
        s["search_apply_runs chunk"].append(
            (_HANDLER + old_search + _CHUNK + ">::_M_invoke" + _INVOKE, p))
        old_gather = _member(p, _GATHER_MEMBER)
        s["gather_neighbors"].append((old_gather, p))
        s["gather_emit chunk"].append(
            (_HANDLER + old_gather + _CHUNK + ">::_M_invoke" + _INVOKE, p))
        # New layout: free functions templated on the slab layout.
        name, head = _walk("unsigned long ", "apply_mutation_runs", p,
                           _APPLY_PARAMS)
        s["apply_mutation_runs"].append((name, p))
        s["apply_mutation_runs chunk"].append(
            (head + _CHUNK + "::operator()(unsigned long, unsigned long) "
             "const", p))
        s["apply_mutation_runs chunk"].append(
            (_HANDLER + head + _CHUNK + ">::_M_invoke" + _INVOKE, p))
        name, head = _walk("void ", "search_apply_runs", p, _SEARCH_PARAMS)
        s["search_apply_runs"].append((name, p))
        s["search_apply_runs chunk"].append(
            (_HANDLER + head + _CHUNK + ">::_M_invoke" + _INVOKE, p))
        name, head = _walk("void ", "gather_emit", p, _GATHER_PARAMS)
        s["gather_emit"].append((name, p))
        s["gather_emit chunk"].append(
            (_HANDLER + head + _CHUNK + ">::_M_invoke" + _INVOKE, p))
        ops = "sg::slabhash::SlabOps<sg::slabhash::%sLayout>::" % p
        table = "sg::slabhash::TableRef, unsigned int, unsigned int const*"
        s["SlabOps::bulk_insert"].append((
            ops + "bulk_insert(sg::memory::SlabArena&, " + table +
            ", unsigned int const*, unsigned int, unsigned int, "
            "sg::slabhash::BulkStatus*)", p))
        s["SlabOps::bulk_erase"].append((
            ops + "bulk_erase(sg::memory::SlabArena&, " + table +
            ", unsigned int)", p))
        s["SlabOps::bulk_search"].append((
            ops + "bulk_search(sg::memory::SlabArena const&, " + table +
            ", unsigned int, unsigned char*, unsigned int*)", p))
    return s


# Names no label may claim: a walk's std::function manager, the
# single-query overload of gather_neighbors, the wrappers around
# bulk_search, and the [clone .cold] split of a hot body.
_NOT_HOT = [
    _HANDLER + _walk("", "apply_mutation_runs", "Map", _APPLY_PARAMS)[1] +
    _CHUNK + ">::_M_manager(std::_Any_data&, std::_Any_data const&, "
    "std::_Manager_operation)",
    _member("Map", "gather_neighbors(std::span<unsigned int const, " + _SPAN +
            ">) const"),
    "sg::slabhash::SlabOps<sg::slabhash::MapLayout>::bulk_contains("
    "sg::memory::SlabArena const&, sg::slabhash::TableRef, unsigned int, "
    "unsigned int const*, unsigned int, unsigned char*)",
    "sg::slabhash::SlabOps<sg::slabhash::MapLayout>::bulk_search_values("
    "sg::memory::SlabArena const&, sg::slabhash::TableRef, unsigned int, "
    "unsigned int const*, unsigned int, unsigned char*, unsigned int*)",
]


def test_every_sample_matches_exactly_its_label():
    for label, names in _samples().items():
        for name, policy in names:
            assert hot_symbols.classify(name) == [(label, policy)], (
                "%s: %r -> %r" % (label, name, hot_symbols.classify(name)))


def test_no_label_matches_nothing():
    samples = _samples()
    empty = [label for label, _ in hot_symbols.HOT if not samples[label]]
    assert not empty, "labels without a matching sample: %s" % empty


def test_walk_labels_cover_both_layouts():
    # A walk label must match the DynGraph<Policy> member of the old layout
    # and the layout-templated free function of the new one.
    for label in ("apply_mutation_runs", "apply_mutation_runs chunk",
                  "search_apply_runs", "search_apply_runs chunk",
                  "gather_emit chunk"):
        names = [n for n, _ in _samples()[label]]
        assert any("DynGraph<" in n for n in names), label
        assert any("Layout>(" in n for n in names), label


def test_cold_names_match_no_label():
    for name in _NOT_HOT:
        assert hot_symbols.classify(name) == [], name


def _main():
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"  [ok]   {name}")
            except AssertionError as err:
                failures += 1
                print(f"  [FAIL] {name}: {err}")
    if failures:
        print(f"{failures} test(s) failed", file=sys.stderr)
        return 1
    print("all hot_symbols tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
