"""Reading a solved program: the one-pass post-pass, index-backed
queries that never intern, and kernels freed by reference counting."""

import gc
import weakref

import pytest

from repro import analyze_source
from repro.core.store import CLEAN
from repro.names.alias_pairs import interned_pair_count
from repro.names.object_names import (
    DEREF,
    ObjectName,
    interned_name_count,
    interned_prefixes,
)
from repro.programs import ALL_FIXTURES, ProgramSpec, generate_program
from repro.programs.fixtures import FIGURE1, LINKED_LIST

ENGINES = ("reference", "kernel", "summary")


def brute_postpass(store):
    """Distinct (node, pair), distinct CLEAN (node, pair) and distinct
    pairs, from the decoded fact stream."""
    node_pairs, clean = set(), set()
    for (nid, _, pair), taint in store.facts():
        node_pairs.add((nid, pair))
        if taint is CLEAN:
            clean.add((nid, pair))
    return len(node_pairs), len(clean), {pair for _, pair in node_pairs}


def _scaling_source():
    return generate_program(ProgramSpec.for_target_nodes("scaling", 60))


RUNS = [
    ("figure1", FIGURE1, None),
    ("linked_list", LINKED_LIST, None),
    ("scaling60", _scaling_source(), None),
    ("scaling60-partial", _scaling_source(), 150),
    ("linked_list-partial", LINKED_LIST, 40),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,source,budget", RUNS, ids=[r[0] for r in RUNS])
def test_postpass_matches_brute_force(engine, name, source, budget):
    solution = analyze_source(
        source, k=2, max_facts=budget, on_budget="partial", engine=engine
    )
    assert solution.complete == (budget is None)
    post = solution.store.postpass()
    node_pairs, clean, pairs = brute_postpass(solution.store)
    assert (post.node_pairs, post.clean_node_pairs, post.pairs) == (
        node_pairs,
        clean,
        pairs,
    )
    stats = solution.stats()
    assert stats.node_alias_count == node_pairs
    assert stats.program_alias_count == len(solution.program_aliases())
    assert solution.program_aliases() == {
        p for p in pairs if not p.has_nonvisible
    }
    assert solution.program_aliases(include_nonvisible=True) == pairs
    expected = 100.0 if not node_pairs else 100.0 * clean / node_pairs
    assert solution.percent_yes() == pytest.approx(expected)
    assert stats.percent_yes == solution.percent_yes()


def test_postpass_of_empty_store():
    solution = analyze_source("int main() { return 0; }")
    post = solution.store.postpass()
    assert (post.node_pairs, post.clean_node_pairs, post.pairs) == (0, 0, set())
    assert solution.percent_yes() == 100.0


@pytest.mark.parametrize("engine", ("kernel", "summary"))
def test_solved_kernel_freed_without_cyclic_collection(engine):
    gc.collect()
    gc.disable()
    try:
        solution = analyze_source(LINKED_LIST, k=2, engine=engine)
        ref = weakref.ref(solution.store._kernel)
        solution.stats()
        solution.alias_query(0, ObjectName("p"), ObjectName("q"))
        assert ref() is not None
        del solution
        assert ref() is None
    finally:
        gc.enable()


def _query_names(pairs):
    """The members of ``pairs``, each one's one-step extensions and its
    prefixes: names a client would plausibly ask about."""
    names = set()
    for pair in pairs:
        for member in pair:
            names.add(member)
            if not member.truncated:
                names.add(member.deref())
                names.add(member.field("next"))
            names.update(interned_prefixes(member))
    return sorted(names, key=str)


@pytest.mark.parametrize("fixture", ["figure1", "linked_list", "expr_tree"])
def test_queries_do_not_intern(fixture):
    solution = analyze_source(ALL_FIXTURES[fixture], k=2)
    queries = []
    for node in solution.icfg.nodes:
        names = _query_names(sorted(solution.may_alias(node), key=str)[:4])
        queries.append((node, names))
    before = (interned_name_count(), interned_pair_count())
    answers = 0
    for node, names in queries:
        for a in names:
            solution.may_alias_names(node, a)
            for b in names:
                answers += solution.alias_query(node, a, b)
    assert answers > 0
    assert (interned_name_count(), interned_pair_count()) == before


def test_lookup_never_interns():
    before = interned_name_count()
    assert ObjectName.lookup("never_built_name", (DEREF, "f"), True) is None
    assert interned_name_count() == before
    built = ObjectName("p", (DEREF,))
    assert ObjectName.lookup("p", (DEREF,)) is built


def test_interned_prefixes_lists_existing_prefixes_only():
    name = ObjectName("pfx_base", (DEREF, "f", DEREF))
    short = ObjectName("pfx_base", (DEREF,), True)
    bare = ObjectName("pfx_base")
    assert list(interned_prefixes(name)) == [bare, short, name]
    assert list(interned_prefixes(name, truncated_only=True)) == [short]
