"""Index-backed ``alias_query`` and ``names_may_overlap`` agree with the
full scans they replaced, for every provider.

The oracles below are the scans the providers used to run: every pair
at the node (Weihl: the whole program relation) tested against the
query.  They live only here, as the executable spec of the index
enumeration.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import BudgetExceeded, analyze_program, parse_and_analyze
from repro.baselines.andersen import andersen_aliases
from repro.baselines.weihl import weihl_aliases
from repro.clients import ConflictAnalysis
from repro.clients.accesses import node_access
from repro.clients.adapters import AndersenBackedSolution, WeihlBackedSolution
from repro.core.solution import _represents
from repro.icfg.builder import build_icfg
from repro.must import IntervalSolution, solve_must
from repro.names.alias_pairs import AliasPair
from repro.names.object_names import interned_prefixes
from repro.programs import ALL_FIXTURES, ProgramSpec, generate_program


def scan_alias_query(stored_pairs, a, b) -> bool:
    target = AliasPair(a, b)
    return any(_represents(stored, target) for stored in stored_pairs)


def scan_names_may_overlap(provider, stored_pairs, a, b, at) -> bool:
    contains = ConflictAnalysis._contains
    if a == b or contains(a, b):
        return True
    if provider.alias_query(at, a, b):
        return True
    for stored in stored_pairs:
        for x, y in ((stored.first, stored.second), (stored.second, stored.first)):
            for this, other in ((a, b), (b, a)):
                if x.is_prefix(this):
                    image = y.extend(this.suffix_after(x))
                    if image == other or contains(image, other):
                        return True
    return False


def providers(source: str, k: int, reference: bool):
    """Every provider over one program: LR on the kernel (and, when
    asked, on the reference engine's store), Weihl, Andersen and the
    [must, may] interval."""
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    kernel = analyze_program(analyzed, icfg, k=k, max_facts=60_000)
    out = {
        "lr": kernel,
        "weihl": WeihlBackedSolution(
            analyzed, icfg, weihl_aliases(analyzed, icfg, k=k), k=k
        ),
        "andersen": AndersenBackedSolution(
            analyzed, icfg, andersen_aliases(analyzed, icfg), k=k
        ),
        "interval": IntervalSolution(kernel, solve_must(analyzed, icfg, k=k)),
    }
    if reference:
        out["lr-reference"] = analyze_program(
            analyzed, icfg, k=k, max_facts=60_000, engine="reference"
        )
    return icfg, out


def query_names(stored_pairs, accesses):
    """Names worth asking about at a node: a few stored members, their
    one-step extensions and prefixes, and the node's own accesses."""
    names = set(accesses)
    for pair in sorted(stored_pairs, key=str)[:4]:
        for member in pair:
            names.add(member)
            if not member.truncated:
                names.add(member.deref())
            names.update(interned_prefixes(member))
    return sorted(names, key=str)[:8]


def check_program(source: str, k: int, reference: bool = True) -> int:
    icfg, by_name = providers(source, k, reference)
    nodes = [n for n in icfg.nodes if node_access(n).touches_memory][:8]
    checked = 0
    for name, provider in by_name.items():
        conflicts = ConflictAnalysis(provider)
        for node in nodes:
            stored_pairs = list(provider.may_alias(node))
            access = node_access(node)
            names = query_names(stored_pairs, access.writes + access.reads)
            for a in names:
                for b in names:
                    where = (name, node.nid, str(a), str(b))
                    if name != "andersen":
                        assert provider.alias_query(node, a, b) == scan_alias_query(
                            stored_pairs, a, b
                        ), where
                    assert conflicts.names_may_overlap(
                        a, b, node
                    ) == scan_names_may_overlap(
                        provider, stored_pairs, a, b, node
                    ), where
                    checked += 1
    return checked


@pytest.mark.parametrize(
    "fixture,k,reference",
    [
        ("figure1", 3, True),
        ("matrix_swap", 3, True),
        ("linked_list", 1, False),
        ("expr_tree", 1, False),
    ],
)
def test_fixture_queries_match_full_scan(fixture, k, reference):
    assert check_program(ALL_FIXTURES[fixture], k, reference) > 0


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=1, max_value=3_000), k=st.integers(1, 3))
def test_generated_queries_match_full_scan(seed, k):
    spec = ProgramSpec(
        name=f"idx{seed}",
        seed=seed,
        n_functions=3,
        n_globals=4,
        stmts_per_function=6,
    )
    try:
        check_program(generate_program(spec), k)
    except BudgetExceeded:
        assume(False)
