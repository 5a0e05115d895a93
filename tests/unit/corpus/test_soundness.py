"""Soundness pins for the corpus construction.

``stub_superset_check``: per-TU analysis with auto-stubbed externals
must over-approximate the whole-program facts on fixtures where both
are computable.  ``lowered_dynamic_check``: leniently lowered programs
must stay sound against the dynamic oracle where interpretable.
"""

import pathlib

import pytest

pycparser = pytest.importorskip("pycparser")

from repro.corpus import stub_superset_check
from repro.corpus.soundness import _owner, lowered_dynamic_check

CORPUS = pathlib.Path(__file__).resolve().parents[3] / "corpus"

FIXTURE = """
struct box { int *slot; };

int *pick(int *a, int *b) {
    if (a != 0) { return a; }
    return b;
}

void fill(struct box *bx, int *p) {
    bx->slot = p;
}

int main() {
    int u;
    int w;
    struct box b;
    int *r;
    fill(&b, &u);
    r = pick(&u, &w);
    return r != 0;
}
"""


class TestOwner:
    def test_global(self):
        assert _owner("g") is None

    def test_local(self):
        assert _owner("main::p") == "main"

    def test_shadowed_local(self):
        assert _owner("main::p#2") == "main"

    def test_return_slot(self):
        assert _owner("f$ret") == "f"


class TestStubSuperset:
    def test_stubbing_pick_keeps_all_facts(self):
        result = stub_superset_check(FIXTURE, ["pick"], k=2)
        assert result["ok"], result["missing"]
        assert result["stubbed"] == ["pick"]
        assert result["checked_pairs"] > 0

    def test_stubbing_fill_keeps_all_facts(self):
        result = stub_superset_check(FIXTURE, ["fill"], k=2)
        assert result["ok"], result["missing"]
        assert result["checked_pairs"] > 0

    def test_stubbing_both_keeps_all_facts(self):
        result = stub_superset_check(FIXTURE, ["pick", "fill"], k=2)
        assert result["ok"], result["missing"]
        assert sorted(result["stubbed"]) == ["fill", "pick"]


LOWERED = """
extern void *malloc(unsigned long n);
struct node { int v; struct node *next; };
int main() {
    struct node a;
    struct node b;
    struct node *p;
    a.next = &b;
    p = (struct node *)a.next;
    return p != 0;
}
"""


class TestLoweredDynamic:
    def test_lowered_program_sound_against_oracle(self):
        result = lowered_dynamic_check(LOWERED, k=2, draws=4)
        assert result["ok"], result["violations"]
        assert result["interpretable"]
        assert result["observed_pairs"] > 0
        assert result["ledger"]["event_counts"].get("cast-erased") == 1

    def test_escaped_char_literals_interpret(self):
        # strbuf.c writes '\0' terminators: the lowering must hand the
        # interpreter the one character, not the two-character escape.
        source = (CORPUS / "strbuf.c").read_text()
        assert "'\\0'" in source
        result = lowered_dynamic_check(source, "strbuf.c", k=1, draws=4)
        assert result["ok"], result["violations"]
        assert result["interpretable"]
