"""Provider plumbing: every detector runs against every alias
provider, and flow sensitivity only ever *removes* findings for the
monotone rules (LR ⊆ flow-insensitive, by match key)."""

import pytest

from repro.lint import PROVIDERS, make_provider, run_lint, self_check
from repro.lint.engine import LintInput
from repro.lint.findings import (
    RULE_CATALOG,
    RULE_CONFLICT,
    RULE_DANGLING,
    RULE_NULL_DEREF,
    RULE_UNINIT,
    SEVERITIES,
)
from repro.programs.fixtures import ALL_FIXTURES

pytestmark = pytest.mark.lint

#: Rules whose detectors consume the may-alias relation monotonically:
#: a coarser provider can only add findings.  Dead stores are the
#: anti-monotone exception (more aliases keep more stores live) and
#: the uninit detector is provider-insensitive.
MONOTONE_RULES = {RULE_NULL_DEREF, RULE_DANGLING, RULE_CONFLICT}


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("fixture", sorted(ALL_FIXTURES))
def test_every_provider_lints_every_fixture(provider, fixture):
    report = run_lint(ALL_FIXTURES[fixture], provider=provider, k=2)
    assert report.provider == provider
    for finding in report.findings:
        assert finding.rule in RULE_CATALOG
        assert finding.severity in SEVERITIES
        assert finding.provider == provider


@pytest.mark.parametrize("fixture", sorted(ALL_FIXTURES))
def test_lr_findings_subset_of_flow_insensitive(fixture):
    source = ALL_FIXTURES[fixture]
    lr = run_lint(source, provider="lr", k=2)
    weihl = run_lint(source, provider="weihl", k=2)
    lr_keys = {f.match_key() for f in lr.findings if f.rule in MONOTONE_RULES}
    weihl_keys = {f.match_key() for f in weihl.findings if f.rule in MONOTONE_RULES}
    assert lr_keys <= weihl_keys

    # The uninit detector only reads aliases to refine severities, so
    # the flagged variables are provider-independent.
    lr_uninit = {f.match_key() for f in lr.findings if f.rule == RULE_UNINIT}
    weihl_uninit = {f.match_key() for f in weihl.findings if f.rule == RULE_UNINIT}
    assert lr_uninit == weihl_uninit


def test_unknown_provider_rejected():
    with pytest.raises(ValueError, match="unknown provider"):
        run_lint("int main() { return 0; }", provider="steensgaard")


def test_prebuilt_solution_short_circuits_provider():
    source = ALL_FIXTURES["figure1"]
    lint_input = LintInput.from_source(source)
    solution = make_provider("lr", lint_input.analyzed, lint_input.icfg, k=2)
    via_solution = run_lint(lint_input, solution=solution, k=2)
    from_scratch = run_lint(source, provider="lr", k=2)
    assert [str(f) for f in via_solution.findings] == [
        str(f) for f in from_scratch.findings
    ]


def test_comparison_tags_only_sensitive_rules():
    source = (
        "int main() { int *p; int x; p = NULL; x = *p + *p; return x; }"
    )
    report = run_lint(source, compare_with="weihl")
    assert report.compared_with == "weihl"
    for finding in report.findings:
        if finding.rule == RULE_UNINIT:
            assert finding.also_weihl is None
        else:
            assert finding.also_weihl is not None


def test_self_check_is_clean():
    assert self_check() == []


def test_weihl_provider_honors_k():
    from repro import parse_and_analyze
    from repro.baselines.weihl import weihl_aliases
    from repro.icfg.builder import build_icfg

    analyzed = parse_and_analyze(ALL_FIXTURES["linked_list"])
    icfg = build_icfg(analyzed)
    provider = make_provider("weihl", analyzed, icfg, k=1)
    node = icfg.nodes[-1]
    assert provider.may_alias(node) == weihl_aliases(analyzed, icfg, k=1).aliases
    assert provider.may_alias(node) != weihl_aliases(analyzed, icfg, k=3).aliases
