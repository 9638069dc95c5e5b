"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion delegates to the verification harness (which is also what
`tangleforge verify` runs), so the CLI and the test suite certify the same
invariants. Runtime budgets from the criteria are asserted where stated.

One census number is pinned to the value its own stated oracle derives: the
two-K4 fixture has three regular robust principal 2-profiles (the two K4
profiles plus the bridge-edge profile), not two; the unpruned orientation
scan is authoritative here and the unit suite cross-checks it twice.
"""

from tangleforge.verify import (
    suite_fish_corner,
    suite_lattice_tight,
    suite_profile_census,
    suite_profinite_random,
    suite_splinter_random,
    suite_thin_splinter,
    suite_canonical_separators,
    suite_separations_from_separators,
    suite_totd,
    suite_treeset_roundtrip,
    suite_universe_axioms,
)

SEED = 7


def report(result, budget=None):
    status = "PASS" if result.ok else "FAIL"
    line = f"[{status}] {result.name} ({result.seconds:.2f}s): {result.detail}"
    print(line)
    assert result.ok, result.detail
    if budget is not None:
        assert result.seconds < budget, f"{result.name} exceeded {budget}s budget"


def test_criterion_universe_axioms():
    report(suite_universe_axioms(SEED), budget=5.0)


def test_criterion_fish_and_corner_nestedness():
    report(suite_fish_corner(SEED), budget=30.0)


def test_criterion_profile_census():
    report(suite_profile_census(SEED))


def test_criterion_lattice_and_tightness():
    report(suite_lattice_tight(SEED))


def test_criterion_finite_splinter_random():
    report(suite_splinter_random(SEED))


def test_criterion_thin_splinter_fixtures():
    report(suite_thin_splinter(SEED))


def test_criterion_profinite_splinter_random():
    report(suite_profinite_random(SEED))


def test_criterion_canonical_separators():
    report(suite_canonical_separators(SEED))


def test_criterion_separations_from_separators():
    report(suite_separations_from_separators(SEED))


def test_criterion_treeset_roundtrip():
    report(suite_treeset_roundtrip(SEED))


def test_criterion_totd():
    report(suite_totd(SEED), budget=10.0)


def test_cli_verify_all_exits_zero(capsys):
    from tangleforge.cli import cli_main

    code = cli_main(["verify", "--all", "--seed", str(SEED)])
    captured = capsys.readouterr()
    print(captured.err)
    assert code == 0
