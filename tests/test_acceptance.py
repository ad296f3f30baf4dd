"""Acceptance gate: one test per shipped claim, each a single pass/fail line.

Each criterion drives the named self-checks from holring.verify (exact
arithmetic throughout, so equality assertions carry no numeric
tolerance; the only pinned tolerances are wall-clock budgets) and
fails with the first offending detail string.
"""

import subprocess
import sys
import time

from holring import verify


def _run_criterion(criterion_results, number: int):
    # each criterion runs once per session, shared with test_verify
    results, elapsed = criterion_results(number)
    assert results, f"criterion {number} selected no checks"
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)
    return results, elapsed


def test_criterion_01_character_tables_exact_and_closed_forms_match(criterion_results):
    # 35-group catalog, both orthogonality relations exactly, closed forms
    # equal to the generic method up to row order, within 60 seconds
    results, elapsed = _run_criterion(criterion_results, 1)
    assert {r.name for r in results} == {"table-orthogonality", "table-closed-forms"}
    assert elapsed < 60.0, f"character table suite took {elapsed:.1f}s"


def test_criterion_02_hybrid_verdicts_with_zero_tolerance(criterion_results):
    results, _ = _run_criterion(criterion_results, 2)
    assert {r.name for r in results} == {"hybrid-verdicts", "weakly-hybrid-verdicts"}


def test_criterion_03_adjoint_identity_on_seeded_matrices(criterion_results):
    # 100 seeded matrices per group over S3, D10, Q8, S4, A4 with exact
    # equality and algebraic-integer coefficients, within 120 seconds
    results, elapsed = _run_criterion(criterion_results, 3)
    assert {r.name for r in results} == {"adjoint-ast-identity"}
    assert elapsed < 120.0, f"adjoint suite took {elapsed:.1f}s"


def test_criterion_04_reduced_norms_multiply_to_regular_determinant(criterion_results):
    results, _ = _run_criterion(criterion_results, 4)
    assert {r.name for r in results} == {
        "regular-det-oracle",
        "char-poly-constant-term",
    }


def test_criterion_05_pinned_norm_identities(criterion_results):
    results, _ = _run_criterion(criterion_results, 5)
    assert {r.name for r in results} == {
        "s4-norm-identities",
        "affine-norm-identities",
    }


def test_criterion_06_central_conductor_against_lattice_oracle(criterion_results):
    results, _ = _run_criterion(criterion_results, 6)
    assert {r.name for r in results} == {
        "conductor-lattice-oracle",
        "conductor-integral-blocks",
    }


def test_criterion_07_defect_zero_characters_vanish_exhaustively(criterion_results):
    results, _ = _run_criterion(criterion_results, 7)
    assert {r.name for r in results} == {"defect-zero-vanishing"}


def test_criterion_08_torsion_facts_and_consistency_sweep(criterion_results):
    results, _ = _run_criterion(criterion_results, 8)
    assert {r.name for r in results} == {"dt-facts", "dt-consistency-sweep"}


def test_criterion_09_conjecture_reports_match_goldens(criterion_results):
    results, _ = _run_criterion(criterion_results, 9)
    assert {r.name for r in results} == {"report-goldens"}


def test_criterion_10_verify_paper_command_aggregates_everything():
    # the shipped command must run the whole suite and exit 0 in under
    # five minutes
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "holring.cli", "verify-paper"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0, f"verify-paper took {elapsed:.1f}s"
    summary = proc.stdout.strip().splitlines()[-1]
    n = len(verify.check_names())
    assert summary == f"{n}/{n} checks passed"
    assert "FAIL" not in proc.stdout
