"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational equality; the only tolerances are the
stated runtime budgets, asserted against wall-clock time.
"""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hurwitz_tau import cli, verify

GOLDEN_DIR = Path(__file__).parent / "goldens"
REPORT_DIR = Path(__file__).parent.parent / "reports"


def _criterion(number: int, label: str, budget: float | None, results):
    failed = [r for r in results if not r.passed]
    elapsed = sum(r.seconds for r in results)
    status = "PASS" if not failed else "FAIL"
    print(f"{status} criterion {number}: {label} ({elapsed:.1f}s)")
    for r in results:
        print(f"    {r.line()}")
    assert not failed, f"criterion {number} failed: {[r.name for r in failed]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def _run(checks, *names):
    """Run a suite's checks (only the named ones, when names are given)
    through verify._run, in the suite's order."""
    return [verify._run(name, fn) for name, fn in checks if not names or name in names]


def test_criterion_1_characters():
    results = _run(verify.characters_suite(8))
    wanted = (
        "characters.orthogonality",
        "characters.alternant_oracle",
        "characters.alternant_ratio_points",
    )
    assert {r.name for r in results} >= set(wanted)
    _criterion(
        1,
        "orthogonality and chi(Id)=n!/h exact for n<=8; border-strip vs alternant oracle n<=6",
        30.0,
        results,
    )


def test_criterion_2_center():
    results = _run(verify.center_suite(8))
    _criterion(
        2,
        "basis round trips n<=8; idempotents n<=6; JM class identities and C2*C2 for 4<=n<=7",
        120.0,
        results,
    )


def test_criterion_3_walk_equality():
    results = _run(verify.walks_suite(6))
    _criterion(
        3,
        "character-sum coefficients = brute-force counts, all families, n<=5 (+n=6 spots)",
        300.0,
        results,
    )


def test_criterion_4_twisted_cauchy():
    results = _run(verify.tau_suite(6), "tau.twisted_cauchy", "tau.vacuum_cauchy")
    _criterion(
        4,
        "corrected twisted Cauchy-Littlewood identity, n<=6, coefficients and 3-variable points",
        120.0,
        results,
    )


def test_criterion_5_intertwining():
    results = _run(verify.tau_suite(8), "tau.intertwining_theorem", "tau.alpha_q_family")
    _criterion(
        5,
        "r_lambda(0) q^|lam| = content product and determinant route = Schur side"
        " for every walk-kind twist, H and H*H; alpha-q branches = closed form",
        60.0,
        results,
    )


def test_criterion_6_hciz_determinant():
    results = _run(verify.tau_suite(), "tau.hciz_determinant")
    assert results
    _criterion(
        6,
        "determinant route = Schur expansion through z^6 for N=1,2,3",
        60.0,
        results,
    )


def test_criterion_7_connectivity():
    # n <= 6, one above the tau suite's ceiling for this check
    def connectivity():
        verify._table_matches_oracle("plain", 6, 4, connected=True)
        verify._table_matches_oracle("monotone", 6, 5, connected=True)
        return "log tau = transitive counts (plain b<=4, monotone k<=5), n<=6"

    results = [verify._run("tau.log_connectivity", connectivity)]
    results += _run(verify.tau_suite(), "tau.exp_log_roundtrip")
    _criterion(
        7,
        "log tau coefficients = transitive counts (plain b<=4, monotone k<=5), n<=6",
        300.0,
        results,
    )


def test_criterion_8_multimonotone_table():
    start = time.perf_counter()
    results = _run(verify.tau_suite(5), "tau.multimonotone_table")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["table", "--family", "multi", "--nmax", "5", "--kmax", "4"])
    fresh = json.loads(out.getvalue()) if code == 0 else None
    golden_path = GOLDEN_DIR / "multimonotone_table.json"
    golden = json.loads(golden_path.read_text())
    matches = fresh == golden
    elapsed = time.perf_counter() - start
    status = "PASS" if (matches and all(r.passed for r in results)) else "FAIL"
    print(f"{status} criterion 8: multimonotone table = oracle and committed golden ({elapsed:.1f}s)")
    for r in results:
        print(f"    {r.line()}")
    assert all(r.passed for r in results)
    assert matches, "regenerated multimonotone table differs from the committed golden"
    assert elapsed < 120.0


def test_criterion_9_alpha_q_report():
    start = time.perf_counter()
    report_path = REPORT_DIR / "alpha_q_determinant.json"
    assert report_path.exists(), "exploratory report artifact missing"
    committed = report_path.read_bytes()
    regenerated = (json.dumps(verify.build_alpha_q_report(), indent=2) + "\n").encode()
    elapsed = time.perf_counter() - start
    ok = committed == regenerated
    print(f"{'PASS' if ok else 'FAIL'} criterion 9: alpha-q determinant report committed and reproducible ({elapsed:.1f}s)")
    assert ok, "committed report is stale; regenerate via verify.build_alpha_q_report()"
    # the report must resolve or document the parenthesization question
    report = json.loads(committed)
    assert "resolution" in report and report["cases"]
    assert (REPORT_DIR / "alpha_q_determinant.md").exists()
