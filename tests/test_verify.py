import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz_tau import center, groupalg, symfunc, tauseries, twists, verify
from hurwitz_tau.series import TruncSeries

GOLDEN = Path(__file__).parent / "goldens" / "verify_all.json"


def _run_named(checks, *names):
    """{name: CheckResult} of the named checks of a suite's list, run through
    verify._run in the suite's order."""
    return {name: verify._run(name, fn) for name, fn in checks if name in names}


def test_verify_checks_survive_python_O():
    # a corrupted walk oracle must fail the sweep even with asserts stripped
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(repo, "src"), env.get("PYTHONPATH")])
    )
    script = (
        "from hurwitz_tau import verify\n"
        "verify.graded_walks_to = lambda n, end, segments, *args: [{}] * (segments[0].length + 1)\n"
        "results = {r.name: r for r in verify.run_suite('walks', nmax=2)}\n"
        "print(__debug__, results['walks.twist_vs_oracle'].passed)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        cwd=repo,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.parametrize(
    ("suite", "nmax"),
    [("characters", -1), ("walks", 0), ("all", 3), ("characters", 11), ("center", 11)],
)
def test_run_suite_rejects_bad_nmax(suite, nmax):
    # below 1 nothing would be checked, 0 used to mean the default, and
    # "all" runs fixed sizes
    with pytest.raises(ValueError):
        verify.run_suite(suite, nmax=nmax)


def test_run_suite_nmax_sets_the_size():
    results = verify.run_suite("characters", nmax=1)
    assert all(r.passed for r in results)
    assert "n<=1" in next(r for r in results if r.name == "characters.orthogonality").detail


def test_run_suite_nmax_sets_the_intertwining_size():
    results = verify.run_suite("tau", nmax=2)
    assert all(r.passed for r in results)
    check = next(r for r in results if r.name == "tau.intertwining_theorem")
    assert check.detail.endswith("|lam|<=2")
    direct = _run_named(verify.tau_suite(3), "tau.intertwining_theorem")
    assert direct["tau.intertwining_theorem"].detail.endswith("|lam|<=3")


def test_intertwining_check_never_multiplies_by_one(monkeypatch):
    # r_0(N), r_lambda, rho_j, the atom factors, the q grading and the
    # determinant's first row all start from their first real factor: a
    # series product by one would be a whole packed product for nothing
    calls, by_one = [], []
    original = TruncSeries.__mul__

    def counting(self, other):
        calls.append(self)
        if isinstance(other, TruncSeries) and self.space.one() in (self, other):
            by_one.append((self, other))
        return original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    monkeypatch.setattr(TruncSeries, "__rmul__", counting)
    results = _run_named(
        verify.tau_suite(), "tau.intertwining_theorem", "tau.okounkov_exponent_law"
    )
    assert [r.passed for r in results.values()] == [True, True]
    assert len(calls) > 500
    assert by_one == []


def _idempotents_check():
    return _run_named(verify.center_suite(4), "center.idempotents")["center.idempotents"]


def test_idempotents_check_catches_a_wrong_structure_constant(monkeypatch):
    counted = center.class_structure_constants

    def off_by_one(n):
        constants = counted(n)
        if n == 4:
            row = constants[((2, 1, 1), (2, 1, 1))]
            row[(1, 1, 1, 1)] += 1
        return constants

    assert _idempotents_check().passed
    monkeypatch.setattr(center, "class_structure_constants", off_by_one)
    check = _idempotents_check()
    assert not check.passed
    assert "fails at n=4" in check.detail


def test_idempotents_check_requires_integral_scaling(monkeypatch):
    # with h_lam replaced by 1, F_(2) = (C_(1,1) + C_(2))/2 is not integral
    monkeypatch.setattr(verify, "hook_product", lambda lam: 1)
    check = _idempotents_check()
    assert not check.passed
    assert check.detail == "h_(2,) F_(2,) is not integral at n=2"


def test_alternant_checks_catch_a_wrong_character(monkeypatch):
    # each oracle value is computed once per mu or per point set; one wrong
    # n = 6 entry must still fail both alternant checks
    exact = verify.character

    def off_by_one(lam, mu):
        return exact(lam, mu) + ((lam, mu) == ((3, 2, 1), (2, 2, 1, 1)))

    def alternant_checks():
        checks = verify.characters_suite(6)
        return {name: verify._run(name, fn) for name, fn in checks if "alternant" in name}

    assert all(r.passed for r in alternant_checks().values())
    monkeypatch.setattr(verify, "character", off_by_one)
    checks = alternant_checks()
    assert set(checks) == {"characters.alternant_oracle", "characters.alternant_ratio_points"}
    oracle, ratio = checks["characters.alternant_oracle"], checks["characters.alternant_ratio_points"]
    assert not oracle.passed and "chi_(3, 2, 1)((2, 2, 1, 1))" in oracle.detail
    assert not ratio.passed and "n=6, (2, 2, 1, 1)" in ratio.detail


def test_schur_checks_catch_a_wrong_schur_value(monkeypatch):
    # one wrong n = 5 value of the table the tau command prints must fail
    # both the oracle check and the Cauchy check
    exact = symfunc.schur_values

    def off_by_one(xs, n_max):
        values = exact(xs, n_max)
        if n_max >= 5:
            values[(3, 2)] = values.get((3, 2), 0) + 1
        return values

    def schur_checks():
        return _run_named(
            verify.characters_suite(), "characters.cauchy_littlewood", "characters.schur_evaluation"
        )

    assert all(r.passed for r in schur_checks().values())
    monkeypatch.setattr(symfunc, "schur_values", off_by_one)
    cauchy, evaluation = schur_checks().values()
    assert not cauchy.passed and cauchy.detail == "Cauchy identity fails at n=5"
    assert not evaluation.passed and "at (3, 2)" in evaluation.detail


def test_alpha_q_report_check_requires_every_match(monkeypatch):
    # the fourth of the report's six cases (N = 2, alpha = 1/2) reads as a
    # mismatch; the check passed such a report while every flag was a bool
    exact = tauseries.alpha_q_determinant
    calls = []

    def one_flipped(*args):
        case = exact(*args)
        calls.append(case)
        if len(calls) == 4:
            case["entrywise_matches_schur_expansion"] = False
        return case

    def report_check():
        return _run_named(verify.tau_suite(), "tau.alpha_q_report")["tau.alpha_q_report"]

    assert report_check().passed
    monkeypatch.setattr(tauseries, "alpha_q_determinant", one_flipped)
    check = report_check()
    assert len(calls) == 6
    assert not check.passed and "misses the Schur expansion" in check.detail


def test_point_value_checks_read_the_tables(monkeypatch):
    # p_lam and S_nu at points come from powersum_products and schur_values,
    # never from the p-basis evaluate (which the ring-hom check still uses)
    calls = []
    original = symfunc.evaluate

    def counting(f, xs):
        calls.append(f)
        return original(f, xs)

    monkeypatch.setattr(symfunc, "evaluate", counting)
    names = (
        "characters.alternant_ratio_points",
        "characters.cauchy_littlewood",
        "characters.schur_evaluation",
    )
    results = _run_named(verify.characters_suite(), *names)
    results.update(_run_named(verify.tau_suite(), "tau.twisted_cauchy"))
    assert len(results) == 4 and all(r.passed for r in results.values())
    assert calls == []
    assert _run_named(verify.characters_suite(), "characters.evaluation_ring_hom")[
        "characters.evaluation_ring_hom"
    ].passed
    assert calls


def test_default_lists_are_verify_all(monkeypatch):
    # first no check runs: the runner is replaced by one that only records
    # names; then verify all runs for real against the committed golden
    monkeypatch.setattr(verify, "_run", lambda name, fn: verify.CheckResult(name, True, 0.0))
    lists = {
        "characters": verify.characters_suite(),
        "center": verify.center_suite(),
        "walks": verify.walks_suite(),
        "tau": verify.tau_suite(),
    }
    names = [name for checks in lists.values() for name, _ in checks]
    assert [r.name for r in verify.run_suite("all")] == names
    assert len(names) == len(set(names)) == 36
    for suite, checks in lists.items():
        assert all(name.startswith(suite + ".") for name, _ in checks)
        assert [r.name for r in verify.run_suite(suite)] == [name for name, _ in checks]
    monkeypatch.undo()
    results = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in verify.run_suite("all")
    ]
    assert results == json.loads(GOLDEN.read_text())


def test_nmax_clamps_each_check_at_its_ceiling():
    results = {r.name: r for r in verify.run_suite("center", nmax=2)}
    assert all(r.passed for r in results.values())
    assert results["center.basis_roundtrips"].detail.endswith("n<=2")
    assert "walks.n6_spot_checks" not in dict(verify.walks_suite(5))
    assert "walks.n6_spot_checks" in dict(verify.walks_suite(6))


def test_symmetry_check_fails_on_an_asymmetric_oracle_count(monkeypatch):
    # one count off by one, from C_(1,1,1) to the 3-cycle at n = 3, breaks
    # D(lam, mu) Z_lam = D(mu, lam) Z_mu
    graded = verify.graded_walks_to

    def skewed(n, end, segments, *args):
        layers = graded(n, end, segments, *args)
        if n == 3 and groupalg.cycle_type(end) == (3,):
            for column in layers:
                column[1, 1, 1] = column.get((1, 1, 1), 0) + 1
        return layers

    monkeypatch.setattr(verify, "graded_walks_to", skewed)
    check = _run_named(verify.walks_suite(), "walks.symmetry")["walks.symmetry"]
    assert not check.passed
    assert check.detail.startswith("symmetry fails at n=3, (1, 1, 1)->(3,)")


def test_class_dp_check_builds_each_class_matrix_once():
    # 440 class-DP counts over n <= 5 read one cached matrix per n
    groupalg.transposition_class_matrix.cache_clear()
    check = _run_named(verify.walks_suite(), "walks.plain_class_dp")["walks.plain_class_dp"]
    assert check.passed
    assert groupalg.transposition_class_matrix.cache_info().misses == 5


def test_reparametrization_check_reads_the_library_eigenvalue(monkeypatch):
    # an E(w_1)...E(w_m) eigenvalue that is wrong at (2, 1) must fail the check
    exact = verify.twist_eigenvalue

    def reparametrization():
        name = "tau.multimonotone_reparametrization"
        return _run_named(verify.tau_suite(), name)[name]

    assert reparametrization().passed
    monkeypatch.setattr(
        verify, "twist_eigenvalue", lambda spec, lam: exact(spec, lam) * (1 + (lam == (2, 1)))
    )
    check = reparametrization()
    assert not check.passed and "at (2, 1)" in check.detail


@pytest.mark.parametrize(
    ("family", "names"),
    [
        (twists.AlphaQConvolution, ("tau.alpha_q_family", "tau.alpha_q_report")),
        (twists.ExpConvolution, ("tau.hciz_determinant",)),
    ],
    ids=("alpha_q", "exp"),
)
def test_a_wrong_weight_fails_its_family_checks(monkeypatch, family, names):
    # a family is its r_j: rho and r_0(N) derive from r, so a wrong r_2 must
    # reach the determinant route and fail against the closed forms
    assert all(r.passed for r in _run_named(verify.tau_suite(), *names).values())
    exact = family.r
    monkeypatch.setattr(family, "r", lambda self, j: exact(self, j) * (1 + (j == 2)))
    results = _run_named(verify.tau_suite(), *names)
    assert set(results) == set(names)
    assert not any(r.passed for r in results.values())


def test_a_shifted_rho_fails_the_intertwining_check(monkeypatch):
    # rho_1 read as rho_2: the determinant route of every graded family at
    # N = 1 then misses the Schur side
    name = "tau.intertwining_theorem"
    assert _run_named(verify.tau_suite(), name)[name].passed
    exact = twists.ConvolutionCoeffs.rho
    monkeypatch.setattr(twists.ConvolutionCoeffs, "rho", lambda self, j: exact(self, j + (j == 1)))
    check = _run_named(verify.tau_suite(), name)[name]
    assert not check.passed and "determinant route fails at N=1" in check.detail


def test_a_leading_power_off_by_one_fails_the_point_checks(monkeypatch):
    # AtPoints.leading_power is the one N(N-1)/2 of every family at N
    # points: one more fails the hciz determinant and the graded twists'
    # determinant route
    names = ("tau.hciz_determinant", "tau.intertwining_theorem")
    assert all(r.passed for r in _run_named(verify.tau_suite(), *names).values())
    power = twists.AtPoints.leading_power
    monkeypatch.setattr(twists.AtPoints, "leading_power", staticmethod(lambda N: power(N) + 1))
    results = _run_named(verify.tau_suite(), *names)
    assert set(results) == set(names)
    assert not any(r.passed for r in results.values())
