import hashlib
import json
import random
import re
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau import symfunc, tauseries
from hurwitz_tau.errors import VandermondeError
from hurwitz_tau.groupalg import (
    WalkQuery,
    count_walks,
    multi_monotone,
    plain,
    weakly_monotone,
)
from hurwitz_tau.oracles import cauchy_kernel_coeff, random_rationals
from hurwitz_tau.partitions import partitions_of, z_of
from hurwitz_tau.series import SeriesSpace, TruncSeries, series_json
from hurwitz_tau.symfunc import TensorSymFunc, powersum_products
from hurwitz_tau.twists import (
    AlphaQConvolution,
    AtPoints,
    E,
    H,
    alpha_q_coeff,
    twist_at_points,
)
from hurwitz_tau.tauseries import (
    WALK_KINDS,
    alpha_q_determinant,
    alpha_q_tau,
    alpha_q_family,
    determinant,
    exp_tensor,
    family_determinant,
    hciz_determinant,
    hciz_family,
    hciz_tau,
    hurwitz_table,
    log_tau,
    monotone_tau,
    okounkov_tau,
    tau_at_points,
    tau_eval,
    tau_eval_schur_side,
    twist_tau,
    vacuum_tau,
    vandermonde,
)


def test_vacuum_tau_is_cauchy_kernel():
    t = vacuum_tau(4)
    xs = [Fraction(1), Fraction(1, 2)]
    ys = [Fraction(1, 3), Fraction(2)]
    total = tau_eval(t, xs, ys).constant_term()
    assert total == sum(cauchy_kernel_coeff(n, xs, ys) for n in range(5))
    # constant term of the double series is 1
    assert t.tensor.coeff((), ()).constant_term() == 1


def _walk_value(t, lam, mu):
    """D(lam, mu) = Z_mu c(lam, mu): the walk counts of the class pair."""
    value = t.tensor.coeff(lam, mu)
    return t.space.zero() if value is None else value * z_of(mu)


def test_okounkov_tau_counts_plain_walks():
    t = okounkov_tau(4, 3)
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                series = _walk_value(t, lam, mu)
                for b in range(4):
                    got = series.coeff(q=n, beta=b) * factorial(b)
                    assert got == count_walks(WalkQuery(n, lam, mu, plain(b)))


def test_monotone_tau_counts_weak_walks():
    t = monotone_tau(4, 4)
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                series = _walk_value(t, lam, mu)
                for k in range(5):
                    assert series.coeff(q=n, z=k) == count_walks(
                        WalkQuery(n, lam, mu, weakly_monotone(k))
                    )


def test_hciz_n1_is_exponential():
    t = hciz_tau(1, 6, 6)
    s = tau_eval(t, [Fraction(2)], [Fraction(3)])
    for k in range(7):
        assert s.coeff(z=k) == Fraction((-6) ** k, factorial(k))


def test_hciz_determinant_identity():
    rng = random.Random(23)
    for N in (1, 2, 3, 4):
        a_vals = random_rationals(rng, N, distinct=True)
        b_vals = random_rationals(rng, N, distinct=True)
        t = hciz_tau(N, 6, 6)
        det_side = hciz_determinant(N, a_vals, b_vals, 6)
        schur_side = tau_eval(t, a_vals, b_vals)
        assert det_side == schur_side
        assert schur_side == tau_eval_schur_side(t, a_vals, b_vals)


ALPHAS = (Fraction(1, 2), Fraction(-3), Fraction(7, 3))
TAU_POINT_CASES = [("hciz", None, N, N + 4) for N in range(1, 5)] + [
    ("alpha_q", alpha, N, N + 4) for alpha in ALPHAS for N in range(5)
]


@pytest.mark.parametrize("family, alpha, N, cap", TAU_POINT_CASES, ids=str)
def test_tau_at_points_equals_the_tensor_routes(family, alpha, N, cap):
    # the Schur-diagonal route against the power-sum tensor (tau_eval) and
    # the per-nu p-basis Schur values (tau_eval_schur_side), at distinct
    # points with a negative one and at repeated points with a zero
    if family == "hciz":
        view, t = hciz_family(N, cap), hciz_tau(N, cap)
    else:
        view, t = alpha_q_family(alpha, N, cap), alpha_q_tau(alpha, N, cap)
    rng = random.Random(f"{family}/{alpha}/{N}")
    a_vals = random_rationals(rng, N, distinct=True)
    b_vals = random_rationals(rng, N, distinct=True)
    a_vals[:1] = [-abs(x) for x in a_vals[:1]]
    repeated = (a_vals[:1] * N, ([Fraction(0)] + b_vals[:1] * N)[:N])
    for a, b in ((a_vals, b_vals), repeated):
        got = view.printed(tau_at_points(view.space, cap, view.r_of, a, b))
        assert got.space == t.space and got == tau_eval(t, a, b)
        assert got == tau_eval_schur_side(t, a, b)


def test_tau_at_points_never_asks_for_vanishing_nu():
    view = hciz_family(2, 6)
    space, r_of = view.space, view.r_of
    asked = []
    tau_at_points(space, 6, lambda nu: asked.append(nu) or r_of(nu), [1, -2], [Fraction(1, 3), 5])
    assert len(asked) == sum(len(lam) <= 2 for n in range(7) for lam in partitions_of(n))
    # one side at a single nonzero point: only the one-row nu survive
    asked.clear()
    tau_at_points(space, 6, lambda nu: asked.append(nu) or r_of(nu), [0, 3], [1, -2])
    assert asked == [()] + [(n,) for n in range(1, 7)]


@pytest.mark.parametrize("n_max", (-1, 9))
def test_tau_at_points_rejects_n_max_out_of_range(n_max):
    view = hciz_family(1, 5)
    with pytest.raises(ValueError, match="n_max"):
        tau_at_points(view.space, n_max, view.r_of, [1], [2])


def test_hciz_determinant_0_1_points():
    # det reduces to e^{-2z} - 1 over a unit Vandermonde; after the monomial
    # normalisation the coefficients are (-2)^k/(k+1)!
    d = hciz_determinant(2, [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)], 6)
    for k in range(7):
        assert d.coeff(z=k) == Fraction((-2) ** k, factorial(k + 1))


def test_hciz_determinant_at_seven_points_keeps_its_denominator_reduced():
    # past N = 5 a product denominator left unreduced grows as the product
    # of its factors'; points with distinct prime denominators make that
    # growth largest.  The determinant equals the Schur diagonal, both held
    # in lowest terms.
    a_vals = [Fraction(k + 1, p) for k, p in enumerate((2, 3, 5, 7, 11, 13, 17))]
    b_vals = [Fraction(-k - 2, p) for k, p in enumerate((19, 23, 29, 31, 37, 41, 43))]
    det = hciz_determinant(7, a_vals, b_vals, 5)
    view = hciz_family(7, 5)
    want = view.printed(tau_at_points(view.space, 5, view.r_of, a_vals, b_vals))
    assert det == want and det.terms == want.terms and len(det.terms) == 6
    assert det.den > 0 and gcd(det.den, *det.nums.values()) == 1


def _warm_fraction_count(monkeypatch, build) -> int:
    """The Fractions a second, warm build() constructs."""
    build()
    count, new = [0], Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    build()
    monkeypatch.undo()
    return count[0]


def test_tau_routes_build_no_fraction_per_series_term(monkeypatch):
    # series hold integer numerators over one denominator, so the tau routes
    # construct a Fraction only for an input point, a scalar or a closed
    # form: 48 and 7 on CPython 3.11, where one Fraction per series
    # term made 479 and 574
    a = [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5)]
    b = [Fraction(5, 7), Fraction(-1, 4), Fraction(4, 9)]
    assert _warm_fraction_count(monkeypatch, lambda: hciz_determinant(3, a, b, 5)) <= 64
    table = _warm_fraction_count(monkeypatch, lambda: hurwitz_table("plain", 6, 4, connected=True))
    assert table <= 16


def test_vandermonde_guard():
    with pytest.raises(VandermondeError):
        vandermonde([1, 1, 2])
    with pytest.raises(VandermondeError):
        hciz_determinant(2, [Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)], 4)


def test_bareiss_against_cofactor_expansion():
    space = SeriesSpace(("z",), (6,))
    rng = random.Random(3)

    def random_series(space):
        return space.scalar(rng.randint(1, 4)) + space.monomial(
            rng.randint(-3, 3), z=1
        ) + space.monomial(rng.randint(-2, 2), z=2)

    for trial in range(5):
        m = [[random_series(space) for _ in range(3)] for _ in range(3)]
        assert determinant(m) == _cofactor_expansion(m)
    # zero entries, a zero first entry and leading minors that vanish
    wide = SeriesSpace(("z",), (12,))
    zero = wide.zero()
    for trial in range(60):
        size_n = 2 + trial % 3
        m = [[random_series(wide) if rng.random() < 0.6 else zero for _ in range(size_n)]
             for _ in range(size_n)]
        m[0][0] = zero if trial % 2 else m[0][0]
        assert determinant(m) == _cofactor_expansion(m)
    one, two = wide.one(), wide.scalar(2)
    swapped_late = [[one, one, two], [one, one, one], [two, one, one]]  # leading 2x2 minor 0
    singular = [[zero, one, two], [zero, two, one], [zero, one, one]]  # a column of zeros
    for m in (swapped_late, singular):
        assert determinant(m) == _cofactor_expansion(m)
    assert determinant(singular).is_zero()
    # entries without constant term at cap 6: nothing is divided, so the
    # determinant stays in the input space and is exact to its cap
    for trial in range(150):
        m = [[space.zero() if rng.random() < 0.4 else sum(
                (space.monomial(rng.randint(-3, 3), z=d) for d in range(3)), space.zero())
              for _ in range(4)] for _ in range(4)]
        got = determinant(m)
        assert got.space == space and got == _cofactor_expansion(m)
    # a column of zeros after a leading minor without constant term: the
    # z^1 coefficient is known too
    low = SeriesSpace(("z",), (1,))
    z, c = low.monomial(1, z=1), low.scalar
    m = [[c(2), c(0), -z, c(0)], [c(-1) + z, c(0), z * 2, c(-1)],
         [c(0), z, c(0), c(2) - z], [c(2), c(1), c(0), z * 2]]
    got = determinant(m)
    assert got.space == low and got == _cofactor_expansion(m)
    assert got.coeff(z=1) != 0


def test_determinant_over_two_parameters():
    # leading minors divisible by y as well as by z: a division by them
    # would need y inverted; the expansion divides by nothing and agrees
    # with the cofactor expansion in the full space
    space = SeriesSpace(("z", "y"), (4, 1))
    rng = random.Random(63)

    def random_series():
        terms = {(d, e): Fraction(rng.randint(-3, 3)) for d in range(3) for e in range(2)
                 if rng.random() < 0.5}
        return TruncSeries(space, terms)

    for trial in range(100):
        size_n = 2 + trial % 4
        m = [[random_series() for _ in range(size_n)] for _ in range(size_n)]
        got = determinant(m)
        assert got.space == space and got == _cofactor_expansion(m)


def _cofactor_expansion(m):
    """det m by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = m[0][0].space.zero()
    for j, entry in enumerate(m[0]):
        minor = _cofactor_expansion([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + entry * minor * (-1) ** j
    return total


def test_bareiss_inverts_each_pivot_once(monkeypatch):
    # the determinant route divides by no series: no inverse at all
    calls = []
    inverse = TruncSeries.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(TruncSeries, "inverse", counting)
    rng = random.Random(31)
    for N in (1, 2, 3, 4, 5):
        a_vals = random_rationals(rng, N, distinct=True)
        b_vals = random_rationals(rng, N, distinct=True)
        hciz_determinant(N, a_vals, b_vals, 8)
        assert calls == [], N


TWIST_ATOMS = {"twist_h": (H("z"),), "twist_e": (E("w1"), E("w2"))}


def _family_case(kind, N, deeper=0):
    """(view, n_max) of one family kind at N points: the pivot capped at
    n_max (and every twist parameter at n_max) from the leading term."""
    n_max = (4 if kind in ("exp", "alpha_q") else 3) + deeper
    if kind == "exp":
        return hciz_family(N, n_max), n_max
    if kind == "alpha_q":
        return alpha_q_family(Fraction(7, 3), N, n_max), n_max
    return twist_at_points(TWIST_ATOMS[kind], N, n_max), n_max


def _shifted(rho):
    """rho_{l+1} in place of rho_l."""
    return lambda l: rho(l + 1)


def _determinant_matches_schur_side(kind, N, shifted=False):
    view, n_max = _family_case(kind, N)
    rng = random.Random(f"{kind}/{N}")
    a_vals = random_rationals(rng, N, distinct=True)
    b_vals = random_rationals(rng, N, distinct=True)
    rho = _shifted(view.rho) if shifted else view.rho
    det = family_determinant(rho, N, a_vals, b_vals, view.space, view.pivot)
    return det == tau_at_points(view.space, n_max, view.r_of, a_vals, b_vals)


FAMILY_KINDS = ("exp", "alpha_q", "twist_h", "twist_e")


@pytest.mark.parametrize("N", (1, 2, 3))
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_determinant_fails_on_a_shifted_rho(kind, N):
    # Cauchy-Binet reads r_lam(N) = prod rho_{lam_i + N - i}: rho_{l+1} in
    # place of rho_l must break the match with the Schur side
    assert _determinant_matches_schur_side(kind, N)
    assert not _determinant_matches_schur_side(kind, N, shifted=True)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_determinant_is_exact_to_the_caps(kind):
    # rho_{l+1} in place of rho_l makes leading minors that vanish deeper
    # than rho_l's; the determinant still agrees, to every cap of its own
    # space, with one taken six degrees deeper
    (view, _), (deep, _) = _family_case(kind, 3), _family_case(kind, 3, deeper=6)
    rng = random.Random(f"short/{kind}")
    a_vals = random_rationals(rng, 3, distinct=True)
    b_vals = random_rationals(rng, 3, distinct=True)
    want = family_determinant(_shifted(deep.rho), 3, a_vals, b_vals, deep.space, deep.pivot)
    got = family_determinant(_shifted(view.rho), 3, a_vals, b_vals, view.space, view.pivot)
    assert got.space == view.space and got == want.truncate_to(view.space)


@pytest.mark.parametrize("kind", ("alpha_q", "twist_h"))
def test_family_determinant_of_no_points_is_one(kind):
    # Cauchy-Binet at N = 0: the empty determinant is 1 = r_0(0)
    view, _ = _family_case(kind, 0)
    assert family_determinant(view.rho, 0, [], [], view.space, view.pivot) == view.space.one()
    assert _determinant_matches_schur_side(kind, 0)


def test_family_determinant_at_five_points():
    # 5 x 5: 75 entry-by-minor products, no division
    rng = random.Random(5)
    a_vals = random_rationals(rng, 5, distinct=True)
    b_vals = random_rationals(rng, 5, distinct=True)
    view = hciz_family(5, 4)
    assert hciz_determinant(5, a_vals, b_vals, 4) == view.printed(
        tau_at_points(view.space, 4, view.r_of, a_vals, b_vals))
    assert _determinant_matches_schur_side("alpha_q", 5)


def test_family_determinant_needs_n_points_per_side():
    space = SeriesSpace(("q",), (4,))
    rho = AlphaQConvolution(Fraction(1, 2), space).rho
    for a_vals, b_vals in (([1], [1, 2]), ([1, 2], [3]), ([1, 2, 3], [4, 5, 6])):
        with pytest.raises(ValueError, match="N evaluation points"):
            family_determinant(rho, 2, a_vals, b_vals, space, "q")
    with pytest.raises(ValueError, match="N evaluation points"):
        hciz_determinant(2, [1], [1, 2], 4)
    with pytest.raises(ValueError, match="N evaluation points"):
        alpha_q_determinant(2, Fraction(1, 2), [1, 2], [3], 4)


def test_alpha_q_determinant_n1_binomial():
    report = alpha_q_determinant(
        1, Fraction(1, 2), [Fraction(2, 3)], [Fraction(1, 5)], 5
    )
    assert report["entrywise_matches_schur_expansion"] is True
    assert report["det_power_reading_defined"] is True


def test_alpha_q_determinant_n2_exploratory():
    report = alpha_q_determinant(
        2,
        Fraction(7, 3),
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1), Fraction(2)],
        5,
    )
    assert report["entrywise_matches_schur_expansion"] is True
    assert report["det_power_reading_defined"] is False


@pytest.mark.parametrize("N, q_cap", [(1, 4), (2, 5), (3, 5), (3, 3), (3, 2), (4, 5)])
def test_alpha_q_determinant_builds_only_the_surviving_sheets(monkeypatch, N, q_cap):
    # r_nu(N) starts at q^(|nu| + N(N-1)/2): the Schur side asks only for
    # |nu| <= q_cap - N(N-1)/2, none when that is negative, and loses nothing
    # against the sum over every |nu| <= q_cap
    alpha = Fraction(1, 2)
    a_vals = [Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3)][:N]
    b_vals = [Fraction(1), Fraction(2), Fraction(1, 5), Fraction(1, 7)][:N]
    asked, r_of = [], AtPoints.r_of

    def recording(view, nu):
        asked.append(nu)
        return r_of(view, nu)

    monkeypatch.setattr(AtPoints, "r_of", recording)
    report = alpha_q_determinant(N, alpha, a_vals, b_vals, q_cap)
    top = q_cap - N * (N - 1) // 2
    assert (max(map(sum, asked)) == top) if top >= 0 else (asked == [])
    # every sheet of the closed form, the oracle of the view
    family = AlphaQConvolution(alpha, SeriesSpace(("q",), (q_cap,)))
    closed = lambda nu: alpha_q_coeff(nu, family, N)  # noqa: E731
    every_sheet = tau_at_points(family.space, q_cap, closed, a_vals, b_vals)
    assert report["schur_expansion"] == series_json(every_sheet)
    assert report["entrywise_matches_schur_expansion"] is True


def test_alpha_q_determinant_rejects_a_q_cap_past_the_tau_cap():
    # no clamp to the cap: a report labelled q_cap 8 would answer another question
    with pytest.raises(ValueError, match="n_max must lie in"):
        alpha_q_determinant(1, Fraction(1, 2), [Fraction(2, 3)], [Fraction(1, 5)], 9)


@pytest.mark.parametrize("N, n_max, q_cap", [(1, 3, 6), (2, 3, 7), (3, 2, 4), (4, 2, 5), (3, 4, 2)])
def test_alpha_q_tau_at_any_q_cap_is_the_closed_form(N, n_max, q_cap):
    # q capped at q_cap on both sides of n_max + N(N-1)/2, and below N(N-1)/2
    # (every r_nu zero): each r_nu is the closed form in that space
    alpha = Fraction(7, 3)
    t = alpha_q_tau(alpha, N, n_max, q_cap)
    family = AlphaQConvolution(alpha, SeriesSpace(("q",), (q_cap,)))
    assert t.space == family.space
    assert all(r == alpha_q_coeff(nu, family, N) for nu, r in t.r.items())
    assert any(r for r in t.r.values()) == (q_cap >= N * (N - 1) // 2)


def test_alpha_q_tau_vanishing_rows():
    t = alpha_q_tau(Fraction(1, 2), 1, 3)
    assert t.r[(1, 1)].is_zero()
    assert not t.r[(2,)].is_zero()


def test_alpha_q_power_sum_and_schur_sides_agree():
    rng = random.Random(41)
    t = alpha_q_tau(Fraction(7, 3), 2, 4)
    a_vals = random_rationals(rng, 2, distinct=True)
    b_vals = random_rationals(rng, 2, distinct=True)
    assert tau_eval(t, a_vals, b_vals) == tau_eval_schur_side(t, a_vals, b_vals)


def test_log_vacuum_matches_log_kernel():
    # grade-n part of log prod 1/(1 - x_a y_b) is sum_{a,b} (x_a y_b)^n / n
    t = vacuum_tau(4)
    log = log_tau(t)
    xs = [Fraction(1, 2), Fraction(1, 3)]
    ys = [Fraction(1, 5), Fraction(3, 2)]
    px, py = powersum_products(xs, 4), powersum_products(ys, 4)
    for n in range(1, 5):
        got = Fraction(0)
        for (lam, mu), coeff in log.terms.items():
            if sum(lam) != n:
                continue
            got += coeff * px[lam] * py[mu]
        want = sum(
            (x * y) ** n / n
            for x in xs
            for y in ys
        )
        assert got == want


def test_log_tau_connected_counts():
    t = okounkov_tau(4, 3)
    log = log_tau(t)
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                series = log.coeff(lam, mu)
                for b in range(4):
                    raw = series.coeff(q=n, beta=b) if series is not None else Fraction(0)
                    got = raw * factorial(b) * z_of(mu)
                    want = count_walks(
                        WalkQuery(n, lam, mu, plain(b), transitive=True)
                    )
                    assert got == want


def test_exp_log_roundtrip():
    t = okounkov_tau(4, 3)
    assert exp_tensor(log_tau(t), 4) == t.tensor


LOG_TAU_DIGESTS = Path(__file__).parent / "goldens" / "log_tau_digests.json"


def _log_tau_cases():
    """(name, tau) for every walk-kind twist and okounkov_tau, monotone_tau
    at n_max 5 and 7, cap 4."""
    for n_max in (5, 7):
        for kind, walk in WALK_KINDS.items():
            yield f"{kind} twist {n_max}", twist_tau(walk.twist(n_max, 4), n_max)
        yield f"okounkov_tau {n_max}", okounkov_tau(n_max, 4)
        yield f"monotone_tau {n_max}", monotone_tau(n_max, 4)


def _terms_digest(tensor):
    """sha256 of the terms sorted by (lam, mu), each coefficient as series_json."""
    terms = [[lam, mu, series_json(c)] for (lam, mu), c in sorted(tensor.terms.items())]
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()


def test_log_tau_matches_the_digests():
    # the sha256 of the log_tau terms of each case, written before the Euler
    # recurrence took its weights as integer multipliers and numerated each
    # slice once, and exp_tensor taking each log back to the tensor
    got = {}
    for name, t in _log_tau_cases():
        log = log_tau(t)
        got[name] = {"log_sha256": _terms_digest(log),
                     "exp_round_trip": exp_tensor(log, t.n_max) == t.tensor}
    assert got == json.loads(LOG_TAU_DIGESTS.read_text())


def test_log_and_exp_numerate_each_slice_once(monkeypatch):
    # the Euler recurrence passes k and -n as integer weights, so no series
    # is multiplied, and each x-degree slice is put over its denominator
    # once, not once per product sum that reads it
    t = okounkov_tau(6, 3)
    calls = []
    numerators = symfunc._numerators

    def counted(f, space):
        calls.append(f)
        return numerators(f, space)

    def refuse(self, other):
        raise AssertionError("a series was multiplied")

    monkeypatch.setattr(symfunc, "_numerators", counted)
    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
    monkeypatch.setattr(TruncSeries, "__rmul__", refuse)
    log = log_tau(t)
    assert 0 < len(calls) <= 2 * (t.n_max + 1)
    calls.clear()
    back = exp_tensor(log, t.n_max)
    assert 0 < len(calls) <= 2 * (t.n_max + 1)
    monkeypatch.undo()
    assert back == t.tensor


def _product(a, b, grade_cap):
    """a b through x-degree grade_cap, one term pair at a time (the oracle
    never calls the packed product it checks)."""
    terms = {}
    for (la, ma), ca in a.terms.items():
        for (lb, mb), cb in b.terms.items():
            if sum(la) + sum(lb) <= grade_cap:
                key = (tuple(sorted(la + lb, reverse=True)), tuple(sorted(ma + mb, reverse=True)))
                terms[key] = terms.get(key, 0) + ca * cb
    return TensorSymFunc(terms)


def _power_sum(u, n_max, coeff):
    """sum_{k >= 0} coeff(k) u^k through x-degree n_max, u without constant
    term: the series definition of log and exp, kept as their oracle."""
    terms, power = {}, TensorSymFunc({((), ()): Fraction(1)})
    for k in range(n_max + 1):
        for key, c in power.terms.items():
            terms[key] = terms.get(key, 0) + c * coeff(k)
        power = _product(power, u, n_max)
    return TensorSymFunc(terms)


def _log_by_power_sum(tensor, n_max):
    u = TensorSymFunc({k: v for k, v in tensor.terms.items() if k != ((), ())})
    return _power_sum(u, n_max, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def _exp_by_power_sum(f, n_max):
    return _power_sum(f, n_max, lambda k: Fraction(1, factorial(k)))


RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
SPACES = (SeriesSpace((), ()), SeriesSpace(("q",), (2,)), SeriesSpace(("q", "z"), (2, 1)))


@st.composite
def sheet_series(draw):
    """(space, n_max, F): n_max <= 5 and F a tensor series with |lam| = |mu|
    in 1..n_max, its coefficients Fractions or series over a space of 0, 1
    or 2 parameters."""
    space = draw(st.sampled_from(SPACES))
    n_max = draw(st.integers(0, 5))
    if draw(st.booleans()):
        coeff = RATIONAL
    else:
        exponent = st.tuples(*(st.integers(0, c) for c in space.caps))
        coeff = st.builds(
            lambda terms: TruncSeries(space, terms),
            st.dictionaries(exponent, RATIONAL, max_size=3),
        )
    key = st.integers(1, max(n_max, 1)).flatmap(
        lambda n: st.tuples(st.sampled_from(partitions_of(n)), st.sampled_from(partitions_of(n)))
    )
    terms = draw(st.dictionaries(key, coeff, max_size=6)) if n_max else {}
    return space, n_max, TensorSymFunc(terms)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(sheet_series())
def test_log_and_exp_match_power_sums(case):
    space, n_max, f = case
    tau = _exp_by_power_sum(f, n_max)
    assert exp_tensor(f, n_max) == tau
    t = SimpleNamespace(tensor=tau, space=space, n_max=n_max)
    log = log_tau(t)
    assert log == _log_by_power_sum(tau, n_max)
    assert exp_tensor(log, n_max) == tau


@settings(derandomize=True, max_examples=20, deadline=None)
@given(sheet_series(), st.sampled_from(partitions_of(0) + partitions_of(1) + partitions_of(2)))
def test_exp_rejects_x_degree_0(case, mu):
    _, n_max, f = case
    terms = dict(f.terms)
    terms[((), mu)] = Fraction(1)
    with pytest.raises(ValueError):
        exp_tensor(TensorSymFunc(terms), n_max)


def test_log_requires_unit_constant():
    t = okounkov_tau(3, 2)
    t.tensor.terms.pop(((), ()))
    with pytest.raises(ValueError):
        log_tau(t)


def test_weak_strict_tau_matches_oracle():
    from hurwitz_tau.groupalg import weak_then_strict

    t = twist_tau(WALK_KINDS["weakstrict"].twist(4, 3), 4)
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                series = _walk_value(t, lam, mu)
                for k in range(3):
                    for l in range(3):
                        got = series.coeff(z=k, w=l)
                        want = count_walks(
                            WalkQuery(n, lam, mu, weak_then_strict(k, l))
                        )
                        assert got == want


def test_multimonotone_tau_matches_oracle():
    t = twist_tau(WALK_KINDS["multi"].twist(4, 3), 4)
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                series = _walk_value(t, lam, mu)
                for d1 in range(3):
                    for d2 in range(3):
                        got = series.coeff(w1=d1, w2=d2)
                        want = count_walks(
                            WalkQuery(n, lam, mu, multi_monotone([d1, d2]))
                        )
                        assert got == want


def test_hurwitz_table_shapes_and_values():
    rows = hurwitz_table("strict", 3, 3)
    assert all(len(row) == 5 and type(row[4]) is int for row in rows)
    by_key = {(n, lam, mu, data["k"]): count for n, lam, mu, data, count in rows}
    assert len(by_key) == len(rows) == 4 * (1 + 4 + 9)
    assert by_key[(3, (1, 1, 1), (3,), 2)] == 1
    # strict walks longer than n-1 vanish
    assert by_key[(2, (2,), (1, 1), 3)] == 0
    plain_rows = hurwitz_table("plain", 3, 2)
    by_key = {(n, lam, mu, data["b"]): count for n, lam, mu, data, count in plain_rows}
    assert by_key[(3, (1, 1, 1), (3,), 2)] == 3


def test_hurwitz_table_connected():
    rows = hurwitz_table("monotone", 3, 3, connected=True)
    by_key = {(n, lam, mu, data["k"]): count for n, lam, mu, data, count in rows}
    for n in range(1, 4):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for k in range(4):
                    want = count_walks(
                        WalkQuery(n, lam, mu, weakly_monotone(k), transitive=True)
                    )
                    assert by_key[(n, lam, mu, k)] == want


@pytest.mark.parametrize("connected", (False, True), ids=("plain", "connected"))
def test_hurwitz_table_rejects_a_non_integral_count(monkeypatch, connected):
    # halve the (1,1) -> (2) coefficient of the source tensor (the twist's
    # for the plain table, the log's for the connected one): its b = 1
    # count, one walk either way, reads 1/2, and the error names the class
    # pair and the step datum
    key = ((1, 1), (2,))

    def halved(tensor):
        return TensorSymFunc({k: v * Fraction(1, 2) if k == key else v
                              for k, v in tensor.terms.items()})

    if connected:
        log = tauseries.log_tau
        monkeypatch.setattr(tauseries, "log_tau", lambda t: halved(log(t)))
    else:
        twist_tau = tauseries.twist_tau

        def tampered(spec, n_max):
            t = twist_tau(spec, n_max)
            t.tensor = halved(t.tensor)
            return t

        monkeypatch.setattr(tauseries, "twist_tau", tampered)
    message = "non-integral count 1/2 at (1, 1)->(2,), {'b': 1}"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        hurwitz_table("plain", 3, 2, connected=connected)
