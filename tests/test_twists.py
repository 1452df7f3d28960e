from fractions import Fraction
from math import factorial

import pytest

from hurwitz_tau import twists
from hurwitz_tau.center import (
    CenterElement,
    class_to_idem,
    idem_to_class,
    unit_class,
    unit_idempotent,
)
from hurwitz_tau.groupalg import WalkQuery, count_walks, plain, weakly_monotone
from hurwitz_tau.partitions import content_sum, partitions_of, pochhammer_partition, size, z_of
from hurwitz_tau.series import SeriesSpace, TruncSeries, series_json
from hurwitz_tau.tauseries import WALK_KINDS, hciz_family, twist_tau
from hurwitz_tau.twists import (
    AlphaQConvolution,
    E,
    Exp,
    ExpConvolution,
    H,
    Scale,
    TwistConvolution,
    TwistSpec,
    alpha_q_coeff,
    apply_twist,
    connection_coeffs,
    connection_text,
    multimonotone_coeff,
    okounkov_coeff,
    symmetry_check,
    twist,
    twist_eigenvalue,
)


def test_h_eigenvalue_on_2_1():
    spec = twist((H("z"),), (6,))
    eig = twist_eigenvalue(spec, (2, 1))
    # contents {-1, 0, 1}: 1/(1-z^2)
    for k in range(7):
        assert eig.coeff(z=k) == (1 if k % 2 == 0 else 0)


def test_e_eigenvalue_on_2_1():
    spec = twist((E("w"),), (6,))
    eig = twist_eigenvalue(spec, (2, 1))
    assert eig.coeff(w=0) == 1
    assert eig.coeff(w=1) == 0
    assert eig.coeff(w=2) == -1
    assert eig.coeff(w=3) == 0


def test_exp_eigenvalue_tracks_size_and_content():
    spec = twist((Exp("q", "beta"),), (6, 4))
    eig = twist_eigenvalue(spec, (2, 1))
    # |lam| = 3 and cont = 0: the eigenvalue is exactly q^3
    assert eig.coeff(q=3) == 1
    assert eig.coeff(q=3, beta=1) == 0
    eig3 = twist_eigenvalue(spec, (3,))
    # cont((3,)) = 3: q^3 e^{3 beta}
    assert eig3.coeff(q=3, beta=2) == Fraction(9, 2)


def test_scale_eigenvalue():
    spec = twist((Scale("q"),), (5,))
    assert twist_eigenvalue(spec, (2, 2)).coeff(q=4) == 1


def test_apply_twist_diagonal_on_idempotents():
    spec = twist((H("z"),), (4,))
    for lam in partitions_of(3):
        twisted = apply_twist(spec, unit_idempotent(3, lam))
        assert class_to_idem(twisted) == {lam: twist_eigenvalue(spec, lam)}


def test_apply_twist_beta_squared_coefficient():
    spec = twist((Exp("q", "beta"),), (3, 2))
    twisted = apply_twist(spec, unit_class(3, (1, 1, 1)))
    series = twisted.coeff((3,))
    # coefficient of beta^2/2 is the 2-step walk count 3
    assert series.coeff(q=3, beta=2) * 2 == 3


def term_by_term_twist(spec, v):
    """The twist of a class-basis element through the idempotent basis,
    converted back by center.idem_to_class over series, one series product
    per character entry."""
    coords = {lam: twists.twist_eigenvalue(spec, lam) * c for lam, c in class_to_idem(v).items()}
    return idem_to_class(v.n, coords)


def assert_matches_term_by_term(spec, v):
    got, want = apply_twist(spec, v), term_by_term_twist(spec, v)
    assert got.coords == want.coords
    return got


@pytest.mark.parametrize("kind", sorted(WALK_KINDS))
def test_packed_apply_twist_matches_the_term_by_term_route(kind):
    for n in range(7):
        spec = WALK_KINDS[kind].twist(n, 4)
        parts = partitions_of(n)
        for mu in parts:
            assert_matches_term_by_term(spec, unit_class(n, mu))
        # a signed combination of classes, over several denominators
        mixed = {mu: Fraction((-1) ** k * (k + 1), k + 2) for k, mu in enumerate(parts)}
        assert_matches_term_by_term(spec, CenterElement(n, mixed))


@pytest.mark.parametrize("sign", (-1, 1))
@pytest.mark.parametrize("magnitude", (1, 7, 2**61 - 1))
@pytest.mark.parametrize("n", range(1, 7))
def test_packed_apply_twist_slot_bound(monkeypatch, n, magnitude, sign):
    # every eigenvalue is +-M on every slot (numerators +-M over the
    # denominator 1 of a twist without Exp).  From C_(1^n) the values are
    # +-M dim_lam / n!, numerators +-M dim_lam D / n! over one denominator D,
    # and the C_(1^n) slot of the result sums them weighted by dim_lam: +-M D.
    # At n <= 2 (every dim 1) that is n! times the largest numerator, the
    # bound the slot width is sized for
    space = SeriesSpace(("z", "w"), (1, 1))
    one = TruncSeries(space, dict.fromkeys(((0, 0), (1, 0), (0, 1), (1, 1)), Fraction(1)))
    numerators = dict.fromkeys(one.terms, sign * magnitude)
    monkeypatch.setattr(twists, "eigenvalue_numerators", lambda spec, lam: numerators)
    spec = twist((H("z"), E("w")), (1, 1))
    assert spec.space() == space and spec.denominator() == 1
    identity = (1,) * n
    got = assert_matches_term_by_term(spec, unit_class(n, identity))
    assert got.coeff(identity).terms == dict.fromkeys(one.terms, Fraction(sign * magnitude))


def test_twisted_cauchy_builds_each_eigenvalue_once(monkeypatch):
    # five families x the 30 partitions of n <= 6: one eigenvalue_numerators
    # call per (spec, lam), shared by connection_coeffs, apply_twist and
    # the point identity's Schur side
    from hurwitz_tau import verify

    calls, build = [], twists.eigenvalue_numerators
    monkeypatch.setattr(
        twists, "eigenvalue_numerators", lambda *args: calls.append(args[1]) or build(*args)
    )
    ((name, check),) = [c for c in verify.tau_suite() if c[0] == "tau.twisted_cauchy"]
    result = verify._run(name, check)
    assert result.passed, result.detail
    assert len(calls) <= 150


def test_space_is_built_once_per_spec():
    spec = WALK_KINDS["mixed"].twist(4, 3)
    assert spec.space() is spec.space()
    assert spec.space() == SeriesSpace(spec.params(), spec.caps)
    # the memo is no field: an equal spec built anew is equal and hashes alike
    again = WALK_KINDS["mixed"].twist(4, 3)
    assert again == spec and hash(again) == hash(spec)


def test_cold_gmatrix_op_builds_one_series_space(monkeypatch, capsys):
    # eigenvalue_numerators and _connection share the fresh spec's space
    from hurwitz_tau import cli

    calls, init = [], SeriesSpace.__init__
    monkeypatch.setattr(
        SeriesSpace, "__init__", lambda self, *args: calls.append(args) or init(self, *args)
    )
    assert cli.main(["gmatrix", "--n", "6", "--twist", "mixed", "--cap", "4"]) == 0
    assert '"entries"' in capsys.readouterr().out
    assert len(calls) == 1


def test_twist_eigenvalue_reads_the_memo_per_spec(monkeypatch):
    spec = WALK_KINDS["mixed"].twist(4, 3)
    for lam in partitions_of(4):
        twist_eigenvalue(spec, lam)
    calls, build = [], twists.eigenvalue_numerators
    monkeypatch.setattr(
        twists, "eigenvalue_numerators", lambda *args: calls.append(args[1]) or build(*args)
    )
    # a list lam hits the entry its tuple made, and the series is the
    # memo's numerators over the spec's denominator
    d = spec.denominator()
    for lam in partitions_of(4):
        want = {e: Fraction(x, d) for e, x in build(spec, lam).items()}
        assert twist_eigenvalue(spec, list(lam)).terms == want
        assert twists.cached_numerators(spec, list(lam)) == build(spec, lam)
    assert calls == []
    # an equal spec built anew starts its own memo
    twist_eigenvalue(WALK_KINDS["mixed"].twist(4, 3), (4,))
    assert calls == [(4,)]


def test_twist_tau_and_connection_coeffs_share_the_memo(monkeypatch):
    # twist_tau reads the spec's memo, so connection_coeffs on the same spec
    # builds no eigenvalue again: one contents() per partition of n <= 4
    calls, contents = [], twists.contents
    monkeypatch.setattr(twists, "contents", lambda lam: calls.append(lam) or contents(lam))
    spec = WALK_KINDS["mixed"].twist(4, 3)
    twist_tau(spec, 4)
    connection_coeffs(spec, 4)
    assert sorted(calls) == sorted(lam for n in range(5) for lam in partitions_of(n))


def test_connection_text_unpacks_each_unordered_total_once(monkeypatch):
    # G_{lam mu} Z_lam and G_{mu lam} Z_mu are one character sum: with the
    # memo warm, connection_text unpacks p(n)(p(n) + 1)/2 totals at n = 6
    spec = WALK_KINDS["mixed"].twist(6, 4)
    want = connection_text(spec, 6)
    calls, unpack = [], twists.unpack
    monkeypatch.setattr(twists, "unpack", lambda *args: calls.append(args) or unpack(*args))
    assert connection_text(spec, 6) == want
    p = len(partitions_of(6))
    assert len(calls) == p * (p + 1) // 2 == 66


@pytest.mark.parametrize("kind", sorted(WALK_KINDS))
def test_gmatrix_route_builds_no_fraction_per_eigenvalue_term(monkeypatch, kind):
    # connection_text packs the memo's integer numerators as they are: from
    # a cold memo it constructs no Fraction in twists, and prints the same
    # text as connection_coeffs' series
    want = {pair: series_json(value)
            for pair, value in connection_coeffs(WALK_KINDS[kind].twist(6, 4), 6).items()}

    def refuse(*args):
        raise AssertionError("a Fraction was constructed on the gmatrix route")

    monkeypatch.setattr(twists, "Fraction", refuse)
    assert connection_text(WALK_KINDS[kind].twist(6, 4), 6) == want


def test_connection_coeffs_computes_z_once_per_partition(monkeypatch):
    calls, z = [], twists.z_of
    monkeypatch.setattr(twists, "z_of", lambda lam: calls.append(lam) or z(lam))
    connection_coeffs(WALK_KINDS["monotone"].twist(6, 3), 6)
    assert sorted(calls) == sorted(partitions_of(6))


def test_connection_coeffs_match_walks_n3():
    spec = twist((Exp("q", "beta"),), (3, 3))
    coeffs = connection_coeffs(spec, 3)
    for lam in partitions_of(3):
        for mu in partitions_of(3):
            for b in range(4):
                got = coeffs[(lam, mu)].coeff(q=3, beta=b) * factorial(b)
                want = count_walks(WalkQuery(3, lam, mu, plain(b)))
                assert got == want
    assert symmetry_check(coeffs, 3)


def test_connection_coeffs_weak_monotone_n4():
    spec = twist((H("z"),), (5,))
    coeffs = connection_coeffs(spec, 4)
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            for k in range(6):
                got = coeffs[(lam, mu)].coeff(z=k)
                want = count_walks(WalkQuery(4, lam, mu, weakly_monotone(k)))
                assert got == want


def test_twist_convolution_rho_branches():
    spec = twist((H("z"),), (6,))
    conv = TwistConvolution(spec)
    space = spec.space()
    assert conv.rho(2) == space.geom(1, "z") * space.geom(2, "z")
    assert conv.rho(0) == space.one()
    assert conv.rho(-1) == space.one()
    assert conv.rho(-2) == space.linear(1, "z")


def test_twist_convolution_rho_by_hand_for_e_and_exp():
    # E: rho_2 = (1 + w)(1 + 2w), rho_{-2} = 1/r_{-1} = 1/(1 - w)
    e = TwistConvolution(twist((E("w"),), (3,)))
    assert e.rho(2) == TruncSeries(e.space, {(0,): 1, (1,): 3, (2,): 2})
    assert e.rho(-2) == TruncSeries(e.space, {(k,): 1 for k in range(4)})
    # Exp: rho_2 = e^{3 beta}, rho_{-2} = e^{beta}; q stays outside rho
    x = TwistConvolution(twist((Exp("q", "beta"),), (2, 3)))
    exp_3beta = {(0, k): Fraction(3**k, factorial(k)) for k in range(4)}
    assert x.rho(2) == TruncSeries(x.space, exp_3beta)
    assert x.rho(-2) == TruncSeries(x.space, {(0, k): Fraction(1, factorial(k)) for k in range(4)})


def _graded_r_lambda_is_eigenvalue(conv, spec, nmax):
    """r_lambda(0) q^{|lam|} = twist_eigenvalue for every |lam| <= nmax."""
    space = spec.space()
    graded = [f.q_param for f in spec.factors if isinstance(f, (Exp, Scale))]
    for n in range(nmax + 1):
        grading = space.monomial(1, **{q: n * graded.count(q) for q in graded})
        for lam in partitions_of(n):
            if conv.r_lambda(lam, 0) * grading != twist_eigenvalue(spec, lam):
                return False
    return True


def test_twist_convolution_eigenvalue_identity():
    for names, caps in ((("z",), (8,)), (("z1", "z2"), (5, 5))):
        spec = twist(tuple(H(z) for z in names), caps)
        assert _graded_r_lambda_is_eigenvalue(TwistConvolution(spec), spec, 6)


@pytest.mark.parametrize("kind", sorted(WALK_KINDS))
def test_twist_convolution_every_walk_kind(kind):
    spec = WALK_KINDS[kind].twist(5, 3)
    assert _graded_r_lambda_is_eigenvalue(TwistConvolution(spec), spec, 5)


@pytest.mark.parametrize("atom", (H("z"), E("w"), Exp("q", "beta")), ids=repr)
def test_shifted_content_fails_the_identity(atom):
    class Shifted(TwistConvolution):
        def r(self, j):
            return super().r(j + 1)

    spec = WALK_KINDS["plain"].twist(4, 3) if isinstance(atom, Exp) else twist((atom,), 3)
    assert _graded_r_lambda_is_eigenvalue(TwistConvolution(spec), spec, 4)
    assert not _graded_r_lambda_is_eigenvalue(Shifted(spec), spec, 4)


def test_twist_convolution_rejects_an_unknown_atom():
    with pytest.raises(TypeError):
        TwistConvolution(TwistSpec((object(),), ()))


def test_h_and_e_eigenvalues_never_multiply_series(monkeypatch):
    # the intertwining check compares r_lambda (series products) against
    # twist_eigenvalue; the two stay independent only while the H and E
    # eigenvalues are built without TruncSeries.__mul__
    calls = []
    original = TruncSeries.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    monkeypatch.setattr(TruncSeries, "__rmul__", counting)
    specs = (
        twist((H("z"),), (8,)),
        twist((H("z1"), H("z2")), (5, 5)),
        twist((H("z"), E("w")), (5, 4)),
    )
    for spec in specs:
        for n in range(7):
            for lam in partitions_of(n):
                twist_eigenvalue(spec, lam)
    assert calls == []
    space = specs[0].space()
    space.geom(1, "z") * space.geom(2, "z")
    assert len(calls) == 1


def test_r0_recursion_across_zero():
    # r_0(N+1) = r_0(N) rho(N) on both sides of N = 0; for N < 0 r_0 divides
    specs = [twist(tuple(H(z) for z in names), 4) for names in (("z",), ("z1", "z2"))]
    specs += [twist((E("w"),), 4), twist((Exp("q", "beta"),), 4)]
    for spec in specs:
        conv = TwistConvolution(spec)
        for N in range(-4, 4):
            assert conv.r_lambda((), N + 1) == conv.r_lambda((), N) * conv.rho(N)


def test_r0_is_built_once_per_n():
    # rho_1..rho_3 (for r_0(4)) and the cells of every lam of 4 at N = 4
    # (r_1..r_7) share one memo: each r_k is built once
    fam = AlphaQConvolution(Fraction(1, 2), SeriesSpace(("q",), (8,)))
    calls, r = [], fam.r
    fam.r = lambda j: calls.append(j) or r(j)
    for lam in partitions_of(4):
        alpha_q_coeff(lam, fam, 4)
        fam.r_lambda(lam, 4)
    assert calls == list(range(1, 8))
    assert fam.r_lambda((), 0) == fam.space.one()


def test_rho_is_the_same_in_any_order():
    # rho fills its memo outward from the nearest known index
    spec = twist((H("z"), E("w")), (4, 3))
    fresh = [TwistConvolution(spec).rho(j) for j in range(-4, 6)]
    conv = TwistConvolution(spec)
    for j in (-2, 3, -4, 5, 0, -1, 1):
        assert conv.rho(j) == fresh[j + 4]
    assert [conv.rho(j) for j in range(-4, 6)] == fresh


def test_exp_convolution_rho_closed_form():
    # r_j = -N z / j (j >= 1) gives rho_j = (-N z)^j / j! (j >= 0), 1 (j < 0)
    space = SeriesSpace(("z",), (6,))
    for N in (1, 2, 3):
        fam = ExpConvolution(N, space)
        for j in range(-3, 9):
            want = space.monomial(Fraction((-N) ** j, factorial(j)), z=j) if j >= 0 else space.one()
            assert fam.rho(j) == want, (N, j)


def test_alpha_q_rho_closed_form():
    # r_j = q (j - alpha)/j (j >= 1) gives rho_j = q^j (1-alpha)_j / j! (j >= 1), 1 (j <= 0)
    space = SeriesSpace(("q",), (6,))
    for alpha in (Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
        fam = AlphaQConvolution(alpha, space)
        for j in range(-3, 9):
            want = space.one()
            if j > 0:
                want = space.monomial(pochhammer_partition(1 - alpha, (j,)) / factorial(j), q=j)
            assert fam.rho(j) == want, (alpha, j)


def test_alpha_q_rejects_positive_integer_alpha():
    space = SeriesSpace(("q",), (8,))
    with pytest.raises(ValueError):
        AlphaQConvolution(2, space)
    AlphaQConvolution(Fraction(-3), space)  # fine


def test_alpha_q_branch_equals_closed_form():
    space = SeriesSpace(("q",), (20,))
    for alpha in (Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
        fam = AlphaQConvolution(alpha, space)
        for N in range(6):
            for n in range(6):
                for lam in partitions_of(n):
                    if len(lam) > N:
                        continue
                    assert fam.r_lambda(lam, N) == alpha_q_coeff(lam, fam, N)


def test_alpha_q_closed_form_is_zero_past_n_rows():
    # like ExpConvolution.schur_expansion_r_lambda: zero, not a division by (N)_lam = 0
    fam = AlphaQConvolution(Fraction(1, 2), SeriesSpace(("q",), (8,)))
    for N in range(4):
        for lam in partitions_of(4):
            if len(lam) > N:
                assert alpha_q_coeff(lam, fam, N) == fam.space.zero()


def test_alpha_q_closed_form_past_the_q_cap():
    # r_0(N) = c q^{N(N-1)/2}: at N = 4 that is q^6, past the cap 5, so the
    # closed form is the zero series; at N = 3 it truncates from |lam| = 3
    space = SeriesSpace(("q",), (5,))
    fam = AlphaQConvolution(Fraction(7, 3), space)
    for N in (3, 4):
        for n in range(6):
            for lam in partitions_of(n):
                if len(lam) > N:
                    continue
                closed = alpha_q_coeff(lam, fam, N)
                ratio = pochhammer_partition(N - fam.alpha, lam) / pochhammer_partition(N, lam)
                assert closed == fam.r_lambda((), N) * space.monomial(ratio, q=n)
                assert closed == fam.r_lambda(lam, N)
                assert closed.is_zero() == (N == 4 or n > 2)


def test_alpha_q_single_row_is_plain_pochhammer():
    # r_lambda with lam=(k) at N=1 reduces to q^k (1-alpha)_k / k!
    space = SeriesSpace(("q",), (12,))
    alpha = Fraction(1, 2)
    fam = AlphaQConvolution(alpha, space)
    for k in range(5):
        want = space.monomial(pochhammer_partition(1 - alpha, (k,)) / factorial(k), q=k)
        assert fam.r_lambda((k,) if k else (), 1) == want


def test_exp_convolution_branch_vs_schur_normalisation():
    # the Exp oracle of the family at N points (hciz_family), as
    # tau.alpha_q_family is for alpha-q: the branch product carries
    # (-N z)^{N(N-1)/2}; with it divided out, r_lam(N) is the closed form
    # schur_expansion_r_lambda, the zeros past N rows included
    for N in range(1, 6):
        view = hciz_family(N, 6)
        closed, wide = ExpConvolution(N, view.printed_space), ExpConvolution(N, view.space)
        lead = view.space.monomial((-N) ** view.shift, z=view.shift)
        for n in range(7):
            for lam in partitions_of(n):
                r = view.r_of(lam)
                assert view.printed(r) == closed.schur_expansion_r_lambda(lam), (N, lam)
                assert r == lead * wide.schur_expansion_r_lambda(lam)
                assert r.is_zero() == (len(lam) > N)


def test_alpha_q_specialized_twist_eigenvalue():
    # the numeric specialization base = q(1 - alpha/N), z = -1/N,
    # w = +1/(N - alpha) turns the H*E content product into
    # q^{|lam|} (N-alpha)_lam / (N)_lam cell by cell
    from hurwitz_tau.partitions import contents, pochhammer_partition

    for alpha in (Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
        for N in range(1, 5):
            z = Fraction(-1, N)
            w = Fraction(1, N - alpha)
            base = 1 - alpha / Fraction(N)
            for n in range(6):
                for lam in partitions_of(n):
                    if len(lam) > N:
                        continue
                    value = base ** size(lam)
                    for c in contents(lam):
                        value *= (1 + w * c) / (1 - z * c)
                    target = pochhammer_partition(N - alpha, lam) / pochhammer_partition(
                        N, lam
                    )
                    assert value == target, (lam, N, alpha)


def test_okounkov_series_and_exponents():
    space = SeriesSpace(("q", "beta"), (6, 4))
    s = okounkov_coeff((2, 1), space)
    assert s.coeff(q=3) == 1 and s.coeff(q=3, beta=1) == 0
    # the plain twist's r_lam(N) = e^{E beta} reads 1 + E beta at beta cap 1
    conv = TwistConvolution(twist((Exp("q", "beta"),), (0, 1)))
    for N in range(5):
        for n in range(6):
            for lam in partitions_of(n):
                r = conv.r_lambda(lam, N)
                assert r.constant_term() == 1
                assert r.coeff(beta=1) == N * (N * N - 1) // 6 + N * size(lam) + content_sum(lam)


def test_family_coeffs_dispatcher():
    # the named coefficient families, each called directly
    sp_qb = SeriesSpace(("q", "beta"), (5, 3))
    assert okounkov_coeff((2, 1), sp_qb).coeff(q=3) == 1
    sp_z = SeriesSpace(("z",), (6,))
    assert ExpConvolution(2, sp_z).schur_expansion_r_lambda((1, 1, 1)).is_zero()
    sp_q = SeriesSpace(("q",), (8,))
    fam = AlphaQConvolution(Fraction(1, 2), sp_q)
    assert alpha_q_coeff((2,), fam, 1) == fam.r_lambda((2,), 1)
    assert alpha_q_coeff((1, 1), fam, 1).is_zero()
    sp_w = SeriesSpace(("q", "w1"), (4, 3))
    mm = multimonotone_coeff((2,), sp_w, w_params=("w1",))
    spec = twist((Scale("q"), E("w1")), (4, 3))
    assert mm == twist_eigenvalue(spec, (2,))


def test_okounkov_and_multimonotone_coeffs_never_multiply_by_one(monkeypatch):
    # the views make no series product at all, and each equals its twist's
    # convolution image r_lambda(lam, 0) q^{|lam|}, (Exp) and (Scale, E, E),
    # on every lam with |lam| <= 6
    products, mul, rmul = [], TruncSeries.__mul__, TruncSeries.__rmul__
    monkeypatch.setattr(TruncSeries, "__mul__", lambda a, b: products.append(a) or mul(a, b))
    monkeypatch.setattr(TruncSeries, "__rmul__", lambda a, b: products.append(a) or rmul(a, b))
    sp_qb, sp_qw = SeriesSpace(("q", "beta"), (6, 4)), SeriesSpace(("q", "w1", "w2"), (6, 3, 3))
    lams = [lam for n in range(7) for lam in partitions_of(n)]
    views = [(okounkov_coeff(lam, sp_qb), multimonotone_coeff(lam, sp_qw, ("w1", "w2")))
             for lam in lams]
    monkeypatch.undo()
    assert products == []
    exp_conv = TwistConvolution(twist((Exp("q", "beta"),), sp_qb.caps))
    e_conv = TwistConvolution(twist((Scale("q"), E("w1"), E("w2")), sp_qw.caps))
    for lam, (okounkov, multi) in zip(lams, views):
        assert okounkov == exp_conv.r_lambda(lam, 0).shift_up("q", size(lam))
        assert multi == e_conv.r_lambda(lam, 0).shift_up("q", size(lam))


def test_twist_param_validation():
    with pytest.raises(ValueError):
        twist((H("z"), E("z")), (3, 3))  # duplicate names collapse to one param
    spec = twist((H("z"), E("w")), 4)
    assert spec.space().caps == (4, 4)
