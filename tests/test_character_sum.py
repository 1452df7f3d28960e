"""The packed-integer character sum and the integer-sequence eigenvalues,
each against a plain Fraction route kept in this file."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau.characters import character, character_table
from hurwitz_tau.partitions import content_sum, contents, partitions_of, size, z_of
from hurwitz_tau.series import SeriesSpace, TruncSeries
from hurwitz_tau.twists import (
    E, Exp, H, Scale, cached_numerators, series_character_sum, twist, twist_eigenvalue,
)

SCALES = {
    "Z_lam": lambda lam, mu: z_of(lam),
    "Z_lam Z_mu": lambda lam, mu: z_of(lam) * z_of(mu),
}


def fraction_character_sum(n, values, scale):
    """{(lam, mu): {exponents: coefficient}} summed term by term over
    Fractions, with character values from the border-strip recursion."""
    parts = partitions_of(n)
    out = {}
    for lam in parts:
        for mu in parts:
            terms = {}
            for nu in parts:
                weight = character(nu, lam) * character(nu, mu)
                for exps, c in values[nu].terms.items():
                    terms[exps] = terms.get(exps, Fraction(0)) + c * weight
            out[(lam, mu)] = {e: c / scale(lam, mu) for e, c in terms.items() if c}
    return out


def assert_matches_fraction_sum(n, values, space, scale):
    got = series_character_sum(character_table(n), values, scale)
    want = fraction_character_sum(n, values, scale)
    assert set(got) == set(want)
    for pair, series in got.items():
        assert series.space == space
        assert series.terms == want[pair], pair


def test_character_sum_builds_one_sum_per_unordered_pair():
    # the sum is symmetric in lam and mu, so it is built for lam at or
    # before mu only: p(n)(p(n) + 1)/2 sums at n = 6, each the plain sum
    table = character_table(6)
    values = {nu: k + 1 for k, nu in enumerate(table.parts)}
    sums = table.character_sum(values)
    p = len(table.parts)
    assert len(sums) == p * (p + 1) // 2 == 66
    for lam, mu in sums:
        assert table.position[lam] <= table.position[mu]
        want = sum(x * character(nu, lam) * character(nu, mu) for nu, x in values.items())
        assert sums[lam, mu] == want


@st.composite
def kernel_cases(draw):
    """A space of 0..3 parameters with caps <= 3, and per nu a value with up
    to four terms: numerators up to a drawn magnitude (2^70 included),
    denominators 1..7, zero values allowed."""
    n = draw(st.integers(0, 5))
    params = draw(st.sampled_from(((), ("z",), ("q", "z"), ("z", "w", "v"))))
    space = SeriesSpace(params, [draw(st.integers(0, 3)) for _ in params])
    exps = st.tuples(*(st.integers(0, cap) for cap in space.caps))
    top = draw(st.sampled_from((1, 9, 10**6, 2**70)))
    coeff = st.builds(Fraction, st.integers(-top, top), st.integers(1, 7))
    values = {
        nu: TruncSeries(space, draw(st.dictionaries(exps, coeff, max_size=4)))
        for nu in partitions_of(n)
    }
    return n, values, space, draw(st.sampled_from(sorted(SCALES)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_cases())
def test_packed_kernel_matches_fraction_sum(case):
    n, values, space, scale = case
    assert_matches_fraction_sum(n, values, space, SCALES[scale])


@pytest.mark.parametrize("sign", (-1, 1))
@pytest.mark.parametrize("magnitude", (1, 7, 2**61 - 1))
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_slot_bound_is_reached(n, magnitude, sign):
    # every value +-M on every slot: at lam = mu = 1^n each slot holds
    # +-M sum_nu dim(nu)^2 = +-M n!, the bound the slot width is sized for
    space = SeriesSpace(("z", "w"), (1, 1))
    one = TruncSeries(space, dict.fromkeys(((0, 0), (1, 0), (0, 1), (1, 1)), Fraction(1)))
    values = {nu: one * (sign * magnitude) for nu in partitions_of(n)}
    scale = SCALES["Z_lam"]
    got = series_character_sum(character_table(n), values, scale)
    identity = (1,) * n
    extreme = Fraction(sign * magnitude * factorial(n), z_of(identity))
    assert got[(identity, identity)].terms == {e: extreme for e in one.terms}
    assert_matches_fraction_sum(n, values, space, scale)


def test_zero_values_and_the_empty_parameter_space():
    empty = SeriesSpace((), ())
    for n in range(5):
        parts = partitions_of(n)
        zeros = series_character_sum(
            character_table(n), {nu: empty.zero() for nu in parts}, SCALES["Z_lam"]
        )
        assert all(series.is_zero() for series in zeros.values())
        # all r_nu = 1 (vacuum_tau): column orthogonality leaves 1/Z_lam on the diagonal
        ones = {nu: empty.one() for nu in parts}
        got = series_character_sum(character_table(n), ones, SCALES["Z_lam Z_mu"])
        for (lam, mu), series in got.items():
            assert series == (Fraction(1, z_of(lam)) if lam == mu else 0)
        assert_matches_fraction_sum(n, ones, empty, SCALES["Z_lam Z_mu"])


def series_eigenvalue(spec, lam, space):
    """The eigenvalue as a product of one-axis series."""
    result = space.one()
    for f in spec.factors:
        if isinstance(f, H):
            for c in contents(lam):
                result = result * space.geom(c, f.param)
        elif isinstance(f, E):
            for c in contents(lam):
                result = result * space.linear(c, f.param)
        else:
            result = result * space.monomial(1, **{f.q_param: size(lam)})
            if isinstance(f, Exp):
                result = result * space.exp_linear(content_sum(lam), f.beta_param)
    return result


EIGENVALUE_SPECS = [
    twist((H("z"),), (4,)),
    twist((E("w"),), (4,)),
    twist((Exp("q", "beta"),), (5, 3)),
    twist((Scale("q"),), (4,)),
    # two atoms on one parameter
    twist((Scale("q"), Exp("q", "beta")), (9, 3)),
    twist((Exp("q", "beta"), Exp("q", "beta")), (12, 4)),
    twist((H("z"), E("z")), (5,)),
    twist((H("z"), H("z")), (3,)),
    twist((Exp("q", "beta"), H("z"), E("w")), (6, 2, 3, 3)),
]


@pytest.mark.parametrize(
    "spec", EIGENVALUE_SPECS, ids=lambda spec: "*".join(type(f).__name__ for f in spec.factors)
)
def test_twist_eigenvalue_matches_series_products(spec):
    space = spec.space()
    for n in range(7):
        for lam in partitions_of(n):
            eig = twist_eigenvalue(spec, lam)
            assert eig.space == space and eig == series_eigenvalue(spec, lam, space), lam
            # the memo's integer numerators over the spec's one denominator
            numerators, d = cached_numerators(spec, lam), spec.denominator()
            assert all(type(x) is int for x in numerators.values())
            assert {e: Fraction(x, d) for e, x in numerators.items()} == eig.terms, lam
