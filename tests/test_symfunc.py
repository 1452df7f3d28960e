import random
from fractions import Fraction

import pytest

from hurwitz_tau.oracles import (
    cauchy_kernel_coeff,
    random_rationals,
    schur_via_alternant,
    ssyt_count,
)
from hurwitz_tau.partitions import partitions_of
from hurwitz_tau import symfunc
from hurwitz_tau.series import SeriesSpace, TruncSeries, pack, read_packed, unpack
from hurwitz_tau.symfunc import (
    SymFunc,
    TensorSymFunc,
    cauchy_sides,
    evaluate,
    multiply,
    powersum_products,
    s_basis,
    schur_values,
    tensor_product_sum,
    to_schur,
)


def schur_to_powersum(lam):
    """Expansion of a single Schur function on the power-sum basis."""
    return s_basis({lam: 1})


def powersum_to_schur(mu):
    """Schur coordinates of a single power-sum monomial."""
    return to_schur(SymFunc({mu: 1}))


def evaluate_schur(lam, xs):
    """S_lam at the given values through the p-basis: the reference route
    for the integer character-table product of schur_values."""
    return evaluate(s_basis({lam: 1}), xs)


def test_schur_to_powersum_examples():
    assert schur_to_powersum((1,)).terms == {(1,): Fraction(1)}
    assert schur_to_powersum((2,)).terms == {
        (1, 1): Fraction(1, 2),
        (2,): Fraction(1, 2),
    }
    assert schur_to_powersum((2, 1)).terms == {
        (1, 1, 1): Fraction(1, 3),
        (3,): Fraction(-1, 3),
    }


def test_powersum_to_schur_examples():
    assert powersum_to_schur((1, 1)) == {(2,): Fraction(1), (1, 1): Fraction(1)}
    assert powersum_to_schur((2,)) == {(2,): Fraction(1), (1, 1): Fraction(-1)}
    assert powersum_to_schur((3,)) == {
        (3,): Fraction(1),
        (2, 1): Fraction(-1),
        (1, 1, 1): Fraction(1),
    }


def test_roundtrip_up_to_8():
    for n in range(9):
        for mu in partitions_of(n):
            assert s_basis(powersum_to_schur(mu)).terms == {mu: Fraction(1)}
            assert to_schur(schur_to_powersum(mu)) == {mu: Fraction(1)}


def test_multiply_powersum_concatenation():
    f = SymFunc({(2,): 1})
    g = SymFunc({(1,): 1})
    assert multiply(f, g).terms == {(2, 1): Fraction(1)}


def test_multiply_pieri():
    s1 = s_basis({(1,): 1})
    product = to_schur(multiply(s1, s1))
    assert product == {(2,): Fraction(1), (1, 1): Fraction(1)}


def test_multiply_s2_times_s11():
    s2 = s_basis({(2,): 1})
    s11 = s_basis({(1, 1): 1})
    product = multiply(s2, s11)
    assert product.terms == {
        (1, 1, 1, 1): Fraction(1, 4),
        (2, 2): Fraction(-1, 4),
    }
    # Littlewood-Richardson cross-check: S2 * S11 = S31 + S211
    assert to_schur(product) == {(3, 1): Fraction(1), (2, 1, 1): Fraction(1)}


def test_evaluate_examples():
    assert evaluate(SymFunc({(2,): 1}), [1, 2]) == 5
    # no size cap: parts and partitions past the partition tables' cap
    assert evaluate(SymFunc({(13,): 1, (7, 7): 2}), [1, 2]) == 1 + 2**13 + 2 * (1 + 2**7) ** 2
    assert powersum_products([1, 2], 3)[(2, 1)] == 5 * 3
    assert schur_values([1, 1, 1], 3)[(2, 1)] == ssyt_count((2, 1), 3) == 8
    assert schur_values([1, 1], 3).get((1, 1, 1)) is None  # S_(1,1,1)(1, 1) = 0
    a = Fraction(5, 3)
    values = schur_values([a], 4)
    assert values[(4,)] == evaluate_schur((4,), [a]) == a**4
    assert (2, 1) not in values  # more rows than variables
    assert evaluate_schur((2, 1), [a]) == 0


def test_evaluate_matches_alternant_on_random_points():
    rng = random.Random(99)
    for n in range(1, 6):
        xs = random_rationals(rng, 4, distinct=True)
        values = schur_values(xs, n)
        for lam in partitions_of(n):
            want = schur_via_alternant(lam, xs)
            assert values.get(lam, 0) == evaluate_schur(lam, xs) == want


@pytest.mark.parametrize(
    "xs",
    [
        [],
        [Fraction(-2, 3)],
        [Fraction(1, 2), Fraction(-5, 3), Fraction(2, 9)],
        [Fraction(3, 4), Fraction(3, 4), Fraction(0), Fraction(-7)],
    ],
    ids=str,
)
def test_schur_values_match_evaluate_schur(xs):
    # every partition of size <= 7 with a nonzero value, and only those
    got = schur_values(xs, 7)
    want = {
        lam: value
        for n in range(8)
        for lam in partitions_of(n)
        if (value := evaluate_schur(lam, xs))
    }
    assert got == want
    assert all(len(lam) <= len(xs) for lam in got)


def test_alternant_oracle_rejects_repeated_points():
    with pytest.raises(ValueError):
        schur_via_alternant((2, 1), [Fraction(1, 2), Fraction(3), Fraction(1, 2)])


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(5)
    pool = [lam for n in range(7) for lam in partitions_of(n)]
    for _ in range(12):
        f = SymFunc({rng.choice(pool): Fraction(rng.randint(-4, 4))})
        g = SymFunc({rng.choice(pool): Fraction(rng.randint(-4, 4))})
        xs = random_rationals(rng, 3)
        assert evaluate(multiply(f, g), xs) == evaluate(f, xs) * evaluate(g, xs)


def test_cauchy_sides():
    assert cauchy_sides(0, [1], [1]) == (1, 1)
    xs, ys = [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2)]
    p1, s1 = cauchy_sides(1, xs, ys)
    expected = sum(xs) * sum(ys)
    assert p1 == s1 == expected
    x4, y4 = [Fraction(1), Fraction(1, 2)], [Fraction(1, 3), Fraction(2)]
    p4, s4 = cauchy_sides(4, x4, y4)
    assert p4 == s4 == cauchy_kernel_coeff(4, x4, y4)


def test_cauchy_up_to_8_at_random_points():
    rng = random.Random(17)
    for n in range(9):
        xs = random_rationals(rng, 3)
        ys = random_rationals(rng, 3)
        p_side, s_side = cauchy_sides(n, xs, ys)
        assert p_side == s_side == cauchy_kernel_coeff(n, xs, ys)


def test_tensor_product_grading():
    one = TensorSymFunc({((), ()): Fraction(1)})
    a = TensorSymFunc({((1,), (1,)): Fraction(2)})
    b = TensorSymFunc({((2,), (1, 1)): Fraction(3)})
    ab = a.mul(b, 4)
    assert ab.terms == {((2, 1), (1, 1, 1)): Fraction(6)}
    assert a.mul(one, 4) == a
    assert a.mul(b, 2).terms == {}


def _sum_by_pairs(pairs, grade_cap, scale=1):
    """scale * sum_i w_i a_i b_i, every term pair of every (a_i, b_i, w_i)
    added into one dict; term pairs of x-degree above grade_cap are
    dropped."""
    terms = {}
    for a, b, w in pairs:
        for (la, ma), ca in a.terms.items():
            for (lb, mb), cb in b.terms.items():
                if sum(la) + sum(lb) > grade_cap:
                    continue
                key = (tuple(sorted(la + lb, reverse=True)), tuple(sorted(ma + mb, reverse=True)))
                terms[key] = terms.get(key, 0) + ca * cb * w
    return TensorSymFunc({key: c * Fraction(scale) for key, c in terms.items()})


def _mul_by_pairs(a, b, grade_cap):
    return _sum_by_pairs([(a, b, 1)], grade_cap)


def _assert_same(got, want):
    """Equal, and every coefficient of the product a series: a Fraction
    never stands in for one."""
    assert got == want
    assert all(isinstance(v, TruncSeries) for v in got.terms.values())


SPACES = (SeriesSpace((), ()), SeriesSpace(("q",), (2,)), SeriesSpace(("q", "z"), (2, 1)))
# coefficient spaces of a random tensor: Fractions only (None), series of one
# space, or a mix of the two
SPACE_MIXES = ((None,), *((space,) for space in SPACES), *((None, space) for space in SPACES))


def _random_coeff(rng, space):
    """A Fraction when space is None, else a series of one to three terms."""
    if space is None:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncSeries(
        space,
        {
            tuple(rng.randint(0, cap) for cap in space.caps): _random_coeff(rng, None)
            for _ in range(rng.randint(1, 3))
        },
    )


def _random_tensor(rng, max_degree, spaces=(None,)):
    parts = [lam for n in range(max_degree + 1) for lam in partitions_of(n)]
    return TensorSymFunc(
        {
            (rng.choice(parts), rng.choice(parts)): _random_coeff(rng, rng.choice(spaces))
            for _ in range(rng.randint(0, 12))
        }
    )


def test_tensor_mul_matches_every_pair():
    rng = random.Random(7)
    for spaces in SPACE_MIXES:
        for _ in range(40):
            a, b = _random_tensor(rng, 4, spaces), _random_tensor(rng, 4, spaces)
            for cap in (0, 1, 3, 5, 8):
                _assert_same(a.mul(b, cap), _mul_by_pairs(a, b, cap))


def test_product_sum_with_negative_scale_matches_pair_loop():
    # weights of either sign, as the Euler recurrence passes them (k, -n),
    # and two pairs whose weights cancel
    rng = random.Random(13)
    for spaces in SPACE_MIXES:
        for _ in range(15):
            pairs = [
                (_random_tensor(rng, 3, spaces), _random_tensor(rng, 3, spaces),
                 rng.choice((1, -1)) * rng.randint(1, 7))
                for _ in range(rng.randint(1, 4))
            ]
            a, b = _random_tensor(rng, 3, spaces), _random_tensor(rng, 3, spaces)
            k = rng.randint(1, 7)
            scale = Fraction(-rng.randint(1, 7), rng.randint(1, 5))
            for case in (pairs, [(a, b, k), (a, b, -k)], pairs + [(a, b, -k), (a, b, k)]):
                _assert_same(tensor_product_sum(case, 5, scale), _sum_by_pairs(case, 5, scale))
            assert tensor_product_sum([(a, b, k), (a, b, -k)], 5, scale) == TensorSymFunc({})
    assert tensor_product_sum([], 3, -1) == TensorSymFunc({})


def test_product_sum_rejects_series_of_two_spaces():
    a = TensorSymFunc({((1,), (1,)): SeriesSpace(("q",), (2,)).one()})
    b = TensorSymFunc({((1,), (1,)): SeriesSpace(("z",), (2,)).one()})
    with pytest.raises(ValueError, match="series spaces differ"):
        tensor_product_sum([(a, b, 1)], 3)


def _recorded_widths(monkeypatch):
    widths = []

    def recording_read(space, total, width, d):
        widths.append(width)
        return read_packed(space, total, width, d)

    monkeypatch.setattr(symfunc, "read_packed", recording_read)
    return widths


def _check_tight_width(widths, weight, scale):
    # two pairs of one weight land weight M^2 (1 - q)^2 each on one key and
    # their other products cancel; weight and num(scale) are folded into
    # each pair's multiplier, so the fields are weight num(scale) (2M^2,
    # -4M^2) before the read-back over den(scale): the second reaches the
    # bound |weight num(scale)| 2 min(2, 3) M M exactly, and one bit less
    # than the width the kernel chose wraps it
    space = SeriesSpace(("q",), (1,))
    big = 3**40
    factor = space.scalar(big) - space.monomial(big, q=1)
    a = TensorSymFunc({((1,), (1,)): factor})
    pairs = [
        (a, TensorSymFunc({((2,), (2,)): factor, ((1, 1), (2,)): c}), weight)
        for c in (Fraction(big), Fraction(-big))
    ]
    widths.clear()
    got = tensor_product_sum(pairs, 4, scale)
    fields = [weight * scale.numerator * f * big * big for f in (2, -4)]
    assert set(widths) == {fields[1].bit_length() + 1}
    narrow = widths[0] - 1
    assert unpack(pack(enumerate(fields), narrow), narrow, 2) != fields
    want = TruncSeries(space, {(k,): Fraction(x, scale.denominator) for k, x in enumerate(fields)})
    assert got.terms == {((2, 1), (2, 1)): want}
    _assert_same(got, _sum_by_pairs(pairs, 4, scale))


def test_product_sum_slot_width_is_tight(monkeypatch):
    widths = _recorded_widths(monkeypatch)
    for weight in (1, 3, -5):
        _check_tight_width(widths, weight, Fraction(-1))


def test_product_sum_slot_width_is_tight_with_scale_numerator(monkeypatch):
    widths = _recorded_widths(monkeypatch)
    for weight in (1, -2):
        _check_tight_width(widths, weight, Fraction(-7, 3))


# one, two and three parameters; past one parameter the stride 2 cap + 1
# leaves gap fields between the slots of the leading axes
LIVE_SPACES = (
    SeriesSpace(("x",), (3,)),
    SeriesSpace(("x", "y"), (2, 1)),
    SeriesSpace(("x", "y", "z"), (1, 2, 1)),
)


@pytest.mark.parametrize("space", LIVE_SPACES, ids=repr)
def test_product_sum_reads_its_live_fields(space):
    # T the top slot, P + Q = T, m the last axis at its cap: each key's
    # total has its only field in the caps at slot 0, (1 + T)(1 - T), or
    # at T, (P + T)(Q - T), the highest field negative in both; m^2 falls
    # in a gap or past T; (m + T)(m - T) has no field in the caps, and two
    # pairs that cancel leave a zero total: those keys drop out
    top = space.caps
    zero = (0,) * len(top)
    p = tuple(1 if k == 0 else 0 for k in range(len(top)))
    q = tuple(t - e for t, e in zip(top, p))
    m = tuple(top[-1] if k == len(top) - 1 else 0 for k in range(len(top)))
    big = Fraction(2**70 + 1, 3)

    def tensor(key, *terms):
        return TensorSymFunc({key: TruncSeries(space, dict(terms))})

    one, two = ((1,), (1,)), ((2,), (1, 1))
    a, b = tensor(one, (zero, 1), (top, big)), tensor(two, (zero, 1), (top, -big))
    cases = [
        [(a, b, 1)],
        [(tensor(one, (p, 1), (top, 1)), tensor(two, (q, big), (top, -big)), 1)],
        [(tensor(one, (zero, 1), (m, 1)), tensor(one, (zero, -3), (m, big)), 1)],
        [(tensor(one, (m, 1), (top, 1)), tensor(two, (m, 1), (top, -1)), 1)],
        [(a, b, 1), (a, b, -1)],
    ]
    for pairs in cases:
        for scale in (1, Fraction(-7, 3)):
            _assert_same(tensor_product_sum(pairs, 4, scale), _sum_by_pairs(pairs, 4, scale))
    key = ((2, 1), (1, 1, 1))
    corner = space.monomial(big, **dict(zip(space.params, top)))
    assert tensor_product_sum(cases[0], 4).terms == {key: space.one()}
    assert tensor_product_sum(cases[1], 4).terms == {key: corner}
    assert tensor_product_sum(cases[3], 4).terms == tensor_product_sum(cases[4], 4).terms == {}


@pytest.mark.parametrize("bad", (0.1, 0.5, "1/2"), ids=repr)
def test_symfunc_refuses_inexact_coefficients(bad):
    # SymFunc({(1,): 0.1}) once stored 3602879701896397/36028797018963968,
    # and a str was parsed as a rational, in the constructor and in scale
    with pytest.raises(TypeError, match="exact rationals"):
        SymFunc({(1,): bad})
    with pytest.raises(TypeError, match="exact rationals"):
        SymFunc({(1,): 1}).scale(bad)
    assert SymFunc({(1,): Fraction(1, 10)}).scale(2).terms == {(1,): Fraction(1, 5)}
