from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau.errors import ExactDivisionError
from hurwitz_tau.series import (
    SeriesSpace,
    TruncSeries,
    pack,
    read_fields,
    read_packed,
    read_text,
    series_json,
    unpack,
)


def space():
    return SeriesSpace(("z", "w"), (5, 4))


def test_constructors():
    sp = space()
    assert sp.one().constant_term() == 1
    assert sp.zero().is_zero()
    m = sp.monomial(Fraction(3, 2), z=2, w=1)
    assert m.coeff(z=2, w=1) == Fraction(3, 2)
    assert m.coeff(z=2) == 0


def test_cap_truncation_silent():
    sp = space()
    high = sp.monomial(1, z=9)
    assert high.is_zero()
    g = sp.monomial(1, z=1)
    g5 = g * g * g * g * g
    assert g5.coeff(z=5) == 1
    assert (g5 * g).is_zero()


def test_geom_and_linear():
    sp = space()
    g = sp.geom(2, "z")
    for k in range(6):
        assert g.coeff(z=k) == 2**k
    assert (sp.linear(-1, "z") * sp.geom(1, "z")) == sp.one()
    # 1/(1-z) * 1/(1+z) == 1/(1-z^2)
    h = sp.geom(1, "z") * sp.geom(-1, "z")
    for k in range(6):
        assert h.coeff(z=k) == (1 if k % 2 == 0 else 0)


def test_arithmetic_and_equality():
    sp = space()
    a = sp.geom(1, "z") + sp.monomial(1, w=1) * 3
    b = sp.monomial(1, w=1) * 3 + sp.geom(1, "z")
    assert a == b
    assert a - b == sp.zero()
    assert (a * 0).is_zero()
    assert a * 1 == a
    assert a == a * Fraction(2) / 2


def test_series_are_unhashable():
    # a series equals its scalar (one() == 1) but could not hash like it
    sp = space()
    assert sp.one() == 1
    for series in (sp.one(), sp.zero(), sp.geom(2, "z")):
        with pytest.raises(TypeError):
            hash(series)


def test_inverse():
    sp = space()
    u = sp.one() - sp.monomial(1, z=1) * 2 + sp.monomial(1, w=1)
    v = u.inverse()
    assert u * v == sp.one()
    with pytest.raises(ExactDivisionError):
        sp.monomial(1, z=1).inverse()


def test_inverse_of_int_coefficients_is_exact():
    # an int constant term is inverted as a Fraction, not in float
    sp = SeriesSpace(("z",), (3,))
    a = TruncSeries(sp, {(0,): 2, (1,): 1})
    b = a.inverse()
    assert all(isinstance(c, Fraction) for c in b.terms.values())
    assert b * a == sp.one()


def test_exp_log_roundtrip():
    sp = space()
    e = sp.exp_linear(Fraction(3), "z")
    target = Fraction(1)
    for k in range(6):
        assert e.coeff(z=k) == target
        target = target * 3 / (k + 1)


def test_valuation_division():
    sp = SeriesSpace(("z",), (6,))
    u = sp.monomial(2, z=2) + sp.monomial(3, z=3)
    with pytest.raises(ExactDivisionError):
        sp.one().shift_down("z", 1)
    assert u.shift_down("z", 2).coeff(z=0) == 2


def test_space_mismatch_guard():
    a = SeriesSpace(("z",), (3,)).one()
    b = SeriesSpace(("w",), (3,)).one()
    with pytest.raises(ValueError):
        a + b


def _neumann_inverse(a):
    """1/a as c0^-1 sum_k (-v)^k with a = c0 (1 + v); v is nilpotent
    under truncation, so sum(caps) + 1 powers suffice."""
    c0 = a.constant_term()
    v = a * (1 / c0) - 1
    result = power = a.space.one()
    for _ in range(sum(a.space.caps) + 1):
        power = power * (-v)
        result = result + power
    return result * (1 / c0)


RATIONAL = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


@st.composite
def units(draw):
    """A series with a nonzero rational constant term over a random space
    of 0-3 parameters, caps 0-3."""
    caps = draw(st.lists(st.integers(0, 3), max_size=3))
    space = SeriesSpace([f"x{k}" for k in range(len(caps))], caps)
    exponent = st.tuples(*(st.integers(0, c) for c in caps))
    terms = draw(st.dictionaries(exponent, RATIONAL, max_size=8))
    terms[(0,) * len(caps)] = draw(RATIONAL.filter(bool))
    return TruncSeries(space, terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(units())
def test_inverse_is_the_neumann_series(a):
    b = a.inverse()
    assert a * b == 1
    assert b == _neumann_inverse(a)


def test_public_constructor_checks_exponents():
    sp = space()
    with pytest.raises(ValueError):
        TruncSeries(sp, {(-1, 0): Fraction(1)})
    terms = {(5, 4): Fraction(2), (6, 0): Fraction(3), (0, 5): Fraction(1), (1, 1): 0}
    kept = TruncSeries(sp, terms)
    assert kept.terms == {(5, 4): Fraction(2)}


@pytest.mark.parametrize("exps", ((1,), (1, 0, 0)), ids=("too short", "too long"))
def test_public_constructor_rejects_wrong_length_exponents(exps):
    # zipped against the caps, a short or long tuple would pass the cap test
    with pytest.raises(ValueError, match="do not match the parameters"):
        TruncSeries(SeriesSpace(("z", "w"), (2, 2)), {exps: Fraction(1)})


def fraction_product(a, b):
    """The term-by-term product over Fraction, truncated to the caps."""
    caps = a.space.caps
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if all(e <= c for e, c in zip(exps, caps)):
                terms[exps] = terms.get(exps, 0) + ca * cb
    return TruncSeries(a.space, terms)


WIDE = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 9))


@st.composite
def factor_pairs(draw):
    """Two series over one random space of 0-3 parameters, caps 0-4: each
    the zero series, one term or many, with signed numerators up to 2^70
    over denominators 1-9."""
    caps = draw(st.lists(st.integers(0, 4), max_size=3))
    sp = SeriesSpace([f"x{k}" for k in range(len(caps))], caps)
    exponent = st.tuples(*(st.integers(0, c) for c in caps))
    factor = st.one_of(
        st.just({}),
        st.dictionaries(exponent, WIDE, min_size=1, max_size=1),
        st.dictionaries(exponent, WIDE, max_size=30),
    )
    return TruncSeries(sp, draw(factor)), TruncSeries(sp, draw(factor))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(factor_pairs())
def test_product_matches_the_fraction_product(pair):
    a, b = pair
    want = fraction_product(a, b)
    assert (a * b).terms == want.terms
    assert (b * a).terms == want.terms


@st.composite
def series_lists(draw):
    """One to four series over one space of 0, 1 or 3 parameters, caps 0-3,
    with signed numerators up to 2^70 over denominators 1-9."""
    caps = draw(st.sampled_from((0, 1, 3)).flatmap(
        lambda k: st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    sp = SeriesSpace([f"x{k}" for k in range(len(caps))], caps)
    terms = st.dictionaries(st.tuples(*(st.integers(0, c) for c in caps)), WIDE, max_size=20)
    return [TruncSeries(sp, t) for t in draw(st.lists(terms, min_size=1, max_size=4))]


def numerators(values, slot):
    """D, the lcm of the series' denominators, and for each series its
    (slot[e], numerator over D) pairs."""
    d = lcm(*(v.den for v in values))
    return d, [[(slot[e], x * (d // v.den)) for e, x in v.nums.items()] for v in values]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(series_lists(), st.booleans())
def test_read_of_numerators_gives_back_each_series(values, dense):
    # the packed boundary both ways, at the dense slots of the space (the
    # series product, the tensor kernel: read_packed) and at the slots of a
    # sparse support (the character sum: read_fields of the unpacked fields)
    sp = values[0].space
    if dense:
        slot = sp._slots
    else:
        exponents = sorted({e for v in values for e in v.terms})
        slot = {e: k for k, e in enumerate(exponents)}
    d, rows = numerators(values, slot)
    assert d == lcm(*(c.denominator for v in values for c in v.terms.values()))
    width = max((abs(x) for row in rows for _, x in row), default=0).bit_length() + 1
    for value, row in zip(values, rows):
        total = pack(row, width)
        if dense:
            got = read_packed(sp, total, width, d)
        else:
            got = read_fields(sp, unpack(total, width, len(exponents)), exponents, d)
        assert got.terms == value.terms
        assert (got.den, got.nums) == (value.den, value.nums)


FIELDS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**80), 2**80))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(FIELDS, max_size=12),
    st.one_of(st.integers(1, 12), st.integers(1, 2**70)),
    st.integers(0, 3),
)
def test_read_text_prints_each_field_as_its_fraction(fields, d, multiple):
    # negative, zero and wide fields, and every third one a multiple of d
    # (an integer quotient, printed without "/1")
    fields = [x * d if k % 3 == multiple else x for k, x in enumerate(fields)]
    labels = [f"x^{k}" for k in range(len(fields))]
    want = {label: str(Fraction(x, d)) for x, label in zip(fields, labels) if x}
    got = read_text(fields, labels, d)
    assert got == want and list(got) == list(want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(series_lists())
def test_read_text_equals_series_json_of_read(values):
    # over sparse slots, read_text prints what series_json prints of
    # read_fields on the same fields
    sp = values[0].space
    support = sorted({e for v in values for e in v.terms})
    slot = {e: k for k, e in enumerate(support)}
    d, rows = numerators(values, slot)
    width = max((abs(x) for row in rows for _, x in row), default=0).bit_length() + 1
    labels = [sp._labels[e] for e in support]
    for row in rows:
        total = pack(row, width)
        fields = unpack(total, width, len(slot))
        for scale in (1, 6):
            want = series_json(read_fields(sp, fields, support, d * scale))
            assert list(read_text(fields, labels, d * scale).items()) == list(want.items())


def _dense(sp, coeff):
    return TruncSeries(sp, {e: Fraction(coeff) for e in product(*(range(c + 1) for c in sp.caps))})


@pytest.mark.parametrize("caps", ((), (0,), (3,), (2, 2), (1, 2, 1), (4, 1)))
@pytest.mark.parametrize("ma, mb", ((1, 1), (7, 3), (2**61 - 1, 2**35 + 1), (2**40, 2**30)))
@pytest.mark.parametrize("sa, sb", ((1, 1), (1, -1), (-1, -1)))
def test_product_slot_bound_is_reached(caps, ma, mb, sa, sb):
    # dense factors with every coefficient +-M: the top corner of the cap
    # box sums every term of a against one of b, so it holds exactly
    # min(#a, #b) M_a M_b, the bound the slot width is sized for
    sp = SeriesSpace([f"x{k}" for k in range(len(caps))], caps)
    a, b = _dense(sp, sa * ma), _dense(sp, sb * mb)
    got = a * b
    assert got.terms[sp.caps] == len(a.terms) * sa * ma * sb * mb
    assert got.terms == fraction_product(a, b).terms
    # against one term: the bound is M_a M_b
    single = TruncSeries(sp, {(0,) * len(caps): Fraction(sb * mb)})
    assert (a * single).terms == fraction_product(a, single).terms


# one, two and three parameters; past one parameter the stride 2 cap + 1
# leaves gap fields between the slots of the leading axes
LIVE_SPACES = (
    SeriesSpace(("x",), (3,)),
    SeriesSpace(("x", "y"), (2, 1)),
    SeriesSpace(("x", "y", "z"), (1, 2, 1)),
)
LIVE_VALUES = (1, -1, 7, -(2**70) - 3, 2**70)


def _read_every_field(sp, total, width, d):
    """The whole-box reader: every field a product of two slots can reach,
    each read at the slot it belongs to, the gaps and the fields past the
    top slot dropped."""
    top = sp._slots[sp.caps]
    fields = unpack(total, width, 2 * top + 1)
    return {e: Fraction(fields[k], d) for e, k in sp._slots.items() if fields[k]}


@pytest.mark.parametrize("sp", LIVE_SPACES, ids=repr)
def test_read_packed_decodes_every_field_layout(sp):
    # one or two nonzero fields anywhere a product can put them: slot 0,
    # the top slot, a gap, past the top slot, each sign at the top
    width, d = 73, 6
    count = 2 * sp._slots[sp.caps] + 1
    assert read_packed(sp, 0, width, d).terms == {}
    for k in range(count):
        for x in LIVE_VALUES:
            total = pack([(k, x)], width)
            assert read_packed(sp, total, width, d).terms == _read_every_field(sp, total, width, d)
            for j in range(k):
                for y in (3, -(2**69)):
                    total = pack([(j, y), (k, x)], width)
                    want = _read_every_field(sp, total, width, d)
                    assert read_packed(sp, total, width, d).terms == want


def _live_cases(sp):
    """(a, b) pairs, each of two terms so that the product is packed:
    the product's only field in the caps sits in slot 0 (1 + T)(1 - T),
    or in the top slot T, P + Q = T, (P + T)(Q - T), with the highest
    field of the product negative in both; (1 + m)^2 puts m^2 in a gap or
    past the top slot; the last pair is dense on both sides."""
    top = sp.caps
    zero = (0,) * len(top)
    p = tuple(1 if k == 0 else 0 for k in range(len(top)))
    q = tuple(t - e for t, e in zip(top, p))
    m = tuple(top[-1] if k == len(top) - 1 else 0 for k in range(len(top)))
    big = Fraction(2**70 + 1, 3)

    def series(*terms):
        return TruncSeries(sp, dict(terms))

    return [
        (series((zero, 1), (top, 1)), series((zero, 1), (top, -1))),
        (series((zero, big), (top, -big)), series((zero, -big), (top, -big))),
        (series((p, 1), (top, 1)), series((q, 1), (top, -1))),
        (series((p, -big), (top, 5)), series((q, big), (top, -big))),
        (series((zero, 1), (m, 1)), series((zero, 1), (m, 1))),
        (series((zero, 2), (m, -big)), series((zero, -3), (m, big))),
        (series(*((e, k - 3) for k, e in enumerate(sp._slots))),
         series(*((e, big - k) for k, e in enumerate(sp._slots)))),
    ]


@pytest.mark.parametrize("sp", LIVE_SPACES, ids=repr)
def test_product_reads_its_live_fields(sp):
    cases = _live_cases(sp)
    assert all(len(a.terms) == len(b.terms) == 2 for a, b in cases[:-1])
    for a, b in cases:
        want = fraction_product(a, b)
        assert (a * b).terms == want.terms and (b * a).terms == want.terms
    (a, b), (c, d) = cases[0], cases[2]
    assert (a * b).terms == {(0,) * len(sp.caps): 1}
    assert (c * d).terms == {sp.caps: 1}


# -- exact scalars only ------------------------------------------------------

def test_series_never_equals_none():
    sp = space()
    for series in (sp.one(), sp.zero()):
        assert (series == None) is False  # noqa: E711
        assert (series != None) is True  # noqa: E711


def test_series_is_not_in_a_list_of_none():
    assert space().one() not in [None]
    assert space().geom(2, "z") not in [None, "1", 1.0]


def test_series_never_equals_a_str():
    sp = space()
    assert sp.one() != "1"
    assert sp.zero() != "0"
    assert sp.one() == 1 and sp.one() == Fraction(1) and sp.zero() == 0


RING_OPERATIONS = {
    "add": lambda s, c: s + c,
    "radd": lambda s, c: c + s,
    "sub": lambda s, c: s - c,
    "mul": lambda s, c: s * c,
    "rmul": lambda s, c: c * s,
    "truediv": lambda s, c: s / c,
}


@pytest.mark.parametrize("op", RING_OPERATIONS)
@pytest.mark.parametrize("scalar", ("2", 0.5, 2.0, "1/2"), ids=repr)
def test_ring_operations_refuse_str_and_float_scalars(op, scalar):
    with pytest.raises(TypeError):
        RING_OPERATIONS[op](space().geom(2, "z"), scalar)


@pytest.mark.parametrize("coeff", ("1/2", 0.5, 0.1), ids=repr)
@pytest.mark.parametrize("build", (
    lambda c: TruncSeries(space(), {(0, 0): c}),
    lambda c: space().geom(c, "z"),
    lambda c: space().exp_linear(c, "z"),
), ids=("constructor", "geom", "exp_linear"))
def test_builders_refuse_str_and_float_coefficients(build, coeff):
    with pytest.raises(TypeError, match="exact rationals"):
        build(coeff)


# -- the integer ring against a per-term Fraction reference --------------------

def assert_canonical(series):
    """den > 0, gcd(den, *nums) = 1, no zero numerator, every exponent
    inside the caps, and the zero series 1 over {}."""
    assert series.den > 0 and gcd(series.den, *series.nums.values()) == 1
    assert all(series.nums.values())
    assert all(series.space.inside(e) for e in series.nums)
    assert series.nums or series.den == 1


def truncated(sp, terms):
    """{e: c} of the nonzero c at exponents inside the caps of sp."""
    return {e: c for e, c in terms.items() if c and sp.inside(e)}


def reference_product(sp, ta, tb):
    terms = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            terms[e] = terms.get(e, 0) + ca * cb
    return truncated(sp, terms)


def reference_inverse(sp, ta):
    """b_0 = 1/a_0, b_e = -(1/a_0) sum_{0 != f <= e} a_f b_{e-f}, in Fractions."""
    zero = (0,) * len(sp.caps)
    b = {zero: 1 / Fraction(ta[zero])}
    for e in product(*(range(c + 1) for c in sp.caps)):
        if e != zero:
            total = sum(c * b.get(tuple(y - x for x, y in zip(f, e)), 0)
                        for f, c in ta.items() if f != zero and all(x <= y for x, y in zip(f, e)))
            b[e] = -b[zero] * total
    return truncated(sp, b)


SMALL = st.builds(Fraction, st.integers(-(2**40), 2**40), st.sampled_from((1, 2, 3, 4, 6, 9, 12)))


@st.composite
def ring_cases(draw):
    """A 1- or 2-parameter space, caps 0-4, two coefficient dicts on it
    (empty, one term or many; some exponents past the caps) and a rational."""
    caps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    sp = SeriesSpace([f"x{k}" for k in range(len(caps))], caps)
    exponent = st.tuples(*(st.integers(0, c + 1) for c in caps))
    terms = st.one_of(
        st.just({}),
        st.dictionaries(exponent, SMALL, min_size=1, max_size=1),
        st.dictionaries(exponent, SMALL, max_size=12),
    )
    return sp, draw(terms), draw(terms), draw(SMALL)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ring_cases())
def test_integer_ring_matches_the_fraction_reference(case):
    sp, ta, tb, c = case
    a, b = TruncSeries(sp, ta), TruncSeries(sp, tb)
    ta, tb = truncated(sp, ta), truncated(sp, tb)
    keys = set(ta) | set(tb)
    checks = [
        (a, ta),
        (a + b, truncated(sp, {e: ta.get(e, 0) + tb.get(e, 0) for e in keys})),
        (a - b, truncated(sp, {e: ta.get(e, 0) - tb.get(e, 0) for e in keys})),
        (a - a, {}),
        (-a, {e: -x for e, x in ta.items()}),
        (a + c, truncated(sp, {**ta, (0,) * len(sp.caps): ta.get((0,) * len(sp.caps), 0) + c})),
        (a * c, truncated(sp, {e: x * c for e, x in ta.items()})),
        (c * a, truncated(sp, {e: x * c for e, x in ta.items()})),
        (a * b, reference_product(sp, ta, tb)),
        (a * sp.monomial(c, x0=1), reference_product(sp, ta, {sp.exponents(x0=1): c})),
    ]
    if c:
        checks.append((a / c, {e: x / c for e, x in ta.items()}))
    if ta.get((0,) * len(sp.caps)):
        checks.append((a.inverse(), reference_inverse(sp, ta)))
        checks.append((b / a, reference_product(sp, tb, reference_inverse(sp, ta))))
    for k in range(3):
        checks.append((a.shift_up("x0", k), truncated(sp, {
            (e[0] + k,) + e[1:]: x for e, x in ta.items()})))
        if all(e[0] >= k for e in ta):
            checks.append((a.shift_down("x0", k), {(e[0] - k,) + e[1:]: x for e, x in ta.items()}))
        else:
            with pytest.raises(ExactDivisionError):
                a.shift_down("x0", k)
    low = SeriesSpace(sp.params, [max(cap - 1, 0) for cap in sp.caps])
    checks.append((a.truncate_to(low), truncated(low, ta)))
    for got, want in checks:
        assert_canonical(got)
        assert got.terms == want
        assert got == TruncSeries(got.space, want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 2), min_size=1, max_size=2).flatmap(
        lambda caps: st.tuples(st.just(caps), st.lists(FIELDS, min_size=1, max_size=9))),
    st.sampled_from((1, 2, 6, 35, 2**64 + 2)),
)
def test_read_fields_matches_the_fraction_reference(case, d):
    # fields at the dense slots, the gaps (None) among them dropped
    caps, fields = case
    sp = SeriesSpace([f"x{k}" for k in range(len(caps))], caps)
    exponents = sp._exponents[: len(fields)]
    fields = fields[: len(exponents)]
    got = read_fields(sp, fields, exponents, d)
    assert_canonical(got)
    assert got.terms == {e: Fraction(x, d) for e, x in zip(exponents, fields) if x and e is not None}
