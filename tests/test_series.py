from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau.errors import ExactDivisionError
from hurwitz_tau.series import SeriesSpace, TruncSeries


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
    g = sp.gen("z")
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
    a = sp.geom(1, "z") + sp.gen("w") * 3
    b = sp.gen("w") * 3 + sp.geom(1, "z")
    assert a == b
    assert a - b == sp.zero()
    assert (a * 0).is_zero()
    assert a * 1 == a
    assert a == a * Fraction(2) / 2


def test_inverse():
    sp = space()
    u = sp.one() - sp.gen("z") * 2 + sp.gen("w")
    v = u.inverse()
    assert u * v == sp.one()
    with pytest.raises(ExactDivisionError):
        sp.gen("z").inverse()


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
    assert u.valuation("z") == 2
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
