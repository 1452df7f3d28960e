from fractions import Fraction
from math import factorial

import pytest

from hurwitz_tau.center import (
    CenterElement,
    characteristic_map,
    class_structure_constants,
    class_to_idem,
    center_multiply,
    cut_and_join_operator,
    euler_operator,
    idem_to_class,
    project_to_classes,
    unit_class,
    unit_idempotent,
)
from hurwitz_tau.characters import character_table
from hurwitz_tau.errors import CentralityError
from hurwitz_tau.groupalg import (
    GroupAlgebraElement,
    class_representative,
    class_sum,
    compose,
    conjugacy_classes,
    cycle_type,
    jm_element,
    jm_power_sum,
)
from hurwitz_tau.partitions import class_size, partitions_of
from hurwitz_tau.series import SeriesSpace
from hurwitz_tau.symfunc import SymFunc, s_basis, to_schur


def test_n2_idempotents_by_hand():
    f2 = unit_idempotent(2, (2,))
    assert f2.coords == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    f11 = unit_idempotent(2, (1, 1))
    assert f11.coords == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}


def test_roundtrips():
    for n in range(9):
        for lam in partitions_of(n):
            assert class_to_idem(unit_idempotent(n, lam)) == {lam: 1}
            w = unit_class(n, lam)
            assert idem_to_class(n, class_to_idem(w)).coords == w.coords


def test_idempotent_multiplication():
    for n in range(1, 6):
        for lam in partitions_of(n):
            f = unit_idempotent(n, lam)
            assert center_multiply(f, f).coords == f.coords
            for nu in partitions_of(n):
                if nu != lam:
                    assert center_multiply(f, unit_idempotent(n, nu)).coords == {}


def test_c2_squared_n4():
    product = center_multiply(unit_class(4, (2, 1, 1)), unit_class(4, (2, 1, 1)))
    assert product.coords == {
        (3, 1): Fraction(3),
        (2, 2): Fraction(2),
        (1, 1, 1, 1): Fraction(6),
    }


def test_center_multiply_agrees_with_group_algebra():
    for n in range(1, 6):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                fast = center_multiply(unit_class(n, mu), unit_class(n, nu))
                slow = project_to_classes(class_sum(n, mu) * class_sum(n, nu))
                assert fast.coords == slow.coords


def test_structure_constants_are_nonnegative_integers():
    constants = class_structure_constants(4)
    for table in constants.values():
        for value in table.values():
            assert value.denominator == 1 and value >= 0


def test_structure_constants_equal_convolution():
    # the raw product C_mu * C_nu in C[S_n] is the reference
    for n in range(1, 6):
        constants = class_structure_constants(n)
        assert len(constants) == len(partitions_of(n)) ** 2
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                slow = project_to_classes(class_sum(n, mu) * class_sum(n, nu))
                assert constants[(mu, nu)] == slow.coords, (mu, nu)


def test_structure_constants_equal_a_compose_recount():
    # y * g_kappa for every y, its class by cycle_type: the counts read off
    # ranked lookups of g_kappa * y must agree
    for n in range(1, 6):
        parts = partitions_of(n)
        want = {(mu, nu): {} for mu in parts for nu in parts}
        for kappa in parts:
            g = class_representative(kappa, n)
            for mu in parts:
                for y in conjugacy_classes(n)[mu]:
                    row = want[(mu, cycle_type(compose(y, g)))]
                    row[kappa] = row.get(kappa, 0) + 1
        assert class_structure_constants(n) == want


@pytest.mark.parametrize("n", [6, 7])
def test_structure_constants_frobenius_formula(n):
    # c^kappa_{mu nu} = |C_mu||C_nu|/n! sum_lam chi(mu) chi(nu) chi(kappa) / chi(1)
    table = character_table(n)
    parts = partitions_of(n)
    one = (1,) * n
    constants = class_structure_constants(n)
    for mu in parts:
        for nu in parts:
            for kappa in parts:
                total = sum(
                    Fraction(
                        table.value(lam, mu) * table.value(lam, nu) * table.value(lam, kappa),
                        table.value(lam, one),
                    )
                    for lam in parts
                )
                want = total * class_size(mu) * class_size(nu) / factorial(n)
                assert constants[(mu, nu)].get(kappa, 0) == want, (mu, nu, kappa)


def test_structure_constants_invariants():
    for n in range(1, 7):
        constants = class_structure_constants(n)
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                assert constants[(mu, nu)] == constants[(nu, mu)]
            # every x in C_mu gives one y = x^-1 g_kappa, in some class
            for kappa in parts:
                assert sum(constants[(mu, nu)].get(kappa, 0) for nu in parts) == class_size(mu)


def test_characteristic_map_examples():
    assert characteristic_map(unit_class(2, (2,))).terms == {(2,): Fraction(1, 2)}
    f = characteristic_map(unit_idempotent(2, (2,)))
    assert f == s_basis({(2,): Fraction(1, 2)})
    assert f.terms == {(2,): Fraction(1, 4), (1, 1): Fraction(1, 4)}


def test_characteristic_map_frobenius_consistency():
    for n in range(1, 7):
        for mu in partitions_of(n):
            from hurwitz_tau.characters import character_table
            from hurwitz_tau.partitions import z_of

            table = character_table(n)
            via_schur = to_schur(characteristic_map(unit_class(n, mu)))
            expected = {
                lam: Fraction(table.value(lam, mu), z_of(mu))
                for lam in partitions_of(n)
                if table.value(lam, mu)
            }
            assert via_schur == expected


def test_project_to_classes():
    assert project_to_classes(class_sum(3, (2, 1))).coords == {(2, 1): Fraction(1)}
    assert project_to_classes(jm_power_sum(4, 1)).coords == {(2, 1, 1): Fraction(1)}
    with pytest.raises(CentralityError):
        project_to_classes(jm_element(3, 3))


def test_group_algebra_roundtrip():
    for lam in partitions_of(4):
        v = unit_idempotent(4, lam)
        # expand into the full group algebra: sum_mu c_mu C_mu
        total = GroupAlgebraElement.zero(4)
        for mu, c in v.coords.items():
            total = total + class_sum(4, mu).scale(c)
        back = project_to_classes(total)
        assert back.coords == v.coords


def test_euler_operator():
    f = SymFunc({(2, 1): Fraction(1, 2)})
    assert euler_operator(f).terms == {(2, 1): Fraction(3, 2)}


def test_cut_and_join_is_multiplication_by_c2():
    for n in range(2, 7):
        c2 = (2,) + (1,) * (n - 2)
        for mu in partitions_of(n):
            lhs = cut_and_join_operator(characteristic_map(unit_class(n, mu)))
            rhs = characteristic_map(
                center_multiply(unit_class(n, c2), unit_class(n, mu))
            )
            assert lhs == rhs, (n, mu)


def test_cut_and_join_cross_basis_input():
    f = s_basis({(2,): 1})
    g = SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert cut_and_join_operator(f) == cut_and_join_operator(g)


def test_center_element_validation():
    with pytest.raises(ValueError):
        CenterElement(3, {(2, 2): Fraction(1)})


@pytest.mark.parametrize("bad", (0.5, 0.1, "1/2"), ids=repr)
def test_center_element_refuses_inexact_coordinates(bad):
    # a float or a str coordinate once passed through: 0.5 at (2, 1) times
    # C_(2,1) came back as float coordinates {(3,): 1.5, (1, 1, 1): 1.5}
    with pytest.raises(TypeError, match="exact rationals or series"):
        CenterElement(3, {(2, 1): bad})
    assert CenterElement(3, {(2, 1): Fraction(1, 2), (3,): 2}).coeff((2, 1)) == Fraction(1, 2)


def test_characteristic_map_rejects_series_coordinates():
    q = SeriesSpace(("q",), (2,)).monomial(1, q=1)
    for v in (CenterElement(2, {(2,): q}), idem_to_class(2, {(2,): q})):
        with pytest.raises(TypeError, match="characteristic_map takes rational"):
            characteristic_map(v)


def test_series_coordinates_round_trip():
    space = SeriesSpace(("q",), (3,))
    parts = partitions_of(4)
    coords = {
        mu: space.monomial(Fraction(k + 1, 3), q=k % 4) + space.scalar(k - 2)
        for k, mu in enumerate(parts)
    }

    def to_idem(v):
        return class_to_idem(CenterElement(4, v))

    def to_class(v):
        return idem_to_class(4, v).coords

    for there, back in ((to_idem, to_class), (to_class, to_idem)):
        moved = there(coords)
        assert back(moved) == coords
        # each power of q moves as the rational vector of its coefficients
        for d in range(4):
            want = there({mu: c.coeff(q=d) for mu, c in coords.items()})
            got = {lam: c.coeff(q=d) for lam, c in moved.items() if c.coeff(q=d)}
            assert got == want
