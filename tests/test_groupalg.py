import random
from fractions import Fraction
from itertools import permutations

import pytest

from hurwitz_tau.errors import CentralityError
from hurwitz_tau.groupalg import (
    GroupAlgebraElement,
    class_representative,
    class_sum,
    compose,
    conjugacy_classes,
    cycle_type,
    identity,
    jm_element,
    jm_power_sum,
    transposition,
    transpositions,
)
from hurwitz_tau.partitions import class_size, partitions_of


def test_compose_convention_right_factor_first():
    # (12)(23): 3 -> 2 -> 1 under apply-right-first composition
    product = compose(transposition(3, 1, 2), transposition(3, 2, 3))
    assert product == (2, 3, 1)
    assert product[3 - 1] == 1
    assert cycle_type(product) == (3,)


def test_inverse_and_identity():
    g, g_inv = (3, 1, 4, 2), (2, 4, 1, 3)
    assert compose(g, g_inv) == identity(4)
    assert compose(g_inv, g) == identity(4)
    assert compose(g, identity(4)) == g == compose(identity(4), g)


def test_transpositions_enumeration():
    taus = transpositions(4)
    assert len(taus) == 6
    assert all(a < b for a, b, _ in taus)


def test_class_representative_layout():
    # parts laid out consecutively, largest first: (3,1) -> (1 2 3)(4)
    assert class_representative((3, 1), 4) == (2, 3, 1, 4)
    assert class_representative((1, 1, 1), 3) == (1, 2, 3)
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert cycle_type(class_representative(mu, n)) == mu


def test_class_sum_support():
    assert class_sum(3, (1, 1, 1)) == GroupAlgebraElement.unit(3)
    c = class_sum(3, (2, 1))
    assert len(c.terms) == 3
    assert len(class_sum(4, (3, 1)).terms) == 8  # 4!/Z = 24/3
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert len(class_sum(n, mu).terms) == class_size(mu)


def test_delta_g_times_inverse():
    g = (3, 1, 4, 2)
    a = GroupAlgebraElement(4, {g: Fraction(1)})
    b = GroupAlgebraElement(4, {(2, 4, 1, 3): Fraction(1)})
    assert a * b == GroupAlgebraElement.unit(4)


def test_c2_squared_in_s3():
    c2 = class_sum(3, (2, 1))
    coords = (c2 * c2).class_coordinates()
    assert coords == {(1, 1, 1): Fraction(3), (3,): Fraction(3)}


def test_jm_elements():
    assert jm_element(3, 1).terms == {}
    j3 = jm_element(3, 3)
    assert j3.terms == {
        transposition(3, 1, 3): Fraction(1),
        transposition(3, 2, 3): Fraction(1),
    }
    with pytest.raises(ValueError):
        jm_element(3, 4)


def test_jm_power_sums():
    assert jm_power_sum(4, 0) == GroupAlgebraElement.unit(4).scale(4)
    for n in range(2, 7):
        assert jm_power_sum(n, 1) == class_sum(n, (2,) + (1,) * (n - 2))


def test_jm_second_power_class_expression():
    for n in range(4, 8):
        lhs = jm_power_sum(n, 2) - GroupAlgebraElement.unit(n).scale(
            Fraction(n * (n - 1), 2)
        )
        assert lhs == class_sum(n, (3,) + (1,) * (n - 3))


def test_jm_power_sums_are_central():
    for n in range(2, 6):
        c2 = class_sum(n, (2,) + (1,) * (n - 2))
        for i in range(5):
            p = jm_power_sum(n, i)
            assert p.commutes_with(c2)
            p.class_coordinates()  # does not raise


def test_centrality_error_reports_witness():
    with pytest.raises(CentralityError) as info:
        jm_element(3, 3).class_coordinates()
    g0, c0, g1, c1 = info.value.witness
    assert cycle_type(g0) == cycle_type(g1)
    assert c0 != c1


def test_conjugacy_classes_partition_the_group():
    from math import factorial

    for n in range(1, 7):
        classes = conjugacy_classes(n)
        assert sum(len(v) for v in classes.values()) == factorial(n)
        assert set(classes) == set(partitions_of(n))
    # the depth-first build against itertools in lexicographic order, grouped
    # by cycle type: same classes, class order and member order
    for n in range(9):
        grouped = {}
        for g in permutations(range(1, n + 1)):
            grouped.setdefault(cycle_type(g), []).append(g)
        classes = conjugacy_classes(n)
        assert list(classes) == list(grouped)
        assert all(classes[mu] == tuple(members) for mu, members in grouped.items())


def fraction_twin(x):
    """The same element with every coefficient a Fraction."""
    return GroupAlgebraElement(x.n, {g: Fraction(c) for g, c in x.terms.items()})


def test_builders_hold_int_coefficients():
    for x in (GroupAlgebraElement.unit(4), class_sum(4, (2, 2)), jm_element(4, 3)):
        assert x.terms and all(type(c) is int for c in x.terms.values())
    assert all(type(c) is int for c in jm_power_sum(4, 0).terms.values())


def test_fraction_scaling_returns_to_the_int_twin():
    x = class_sum(4, (3, 1)) + jm_power_sum(4, 2)
    back = x.scale(Fraction(1, 2)).scale(2)
    assert any(type(c) is Fraction for c in back.terms.values())
    assert back == x
    assert x.scale(Fraction(1, 2)) != x
    assert fraction_twin(x) == x and x == fraction_twin(x)


def test_int_products_equal_their_fraction_twins():
    for n in range(1, 6):
        factors = [class_sum(n, mu) for mu in partitions_of(n)]
        factors += [jm_power_sum(n, i) for i in range(3)]
        for a in factors:
            for b in factors:
                product = a * b
                assert all(type(c) is int for c in product.terms.values())
                assert product == fraction_twin(a) * fraction_twin(b)


def test_products_equal_the_compose_reference():
    rng = random.Random(5)
    for n in range(6):
        group = list(permutations(range(1, n + 1)))
        for exact in (int, lambda a: Fraction(a, rng.randint(1, 3))):
            def element():
                picks = rng.sample(group, min(len(group), 7))
                return GroupAlgebraElement(n, {g: exact(rng.randint(-4, 4)) for g in picks})

            for _ in range(4):
                a, b = element(), element()
                want = {}
                for g, cg in a.terms.items():
                    for h, ch in b.terms.items():
                        key = compose(g, h)
                        want[key] = want.get(key, 0) + cg * ch
                assert (a * b).terms == {g: c for g, c in want.items() if c}


def test_negative_powers_are_refused():
    with pytest.raises(ValueError, match="powers must be >= 0, got -1"):
        jm_element(3, 3) ** -1
    assert jm_element(3, 3) ** 0 == GroupAlgebraElement.unit(3)


def test_scalars_must_be_exact_rationals():
    x = jm_element(3, 3)
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError, match="exact rationals"):
            x.scale(bad)
        with pytest.raises(TypeError, match="exact rationals"):
            x * bad
    assert x * Fraction(1, 2) == x.scale(Fraction(1, 2))

