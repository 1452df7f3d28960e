from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from hurwitz_tau.errors import SizeLimitError
from hurwitz_tau.oracles import hook_product_via_determinant, partition_count_pentagonal
from hurwitz_tau.partitions import (
    check_partition,
    class_size,
    conjugate,
    content_sum,
    contents,
    dimension,
    format_partition,
    hook_product,
    parse_partition,
    partitions_of,
    pochhammer_partition,
    z_of,
)


def test_enumeration_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_enumeration_count_against_pentagonal_recurrence():
    for n in range(13):
        assert len(partitions_of(n)) == partition_count_pentagonal(n)
    assert len(partitions_of(8)) == 22


def test_canonical_order_is_strictly_decreasing():
    for n in range(11):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for a, b in zip(parts, parts[1:]):
            assert a > b  # descending lexicographic via tuple comparison


def test_cap():
    with pytest.raises(SizeLimitError):
        partitions_of(13)
    for n in range(13):
        assert len(partitions_of(n)) == partition_count_pentagonal(n)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_z_of():
    assert z_of((2, 1)) == 2
    assert z_of((1, 1, 1)) == 6
    assert z_of((3, 3, 2)) == 36


def test_z_of_class_size_by_enumerating_s8():
    mu = (3, 3, 2)
    members = 0
    for images in permutations(range(1, 9)):
        seen = [False] * 8
        lengths = []
        for start in range(1, 9):
            if seen[start - 1]:
                continue
            x, size = start, 0
            while not seen[x - 1]:
                seen[x - 1] = True
                x = images[x - 1]
                size += 1
            lengths.append(size)
        if tuple(sorted(lengths, reverse=True)) == mu:
            members += 1
    assert members == factorial(8) // z_of(mu) == class_size(mu)


def test_hook_product():
    assert hook_product((2, 1)) == 3
    assert hook_product((2, 2)) == 12
    assert hook_product(()) == 1


def test_hook_product_against_factorial_determinant():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert hook_product_via_determinant(lam) == hook_product(lam)


def test_dimension_squares_sum_to_group_order():
    for n in range(9):
        assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_contents():
    assert contents((2, 1)) == (-1, 0, 1)
    assert contents((3,)) == (0, 1, 2)
    assert content_sum((2, 1)) == 0
    assert content_sum((3,)) == 3
    # direct cell enumeration: 0+1+2+3 (row 1) - 1+0 (row 2) - 2 (row 3)
    assert content_sum((4, 2, 1)) == 3


def test_content_sum_matches_closed_form():
    # (1/2) sum_i lam_i (lam_i - 2i + 1), rows numbered from 1
    for n in range(11):
        for lam in partitions_of(n):
            closed = sum(part * (part - 2 * i + 1) for i, part in enumerate(lam, start=1))
            assert closed % 2 == 0 and content_sum(lam) == closed // 2


def test_contents_conjugation():
    for n in range(9):
        for lam in partitions_of(n):
            flipped = tuple(sorted(-c for c in contents(conjugate(lam))))
            assert flipped == contents(lam)


def test_pochhammer_row_case():
    n, k = Fraction(7), 4
    assert pochhammer_partition(n, (k,)) == 7 * 8 * 9 * 10


def test_pochhammer_examples():
    assert pochhammer_partition(3, (2, 1)) == 24
    a = Fraction(5, 2)
    cell_product = Fraction(1)
    for i, part in enumerate((2, 2), start=1):
        for j in range(1, part + 1):
            cell_product *= a + j - i
    assert pochhammer_partition(a, (2, 2)) == cell_product


def test_pochhammer_polynomial_identity_at_sample_points():
    # both formulas are polynomials in a of degree |lam|; comparing them at
    # l(lam) + |lam| + 1 distinct rationals proves equality
    for n in range(9):
        for lam in partitions_of(n):
            samples = len(lam) + n + 1
            for s in range(samples):
                a = Fraction(2 * s + 1, 3)
                row_formula = pochhammer_partition(a, lam)
                cell_formula = Fraction(1)
                for i, part in enumerate(lam, start=1):
                    for j in range(1, part + 1):
                        cell_formula *= a + j - i
                assert row_formula == cell_formula


def test_text_format():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == ""
    for n in range(7):
        for lam in partitions_of(n):
            assert parse_partition(format_partition(lam)) == lam
