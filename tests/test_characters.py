from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau.characters import (
    CharacterTable,
    border_strip_removals,
    character,
    character_table,
)
from hurwitz_tau.errors import SizeLimitError
from hurwitz_tau.oracles import character_via_alternant
from hurwitz_tau.partitions import dimension, partitions_of, z_of


def alternant_coefficient(lam, mu):
    """chi_lam(mu) as the coefficient of x^(lam + delta) in a_delta p_mu,
    swept over the n! terms sgn(sigma) x^sigma(delta) of a_delta: a
    per-entry reference for the column oracle."""
    n = sum(lam)
    delta = tuple(range(n - 1, -1, -1))
    target = tuple(p + d for p, d in zip(lam + (0,) * (n - len(lam)), delta))
    memo = {}

    def ways(k, remaining):
        # maps of the parts mu[k:] onto variables realising ``remaining``
        if k == len(mu):
            return int(not any(remaining))
        if (k, remaining) not in memo:
            memo[(k, remaining)] = sum(
                ways(k + 1, remaining[:a] + (r - mu[k],) + remaining[a + 1 :])
                for a, r in enumerate(remaining)
                if r >= mu[k]
            )
        return memo[(k, remaining)]

    total = 0
    for sigma in permutations(range(n)):
        rest = tuple(t - delta[s] for t, s in zip(target, sigma))
        if min(rest, default=0) >= 0:
            inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1 :])
            total += (-1) ** inversions * ways(0, rest)
    return total


def test_trivial_and_sign_rows():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_standard_representation_values():
    # the (2,1) row of S_3, cross-checked by the alternant oracle
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1
    for mu in partitions_of(3):
        assert character((2, 1), mu) == character_via_alternant(mu)[(2, 1)]


def test_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_border_strip_removals():
    # removing a 3-strip from (2,1) leaves the empty shape and spans 2 rows
    assert list(border_strip_removals((2, 1), 3)) == [((), -1)]
    # no 2-strips can be removed from (1,)
    assert list(border_strip_removals((1,), 2)) == []


def test_small_tables():
    t1 = character_table(1)
    assert t1.chi == ((1,),)
    t2 = character_table(2)
    assert t2.parts == ((2,), (1, 1))
    assert t2.chi == ((1, 1), (-1, 1))


def test_tables_validate_up_to_8():
    for n in range(9):
        character_table(n).validate()


def test_dimension_column():
    for n in range(1, 8):
        table = character_table(n)
        for lam in table.parts:
            assert table.value(lam, (1,) * n) == dimension(lam)


def test_murnaghan_nakayama_equals_alternant_oracle():
    for n in range(1, 6):
        for mu in partitions_of(n):
            column = character_via_alternant(mu)
            for lam in partitions_of(n):
                assert character(lam, mu) == column[lam]


@pytest.mark.parametrize("n", range(7))
def test_alternant_column_equals_the_per_entry_sweep(n):
    parts = partitions_of(n)
    for mu in parts:
        column = character_via_alternant(mu)
        assert list(column) == list(parts)  # exactly p(n) keys, zeros included
        assert column == {lam: alternant_coefficient(lam, mu) for lam in parts}, mu


def test_row_sum_against_trivial_character():
    from math import factorial

    for n in range(1, 7):
        for lam in partitions_of(n):
            total = sum(
                Fraction(factorial(n), z_of(mu)) * character(lam, mu)
                for mu in partitions_of(n)
            )
            assert total == (factorial(n) if lam == (n,) else 0)


def test_cap():
    with pytest.raises(SizeLimitError):
        character_table(11)


def test_json_shape():
    data = character_table(2).as_json_dict()
    assert data == {"n": 2, "order": ["2", "1,1"], "chi": [[1, 1], [-1, 1]]}


def test_concurrent_callers_see_identical_values():
    # the memo caches must be safe to hit from several threads at once
    from concurrent.futures import ThreadPoolExecutor

    from hurwitz_tau import characters as chars

    chars._mn_cache.clear()
    chars.character_table.cache_clear()
    cases = [
        (lam, mu)
        for n in range(6, 8)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda pair: character(*pair), cases * 2))
    sequential = [character(lam, mu) for lam, mu in cases * 2]
    assert results == sequential
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(character_table, [6] * 8))
    assert all(t is tables[0] or t.chi == tables[0].chi for t in tables)


def test_validate_raises_on_a_corrupted_table():
    # explicit raises, so that python -O still validates
    table = character_table(3)
    chi = [list(row) for row in table.chi]
    chi[0][0] += 1
    broken = CharacterTable(3, table.parts, tuple(tuple(row) for row in chi))
    with pytest.raises(ArithmeticError, match="orthogonality"):
        broken.validate()


def test_validate_catches_swapped_rows_by_the_dimension_column():
    # Both orthogonality relations survive a row swap; only the dimension
    # column tells (4) from (3,1).
    table = character_table(4)
    chi = list(table.chi)
    a, b = table.position[(4,)], table.position[(3, 1)]
    chi[a], chi[b] = chi[b], chi[a]
    broken = CharacterTable(4, table.parts, tuple(chi))
    with pytest.raises(ArithmeticError, match="dimension column"):
        broken.validate()


@st.composite
def rational_vectors(draw):
    n = draw(st.integers(0, 6))
    parts = partitions_of(n)
    keys = draw(st.lists(st.sampled_from(parts), unique=True))
    coeff = st.fractions(max_denominator=60, min_value=-20, max_value=20)
    return n, {k: draw(coeff) for k in keys}


def per_term_product(rows, parts, v):
    """{key: sum of Fraction(c) * entry} over v = {part: c}, zeros dropped."""
    position = {p: j for j, p in enumerate(parts)}
    out = {}
    for key, row in zip(parts, rows):
        total = sum((Fraction(c) * row[position[k]] for k, c in v.items()), Fraction(0))
        if total:
            out[key] = total
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_vectors())
def test_rational_products_match_the_per_term_sum(case):
    n, v = case
    table = character_table(n)
    for got, rows in (
        (table.times(v), table.chi),
        (table.transpose_times(v), list(zip(*table.chi))),
    ):
        want = per_term_product(rows, table.parts, v)
        assert got == want
        assert all(type(c) is Fraction for c in got.values())
