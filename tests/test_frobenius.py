"""The two products with the character matrix and the Frobenius basis
changes built on them (center of C[S_n], power-sum/Schur), each against a
per-entry formula kept in this file."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau.center import CenterElement, class_to_idem, idem_to_class
from hurwitz_tau.characters import character, character_table
from hurwitz_tau.partitions import hook_product, partitions_of, z_of
from hurwitz_tau.series import SeriesSpace, TruncSeries
from hurwitz_tau.symfunc import SymFunc, s_basis, to_schur

COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def entrywise(n, v, zero, weight, by_row):
    """{key: sum_k v[k] weight(...)} over the partitions of n, zero entries
    dropped; by_row sums over mu for each lam (weight(lam, mu)), otherwise
    over lam for each mu."""
    out = {}
    for key in partitions_of(n):
        total = zero
        for k, c in v.items():
            total = total + c * (weight(key, k) if by_row else weight(k, key))
        if total:
            out[key] = total
    return out


@st.composite
def coordinates(draw):
    """(n, zero, v): n <= 6 and a sparse vector v on the partitions of n
    whose coefficients are Fractions or series in 0..2 parameters with caps
    <= 2 (zero series included)."""
    n = draw(st.integers(0, 6))
    params = draw(st.sampled_from((None, (), ("z",), ("z", "w"))))
    if params is None:
        zero, value = Fraction(0), COEFF
    else:
        space = SeriesSpace(params, [draw(st.integers(0, 2)) for _ in params])
        exps = st.tuples(*(st.integers(0, cap) for cap in space.caps))
        zero = space.zero()
        value = st.dictionaries(exps, COEFF, max_size=3).map(lambda t: TruncSeries(space, t))
    keys = draw(st.lists(st.sampled_from(partitions_of(n)), unique=True))
    return n, zero, {k: draw(value) for k in keys}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(coordinates())
def test_table_products_match_entrywise_formula(case):
    n, zero, v = case
    table = character_table(n)
    assert table.times(v) == entrywise(n, v, zero, character, by_row=True)
    assert table.transpose_times(v) == entrywise(n, v, zero, character, by_row=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(coordinates())
def test_center_basis_changes_match_textbook_formulas(case):
    n, zero, v = case
    # C_mu = Z_mu^-1 sum_lam h_lam chi_lam(mu) F_lam
    want = entrywise(
        n, v, zero,
        lambda lam, mu: Fraction(hook_product(lam) * character(lam, mu), z_of(mu)),
        by_row=True,
    )
    assert class_to_idem(CenterElement(n, v)) == want
    # F_lam = h_lam^-1 sum_mu chi_lam(mu) C_mu
    want = entrywise(
        n, v, zero,
        lambda lam, mu: Fraction(character(lam, mu), hook_product(lam)),
        by_row=False,
    )
    assert idem_to_class(n, v).coords == want


@st.composite
def mixed_degree_terms(draw):
    """{partition: Fraction} with terms in two to four distinct degrees <= 6."""
    degrees = draw(st.lists(st.integers(0, 6), min_size=2, max_size=4, unique=True))
    terms = {}
    for n in degrees:
        keys = draw(st.lists(st.sampled_from(partitions_of(n)), min_size=1, unique=True))
        terms.update({k: draw(COEFF.filter(bool)) for k in keys})
    return terms


def by_degree(terms, n):
    return {k: c for k, c in terms.items() if sum(k) == n}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(mixed_degree_terms())
def test_symfunc_conversions_on_several_degrees(terms):
    degrees = {sum(k) for k in terms}
    # S_lam = sum_mu chi_lam(mu) P_mu / Z_mu, degree by degree
    want = {}
    for n in degrees:
        slice_ = entrywise(n, by_degree(terms, n), Fraction(0), character, by_row=False)
        want.update({mu: c / z_of(mu) for mu, c in slice_.items()})
    f = s_basis(terms)
    assert f.terms == want
    assert to_schur(f) == terms
    # P_mu = sum_lam chi_lam(mu) S_lam, degree by degree
    want = {}
    for n in degrees:
        want.update(entrywise(n, by_degree(terms, n), Fraction(0), character, by_row=True))
    g = SymFunc(terms)
    assert to_schur(g) == want
    assert s_basis(to_schur(g)) == g
