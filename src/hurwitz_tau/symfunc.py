"""The ring of symmetric functions.

A SymFunc stores its coefficients on the power-sum basis, where
multiplication is partition concatenation and evaluation is a product of
power sums.  Schur coordinates cross into and out of it through two
conversions, degree by degree through the character table, by the
Frobenius expansions

    S_lam = sum_mu chi_lam(mu) P_mu / Z_mu,
    P_mu  = sum_lam chi_lam(mu) S_lam:

s_basis takes Schur coefficients in (chi^T, then 1/Z_mu) and to_schur
reads them out (chi), so the two are exact mutual inverses.  Values at
points come from one table per basis: powersum_products (every p_lam) and
schur_values (every nonzero S_nu).  TensorSymFunc products are weighted
sums of pair products on packed integers, and euler_recurrence runs the
formal log and exp on them.
"""

from fractions import Fraction
from math import factorial, lcm, prod

from .characters import character_table
from .partitions import (
    Partition,
    format_partition,
    partitions_of,
    z_of,
)
from .series import SeriesSpace, TruncSeries, exact, pack, read_packed


class SymFunc:
    """Sparse symmetric function on the power-sum basis: mapping partition
    -> coefficient of p_lam, an exact rational (a TypeError otherwise)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for lam, coeff in terms.items():
            lam = tuple(lam)
            clean[lam] = clean.get(lam, 0) + Fraction(exact(coeff))
        self.terms = {k: v for k, v in clean.items() if v}

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            bits.append(f"{self.terms[lam]}*p[{format_partition(lam)}]")
        return " + ".join(bits)

    def scale(self, c) -> "SymFunc":
        c = Fraction(exact(c))
        return SymFunc({lam: coeff * c for lam, coeff in self.terms.items()})


def _degree_slices(terms: dict) -> dict[int, dict]:
    slices = {}
    for lam, c in terms.items():
        slices.setdefault(sum(lam), {})[lam] = c
    return slices


def s_basis(terms) -> SymFunc:
    """sum_lam c_lam S_lam for terms = {lam: c_lam}, on the p-basis."""
    out = {}
    for n, part in _degree_slices(terms).items():
        for mu, c in character_table(n).transpose_times(part).items():
            out[mu] = Fraction(c, z_of(mu))
    return SymFunc(out)


def to_schur(f: SymFunc) -> dict[Partition, Fraction]:
    """The Schur coordinates {lam: c_lam} of f = sum_lam c_lam S_lam."""
    out = {}
    for n, part in _degree_slices(f.terms).items():
        out.update(character_table(n).times(part))
    return out


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the ring: p-monomials concatenate."""
    terms: dict[Partition, Fraction] = {}
    for lam, ca in f.terms.items():
        for mu, cb in g.terms.items():
            key = tuple(sorted(lam + mu, reverse=True))
            terms[key] = terms.get(key, Fraction(0)) + ca * cb
    return SymFunc(terms)


def evaluate(f: SymFunc, xs) -> Fraction:
    """Evaluate at a finite list of values via p_k -> sum_a x_a^k, one
    power sum per part size up to the largest part of f."""
    xs = [Fraction(x) for x in xs]
    top = max((max(lam) for lam in f.terms if lam), default=0)
    p = {k: sum((x**k for x in xs), Fraction(0)) for k in range(1, top + 1)}
    return sum((c * prod(p[k] for k in lam) for lam, c in f.terms.items()), Fraction(0))


def powersum_products(values, n_max: int) -> dict:
    """{lam: p_lam(values)} for every partition of size <= n_max, exact on
    ints and Fractions alike; p_lam is p_{lam without its last part} times
    p_{last part}."""
    p_k = [sum(x**k for x in values) for k in range(n_max + 1)]
    products = {(): 1}
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            products[lam] = products[lam[:-1]] * p_k[lam[-1]]
    return products


def schur_numerators(xs, n_max: int) -> tuple[dict[Partition, int], list[int]]:
    """({nu: s_nu}, dens) with S_nu(xs) = s_nu / dens[|nu|] for every
    partition nu of size <= n_max whose value is nonzero, so no nu longer
    than len(xs) appears.

    Each degree n is one CharacterTable.times on integers: with D the lcm
    of the denominators of xs, S_nu(xs) = sum_mu chi_nu(mu) (n!/Z_mu)
    p_mu(D xs) / (n! D^n), so dens[n] = n! D^n."""
    xs = [Fraction(x) for x in xs]
    d = lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (d // x.denominator) for x in xs]
    powers = powersum_products(ints, n_max)
    numerators, dens = {}, []
    for n in range(n_max + 1):
        table, top = character_table(n), factorial(n)
        weights = {mu: top // z_of(mu) * powers[mu] for mu in table.parts}
        numerators.update(table.times(weights))
        dens.append(top * d**n)
    return numerators, dens


def schur_values(xs, n_max: int) -> dict[Partition, Fraction]:
    """{nu: S_nu(xs)} for every partition of size <= n_max whose value is
    nonzero: each schur_numerators entry read back once over its degree's
    denominator."""
    numerators, dens = schur_numerators(xs, n_max)
    return {nu: Fraction(s, dens[sum(nu)]) for nu, s in numerators.items()}


def cauchy_sides(n: int, xs, ys) -> tuple[Fraction, Fraction]:
    """Degree-n pieces of the Cauchy-Littlewood identity:

        sum_{|mu|=n} p_mu(x) p_mu(y) / Z_mu   and   sum_{|lam|=n} S_lam(x) S_lam(y),

    from one powersum_products and one schur_values table per point set.
    Both are returned so callers can assert equality; see
    oracles.cauchy_kernel_coeff for the product-side oracle.
    """
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    px, py = powersum_products(xs, n), powersum_products(ys, n)
    sx, sy = schur_values(xs, n), schur_values(ys, n)
    parts = partitions_of(n)
    power_side = sum((px[mu] * py[mu] / z_of(mu) for mu in parts), Fraction(0))
    schur_side = sum((sx.get(lam, 0) * sy.get(lam, 0) for lam in parts), Fraction(0))
    return power_side, schur_side


class TensorSymFunc:
    """Element of Lambda (x) Lambda on the p (x) p basis.

    terms maps a pair of partitions (lam, mu) to a coefficient, read as the
    coefficient of p_lam(x) * p_mu(y).  Coefficients are Fractions or
    TruncSeries of one space (the two may mix); a product holds series only.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v}

    def coeff(self, lam: Partition, mu: Partition):
        return self.terms.get((tuple(lam), tuple(mu)))

    def __eq__(self, other):
        return isinstance(other, TensorSymFunc) and self.terms == other.terms

    def mul(self, other, grade_cap: int) -> "TensorSymFunc":
        """Bilinear product; p-monomials concatenate on each tensor leg.
        Terms whose x-degree exceeds grade_cap are dropped."""
        return tensor_product_sum([(self, other, 1)], grade_cap)


_SCALARS = SeriesSpace((), ())  # the slot layout when no coefficient is a series


def _coefficient_space(tensors) -> SeriesSpace:
    """The one space of the series coefficients of the tensors; _SCALARS
    when every coefficient is a Fraction."""
    series = [c for f in tensors for c in f.terms.values() if isinstance(c, TruncSeries)]
    space = series[0].space if series else _SCALARS
    if any(c.space is not space and c.space != space for c in series):
        raise ValueError(f"series spaces differ: {sorted({c.space for c in series}, key=repr)}")
    return space


def _numerators(f: TensorSymFunc, space: SeriesSpace) -> tuple[int, int, int, dict]:
    """(D, E, M, {lam: [(mu, [(slot, numerator)])]}): the E numerators of f
    over D, the lcm of the coefficients' denominators, at the dense slots of
    ``space``, grouped by the x-partition, M the largest in size; a
    Fraction sits in the constant slot."""
    zero = (0,) * len(space.params)
    coeffs = [(c.den, c.nums) if isinstance(c, TruncSeries) else (c.denominator, {zero: c.numerator})
              for c in f.terms.values()]
    d, slot = lcm(*(den for den, _ in coeffs)), space._slots
    groups, count, top = {}, 0, 0
    for (lam, mu), (den, nums) in zip(f.terms, coeffs):
        m = d // den
        groups.setdefault(lam, []).append((mu, [(slot[e], x * m) for e, x in nums.items()]))
        count += len(nums)
        top = max(top, max(map(abs, nums.values())) * m)
    return d, count, top, groups


def tensor_product_sum(pairs, grade_cap: int, scale=1) -> TensorSymFunc:
    """scale * sum_i w_i a_i b_i over weighted tensor pairs (a_i, b_i, w_i),
    w_i an int, terms of x-degree above grade_cap dropped (_packed_sum)."""
    pairs = [(a, b, w) for a, b, w in pairs if a.terms and b.terms]
    space = _coefficient_space(f for a, b, _ in pairs for f in (a, b))
    operands = [(_numerators(a, space), _numerators(b, space), w) for a, b, w in pairs]
    return _packed_sum(operands, grade_cap, Fraction(scale), space)


def euler_recurrence(f: TensorSymFunc, n_max: int, log: bool) -> TensorSymFunc:
    """The formal log (log=True) or exp of f through x-degree n_max, from
    its x-degree slices by the Euler recurrence

        n tau_n = sum_{k=1}^{n} k F_k tau_{n-k},   tau_0 = 1,

    D tau = tau DF for D the Euler operator in the x-degree (the sheet
    grading, |lam| = |mu|): F from the slices of tau = f (log) or tau from
    those of F = f (exp).  Slice n is one _packed_sum over the pairs
    (F_k, tau_{n-k}) of weight k, k < n, and f's own slice n times 1:

        F_n = -(1/n) (sum_{k<n} k F_k tau_{n-k} - n tau_n)   (log),
        tau_n = (1/n) (sum_{k<n} k F_k tau_{n-k} + n F_n)    (exp),

    each slice's numerators taken once, on its first use as an operand.
    Terms of f above x-degree n_max are dropped; its x-degree-0 slice is
    read by neither."""
    given = [{} for _ in range(n_max + 1)]
    for (lam, mu), c in f.terms.items():
        if sum(lam) <= n_max:
            given[sum(lam)][lam, mu] = c
    given = [TensorSymFunc(terms) for terms in given]
    space = _coefficient_space(given)
    one = TensorSymFunc({((), ()): Fraction(1)})
    taus, logs = (given, [TensorSymFunc({})]) if log else ([one], given)
    solved, sign = (logs, -1) if log else (taus, 1)
    numerated = {}  # id of a slice -> its _numerators, for this call only

    def operand(g):
        if id(g) not in numerated:
            numerated[id(g)] = _numerators(g, space)
        return numerated[id(g)]

    for n in range(1, n_max + 1):
        pairs = [(logs[k], taus[n - k], k) for k in range(1, n)] + [(given[n], one, sign * n)]
        operands = [(operand(a), operand(b), w) for a, b, w in pairs if a.terms and b.terms]
        solved.append(_packed_sum(operands, n, Fraction(sign, n), space))
    return TensorSymFunc({key: c for part in solved for key, c in part.terms.items()})


def _packed_sum(operands, grade_cap: int, scale: Fraction, space: SeriesSpace) -> TensorSymFunc:
    """scale * sum_i w_i a_i b_i over numerated operands (_numerators of a_i,
    of b_i, w_i), terms of x-degree above grade_cap dropped, on packed
    integers: each coefficient is packed at the dense slots, pair i's
    products times w_i num(scale) D / (D_a D_b), D the lcm of the D_a D_b,
    add into one int per output key, and each key is read back once as a
    series over D den(scale).  An output key and slot and a term and slot
    of a fix those of b, so a field sums at most min(E_a, E_b) products per
    pair (E the number of numerators, M the largest) and stays below
    sum_i |w_i num(scale)| min(E_a, E_b) M_a M_b D / (D_a D_b): W is that
    bound's bit length + 1.  Each union of two partitions is sorted once
    per call."""
    denominator = lcm(*(a[0] * b[0] for a, b, _ in operands))
    multipliers = [w * scale.numerator * denominator // (da * db)
                   for (da, *_), (db, *_), w in operands]
    bound = sum(min(ea, eb) * ma * mb * abs(m)
                for ((_, ea, ma, _), (_, eb, mb, _), _), m in zip(operands, multipliers))
    width = bound.bit_length() + 1
    unions = {}

    def union(a, b):
        u = unions.get((a, b))
        if u is None:
            u = unions[a, b] = tuple(sorted(a + b, reverse=True))
        return u

    totals = {}
    for ((*_, groups_a), (*_, groups_b), _), multiplier in zip(operands, multipliers):
        right = [(sum(lb), lb, [(mb, pack(row, width)) for mb, row in rows])
                 for lb, rows in groups_b.items()]
        for la, rows in groups_a.items():
            degree_a = sum(la)
            left = [(ma, pack(row, width) * multiplier) for ma, row in rows]
            for degree_b, lb, right_rows in right:
                if degree_a + degree_b > grade_cap:
                    continue
                lam = union(la, lb)
                for ma, xa in left:
                    for mb, xb in right_rows:
                        key = (lam, union(ma, mb))
                        totals[key] = totals.get(key, 0) + xa * xb
    d = denominator * scale.denominator
    return TensorSymFunc({key: read_packed(space, x, width, d) for key, x in totals.items()})
