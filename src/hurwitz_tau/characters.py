"""Irreducible characters of the symmetric groups.

Single values come from a recursive border-strip (Murnaghan-Nakayama)
evaluation, memoized on (shape, remaining cycle lengths); full tables are
built once per n and cached.  Orthogonality makes the tables
self-checking: see CharacterTable.validate().  Every change of basis
through the table (class sums <-> idempotents in the center, power sums
<-> Schur functions) is one of its two products, chi . v and chi^T . v.

Everything is a pure function of its arguments; the memo caches only ever
publish finished values, so concurrent callers read identical results.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from operator import mul

from .config import CHARTABLE_CAP
from .errors import SizeLimitError
from .partitions import (
    Partition,
    dimension,
    format_partition,
    partitions_of,
    z_of,
)

_mn_cache: dict[tuple[Partition, tuple[int, ...]], int] = {}


def border_strip_removals(lam: Partition, r: int):
    """Yield (shape, sign) for every removal of a border strip of size r.

    Uses beta-numbers: strips of size r correspond to first-column hook
    lengths b with b - r >= 0 not already occupied; the sign is (-1) to the
    number of rows the strip spans minus one.
    """
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    occupied = set(beta)
    for b in beta:
        c = b - r
        if c < 0 or c in occupied:
            continue
        crossed = sum(1 for x in beta if c < x < b)
        new_beta = sorted((occupied - {b}) | {c}, reverse=True)
        shape = tuple(
            p for k, nb in enumerate(new_beta) if (p := nb - (ell - 1 - k)) > 0
        )
        yield shape, (-1) ** crossed


def _mn(lam: Partition, mu_suffix: tuple[int, ...]) -> int:
    if not mu_suffix:
        return 1 if not lam else 0
    key = (lam, mu_suffix)
    cached = _mn_cache.get(key)
    if cached is not None:
        return cached
    r, rest = mu_suffix[0], mu_suffix[1:]
    total = 0
    for shape, sign in border_strip_removals(lam, r):
        total += sign * _mn(shape, rest)
    _mn_cache[key] = total
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Character value chi_lam(mu) for partitions of the same n."""
    if sum(lam) != sum(mu):
        raise ValueError(
            f"character needs |lam| = |mu|, got {lam} and {mu}"
        )
    # Largest remaining cycle length is consumed first (mu is canonical,
    # i.e. weakly decreasing), which keeps the memo keys deterministic.
    return _mn(lam, tuple(sorted(mu, reverse=True)))


@dataclass(frozen=True)
class CharacterTable:
    n: int
    parts: tuple[Partition, ...]
    chi: tuple[tuple[int, ...], ...]  # chi[row lam][col mu]

    @cached_property
    def position(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.parts)}

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.chi[self.position[tuple(lam)]][self.position[tuple(mu)]]

    def times(self, v) -> dict:
        """chi . v = {lam: sum_mu chi_lam(mu) v[mu]} for v = {mu: coefficient}."""
        return self._product(self.chi, v)

    def transpose_times(self, v) -> dict:
        """chi^T . v = {mu: sum_lam chi_lam(mu) v[lam]} for v = {lam: coefficient}."""
        return self._product(zip(*self.chi), v)

    def _product(self, rows, v) -> dict:
        """Coefficients lie in any ring that ints scale (Fraction,
        TruncSeries, packed ints); zero entries are dropped.  When every
        coefficient is a Fraction the rows run on the integer numerators
        over D = lcm of the denominators, and each entry is one
        Fraction(total, D); otherwise D = 1 and each entry is the ring's own
        sum, started from its first nonzero term."""
        den = None
        if all(isinstance(c, Fraction) for c in v.values()):
            den = lcm(*(c.denominator for c in v.values()))
            entries = [(self.position[k], c.numerator * (den // c.denominator))
                       for k, c in v.items()]
        else:
            entries = [(self.position[k], c) for k, c in v.items()]
        out = {}
        for key, row in zip(self.parts, rows):
            total = None
            for j, c in entries:
                if row[j]:
                    term = c * row[j]
                    total = term if total is None else total + term
            if total:
                out[key] = total if den is None else Fraction(total, den)
        return out

    def character_sum(self, values) -> dict:
        """{(lam, mu): sum_nu values[nu] chi_nu(lam) chi_nu(mu)} for every
        unordered pair of classes, lam at or before mu in ``parts`` (the sum
        is symmetric in lam and mu), skipping nu whose weight chi_nu(lam)
        chi_nu(mu) vanishes.  ``values`` maps each nu to an element of any
        ring that ints scale; callers apply their own normalisation.  The
        trivial character gives every pair a nonzero weight, so each sum
        starts from its first term.  twists.series_character_sum calls it
        on packed integers."""
        weighted = [(row, values[nu]) for row, nu in zip(self.chi, self.parts)]
        out = {}
        for a, lam in enumerate(self.parts):
            for b, mu in enumerate(self.parts[a:], a):
                total = None
                for row, value in weighted:
                    weight = row[a] * row[b]
                    if weight:
                        term = value * weight
                        total = term if total is None else total + term
                out[(lam, mu)] = total
        return out

    def validate(self) -> None:
        """Check both orthogonality relations and the dimension column."""
        parts = self.parts
        cols = list(zip(*self.chi))
        for a, mu in enumerate(parts):
            for b, nu in enumerate(parts):
                dot = sum(map(mul, cols[a], cols[b]))
                if dot != (z_of(mu) if a == b else 0):
                    raise ArithmeticError(
                        f"column orthogonality fails at n={self.n}, {mu}, {nu}"
                    )
        # Rows in integers: sum_mu chi_lam(mu) chi_kap(mu) n!/z_mu = n! delta,
        # the class sizes n!/z_mu taken from z_of, not from the table.
        order = factorial(self.n)
        sizes = [order // z_of(mu) for mu in parts]
        for a, lam in enumerate(parts):
            weighted = list(map(mul, self.chi[a], sizes))
            for b, kap in enumerate(parts):
                dot = sum(map(mul, weighted, self.chi[b]))
                if dot != (order if a == b else 0):
                    raise ArithmeticError(
                        f"row orthogonality fails at n={self.n}, {lam}, {kap}"
                    )
        identity_col = self.position[(1,) * self.n]
        for a, lam in enumerate(parts):
            if self.chi[a][identity_col] != dimension(lam):
                raise ArithmeticError(f"dimension column fails at n={self.n}, {lam}")

    def as_json_dict(self) -> dict:
        return {
            "n": self.n,
            "order": [format_partition(p) for p in self.parts],
            "chi": [list(row) for row in self.chi],
        }


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    if n > CHARTABLE_CAP:
        raise SizeLimitError(f"character_table({n}) exceeds the cap {CHARTABLE_CAP}")
    parts = partitions_of(n)
    chi = tuple(
        tuple(character(lam, mu) for mu in parts) for lam in parts
    )
    table = CharacterTable(n=n, parts=parts, chi=chi)
    table.validate()
    return table

