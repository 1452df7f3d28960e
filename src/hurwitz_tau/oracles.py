"""Independent cross-check oracles.

Nothing here is used by the production code paths; these routines exist so
the verification suites and tests can confirm the main algorithms against
genuinely different computations: alternant determinants for characters and
Schur evaluation, semistandard-tableau enumeration for Schur positivity,
the pentagonal-number recurrence for partition counts, and elementary
series expansions for the Cauchy kernel.
"""

from fractions import Fraction
from itertools import permutations as _perms
from math import factorial

from .partitions import Partition


def partition_count_pentagonal(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def fraction_determinant(rows: list[list[Fraction]]) -> Fraction:
    """Plain Gaussian elimination over the rationals."""
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[k])]
    return det


def hook_product_via_determinant(lam: Partition) -> Fraction:
    """1/h_lam = det(1/(lam_i - i + j)!) over 1 <= i,j <= l(lam)."""
    ell = len(lam)
    if ell == 0:
        return Fraction(1)
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            k = lam[i - 1] - i + j
            row.append(Fraction(1, factorial(k)) if k >= 0 else Fraction(0))
        rows.append(row)
    inv = fraction_determinant(rows)
    return 1 / inv


def schur_via_alternant(lam: Partition, xs) -> Fraction:
    """Bialternant ratio det(x_i^{lam_j + m - j}) / det(x_i^{m - j});
    needs distinct evaluation points."""
    xs = [Fraction(x) for x in xs]
    m = len(xs)
    if len(lam) > m:
        return Fraction(0)
    lam = tuple(lam) + (0,) * (m - len(lam))
    num = [[x ** (lam[j] + m - 1 - j) for j in range(m)] for x in xs]
    den = [[x ** (m - 1 - j) for j in range(m)] for x in xs]
    d = fraction_determinant(den)
    if d == 0:
        raise ValueError("alternant oracle needs distinct points")
    return fraction_determinant(num) / d


def character_via_alternant(lam: Partition, mu: Partition) -> int:
    """chi_lam(mu) as the coefficient of x^(lam + delta) in
    (prod_{i<j} (x_i - x_j)) * p_mu(x), extracted without evaluating either
    factor numerically.  Exponential in n; intended for n <= 5."""
    lam, mu = tuple(lam), tuple(mu)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("need |lam| = |mu|")
    delta = tuple(range(n - 1, -1, -1))
    target = tuple(p + d for p, d in zip(lam + (0,) * (n - len(lam)), delta))

    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def ways(part_idx: int, remaining: tuple[int, ...]) -> int:
        # number of maps from the remaining parts of mu onto variable slots
        # realising the remaining exponent vector
        if part_idx == len(mu):
            return 1 if all(r == 0 for r in remaining) else 0
        key = (part_idx, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        part = mu[part_idx]
        total = 0
        for a, r in enumerate(remaining):
            if r >= part:
                nxt = remaining[:a] + (r - part,) + remaining[a + 1 :]
                total += ways(part_idx + 1, nxt)
        memo[key] = total
        return total

    total = 0
    for sigma in _perms(range(n)):
        sign = _perm_sign(sigma)
        rest = tuple(target[i] - delta[sigma[i]] for i in range(n))
        if any(r < 0 for r in rest):
            continue
        total += sign * ways(0, rest)
    return total


def _perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = sigma[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def ssyt_count(lam: Partition, max_entry: int) -> int:
    """Number of semistandard tableaux of the given shape with entries in
    1..max_entry; equals S_lam(1,...,1) with max_entry ones."""
    lam = tuple(lam)
    if not lam:
        return 1
    rows = len(lam)

    def fill(row: int, col: int, current: list[list[int]]) -> int:
        if row == rows:
            return 1
        if col == lam[row]:
            return fill(row + 1, 0, current)
        lo = current[row][col - 1] if col > 0 else 1
        if row > 0:
            lo = max(lo, current[row - 1][col] + 1)
        total = 0
        for v in range(lo, max_entry + 1):
            current[row].append(v)
            total += fill(row, col + 1, current)
            current[row].pop()
        return total

    return fill(0, 0, [[] for _ in range(rows)])


def random_rationals(rng, count: int, distinct: bool = False, nonzero: bool = True):
    """Small random Fractions from a seeded Random instance."""
    out: list[Fraction] = []
    while len(out) < count:
        value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            value = -value
        if nonzero and value == 0:
            continue
        if distinct and value in out:
            continue
        out.append(value)
    return out


def pieri_products() -> dict:
    """A few hand-checked Schur products used as frozen multiplication
    oracles (single-row Pieri cases)."""
    return {
        (((1,), (1,))): {(2,): 1, (1, 1): 1},
        (((2,), (1,))): {(3,): 1, (2, 1): 1},
        (((1, 1), (1,))): {(2, 1): 1, (1, 1, 1): 1},
    }
