"""Independent cross-check oracles.

Nothing here is used by the production code paths; these routines exist so
the verification suites and tests can confirm the main algorithms against
genuinely different computations: whole character columns from the
alternant identity p_mu a_delta = sum_lam chi_lam(mu) a_{lam+delta},
alternant determinants for Schur evaluation, semistandard-tableau
enumeration for Schur positivity, the pentagonal-number recurrence for
partition counts, and elementary series expansions for the Cauchy kernel.
"""

from fractions import Fraction
from math import factorial, prod

from .partitions import Partition, partitions_of


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
    needs distinct evaluation points.  The numerator is a determinant; the
    Vandermonde denominator is its product prod_{i<j} (x_i - x_j)."""
    xs = [Fraction(x) for x in xs]
    m = len(xs)
    if len(lam) > m:
        return Fraction(0)
    d = prod(x - y for i, x in enumerate(xs) for y in xs[i + 1 :])
    if d == 0:
        raise ValueError("alternant oracle needs distinct points")
    lam = tuple(lam) + (0,) * (m - len(lam))
    num = [[x ** (lam[j] + m - 1 - j) for j in range(m)] for x in xs]
    return fraction_determinant(num) / d


def character_via_alternant(mu: Partition) -> dict[Partition, int]:
    """{lam: chi_lam(mu)} for every partition lam of n = |mu|, zeros
    included, from p_mu a_delta = sum_lam chi_lam(mu) a_{lam+delta} with
    delta = (n-1, ..., 0), without evaluating either side numerically.

    p_mu is expanded into monomials by putting each part on one of n
    variables, starting from x^delta.  Antisymmetrising x^(m+delta) gives 0
    when m + delta has a repeated entry, and otherwise a_{lam+delta} with
    the sign of the sort, lam = sort(m + delta) - delta.  That is at most
    C(2n-1, n) monomials per column."""
    mu = tuple(mu)
    n = sum(mu)
    delta = tuple(range(n - 1, -1, -1))
    monomials = {delta: 1}
    for part in mu:
        step: dict[tuple[int, ...], int] = {}
        for exps, c in monomials.items():
            for a in range(n):
                key = exps[:a] + (exps[a] + part,) + exps[a + 1 :]
                step[key] = step.get(key, 0) + c
        monomials = step
    column = dict.fromkeys(partitions_of(n), 0)
    for exps, c in monomials.items():
        if len(set(exps)) < n:
            continue
        inversions = sum(x < y for i, x in enumerate(exps) for y in exps[i + 1 :])
        shifted = sorted(exps, reverse=True)
        lam = tuple(p for e, d in zip(shifted, delta) if (p := e - d))
        column[lam] += -c if inversions % 2 else c
    return column


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


def cauchy_kernel_coeff(n: int, xs, ys) -> Fraction:
    """Degree-n coefficient of prod_{a,b} 1/(1 - x_a y_b), by direct
    geometric-series expansion in an auxiliary grading variable."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    # coeffs[d] = degree-d coefficient of the partial product
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    for x in xs:
        for y in ys:
            factor = [Fraction(1)]
            for _ in range(n):
                factor.append(factor[-1] * x * y)
            new = [Fraction(0)] * (n + 1)
            for d, c in enumerate(coeffs):
                if not c:
                    continue
                for k in range(n + 1 - d):
                    new[d + k] += c * factor[k]
            coeffs = new
    return coeffs[n]


def random_rationals(rng, count: int, distinct: bool = False):
    """Small random Fractions from a seeded Random instance."""
    out: list[Fraction] = []
    while len(out) < count:
        value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            value = -value
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
