"""Hypergeometric-type double series and their cross-checks.

A TauSeries is the double expansion

    tau = sum_{n <= n_max} sum_{|lam|=|mu|=n} c(lam,mu) p_lam(x) p_mu(y),
    c(lam,mu) = Z_mu^{-1} G_{lam mu} = sum_nu r_nu chi_nu(lam) chi_nu(mu) / (Z_lam Z_mu),

equivalently sum_nu r_nu S_nu(x) S_nu(y), for a content-product coefficient
family r.  Walk generating tables read D(lam,mu) = Z_mu * c(lam,mu); the
formal logarithm of tau produces the connected (transitive) counts in the
same normalisation.

WALK_KINDS is the one dictionary between walk kinds and twists: for each
kind (plain, monotone, strict, mixed, weakstrict, multi) it holds the twist
atoms, the walk segments of every step datum and how the count is read off
the coefficient series.  hurwitz_table, the gmatrix command and the verify
sweeps all read it.

At numeric points a family's series is evaluated on the Schur diagonal:
tau_at_points sums r_nu S_nu(a) S_nu(b) over the nu with S_nu(a) S_nu(b)
!= 0, the Schur values coming as integers over one denominator per
degree from one character-table product (symfunc.schur_numerators), and
never builds a TauSeries.  Every family at N points is one view,
twists.AtPoints: hciz_family and alpha_q_family build it, and the tau
command, hciz_tau, alpha_q_tau and both determinants read r_nu(N), its
leading power and its zero past N rows from there.  family_determinant
checks the Schur side from the view's rho alone: det[sum_l rho_l (a_i
b_j)^l] (Cauchy-Binet on the fermionic vacuum element), by a
division-free expansion over column subsets that is exact to every cap.
The tau command runs its exp and binomial cases under --check-determinant
(hciz_determinant, alpha_q_determinant); verify runs every walk-kind twist
(twists.twist_at_points) and checks r_nu(N) against the closed forms.
tau_eval (the power-sum tensor of a TauSeries at the points) and
tau_eval_schur_side (each S_nu expanded on the p-basis, symfunc.evaluate)
read the same r_nu and reach the point values by other routes; verify
and perfbench's checker compare against them.
"""

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .characters import character_table
from .config import DETERMINANT_CAP, TAU_NMAX_CAP
from .errors import SizeLimitError, VandermondeError
from .groupalg import (
    mixed,
    multi_monotone,
    plain,
    strictly_monotone,
    weak_then_strict,
    weakly_monotone,
)
from .partitions import partitions_of, z_of
from .series import SeriesSpace, TruncSeries, series_json
from .symfunc import (
    TensorSymFunc,
    euler_recurrence,
    evaluate,
    powersum_products,
    s_basis,
    schur_numerators,
)
from .twists import (
    AlphaQConvolution,
    AtPoints,
    E,
    Exp,
    ExpConvolution,
    H,
    Scale,
    TwistSpec,
    series_character_sum,
    twist,
    twist_eigenvalue,
)


def _check_n_max(n_max: int) -> None:
    if not 0 <= n_max <= TAU_NMAX_CAP:
        raise ValueError(f"n_max must lie in 0..{TAU_NMAX_CAP}, got {n_max}")


class TauSeries:
    """Double power-sum expansion of a diagonal double Schur series.

    The constant (n = 0) term equals the family's empty-partition
    coefficient: 1 for vacuum_tau and every twist_tau, and the
    normalisation r_0(N) for the N-shifted convolution families (hciz,
    alpha_q).  log_tau requires the former.
    """

    def __init__(self, space: SeriesSpace, n_max: int, r_of):
        _check_n_max(n_max)
        self.space = space
        self.n_max = n_max
        self.r = {}
        terms = {}
        for n in range(n_max + 1):
            table = character_table(n)
            r_vals = {nu: r_of(nu) for nu in table.parts}
            self.r.update(r_vals)
            z = {lam: z_of(lam) for lam in table.parts}
            sums = series_character_sum(table, r_vals, lambda lam, mu: z[lam] * z[mu])
            terms.update((pair, total) for pair, total in sums.items() if total)
        self.tensor = TensorSymFunc(terms)


# -- named families -----------------------------------------------------------

def vacuum_tau(n_max: int) -> TauSeries:
    """All r_nu = 1: the degree-n slices of the Cauchy-Littlewood kernel."""
    space = SeriesSpace((), ())
    return TauSeries(space, n_max, lambda nu: space.one())


def twist_tau(spec: TwistSpec, n_max: int) -> TauSeries:
    """Tau series whose Schur coefficient r_nu is the twist's eigenvalue on
    F_nu, read from the spec's memo (twist_eigenvalue)."""
    return TauSeries(spec.space(), n_max, lambda nu: twist_eigenvalue(spec, nu))


def okounkov_tau(n_max: int, beta_cap: int) -> TauSeries:
    """Plain walks: q^{|nu|} e^{beta cont(nu)}."""
    return twist_tau(twist((Exp("q", "beta"),), (n_max, beta_cap)), n_max)


def monotone_tau(n_max: int, z_cap: int) -> TauSeries:
    """Weakly monotone walks: Scale(q) * H(z) eigenvalues."""
    return twist_tau(twist((Scale("q"), H("z")), (n_max, z_cap)), n_max)


def hciz_family(N: int, z_cap: int) -> AtPoints:
    """The exponential-kernel family at N points, pivot monomial -N z; it
    prints with (-N z)^{N(N-1)/2} divided out (AtPoints.printed)."""
    return AtPoints(lambda cap: ExpConvolution(N, SeriesSpace(("z",), (cap,))), N, z_cap, "z", -N)


def alpha_q_family(alpha, N: int, cap: int) -> AtPoints:
    """The alpha-q family at N points, pivot monomial q, q capped at
    cap + N(N-1)/2, the degree of r_0(N) q^{cap}."""
    return AtPoints(lambda top: AlphaQConvolution(alpha, SeriesSpace(("q",), (top,))), N, cap, "q")


def hciz_tau(N: int, n_max: int, z_cap: int | None = None) -> TauSeries:
    view = hciz_family(N, n_max if z_cap is None else z_cap)
    return TauSeries(view.printed_space, n_max, lambda nu: view.printed(view.r_of(nu)))


def alpha_q_tau(alpha, N: int, n_max: int, q_cap: int | None = None) -> TauSeries:
    """q capped at q_cap, or at n_max + N(N-1)/2 (alpha_q_family)."""
    cap = n_max if q_cap is None else q_cap - AtPoints.leading_power(N)
    view = alpha_q_family(alpha, N, cap)
    return TauSeries(view.space, n_max, view.r_of)


# -- evaluation ---------------------------------------------------------------

def tau_at_points(space: SeriesSpace, n_max: int, r_of, a_vals, b_vals) -> TruncSeries:
    """sum_{|nu| <= n_max} r_nu S_nu(a) S_nu(b) on the Schur diagonal, with
    no power-sum tensor: the value of TauSeries(space, n_max, r_of) at x ->
    a, y -> b.  S_nu(a) and S_nu(b) come as numerators over their
    degree's denominator from symfunc.schur_numerators, which drops the
    zero values, so r_of is called only for nu with
    l(nu) <= min(len(a), len(b)); every term is summed over one
    denominator."""
    _check_n_max(n_max)
    (sa, da), (sb, db) = schur_numerators(a_vals, n_max), schur_numerators(b_vals, n_max)
    terms = []
    for nu, x in sa.items():
        y = sb.get(nu)
        if y is not None:
            r, n = r_of(nu), sum(nu)
            terms.append((r.nums, x * y, r.den * da[n] * db[n]))
    return _sum_over_one_denominator(space, terms)


def _sum_over_one_denominator(space: SeriesSpace, terms) -> TruncSeries:
    """sum_i c_i nums_i / d_i over (nums_i, c_i, d_i), nums_i the numerators
    of a series of ``space``, c_i an int and d_i > 0: each nums_i times
    c_i D / d_i adds into one dict over D, the lcm of the d_i, reduced
    once."""
    d = lcm(*(den for *_, den in terms))
    total = {}
    for nums, c, den in terms:
        m = c * (d // den)
        for e, x in nums.items():
            total[e] = total.get(e, 0) + x * m
    return TruncSeries._trusted(space, d, {e: x for e, x in total.items() if x})


def tau_eval(t: TauSeries, a_vals, b_vals) -> TruncSeries:
    """Specialise x -> a, y -> b; returns a series in the family parameters.

    p_lam(a) and p_mu(b) come from one table of power-sum products per
    side, and every coefficient times its weight lands in one exponent ->
    value dict."""
    pa = powersum_products([Fraction(x) for x in a_vals], t.n_max)
    pb = powersum_products([Fraction(x) for x in b_vals], t.n_max)
    total = {}
    for (lam, mu), series in t.tensor.terms.items():
        weight = pa[lam] * pb[mu]
        if weight:
            for exps, coeff in series.terms.items():
                total[exps] = total.get(exps, 0) + coeff * weight
    return TruncSeries(t.space, total)


def tau_eval_schur_side(t: TauSeries, a_vals, b_vals) -> TruncSeries:
    """Same evaluation through sum_nu r_nu S_nu(a) S_nu(b), each S_nu
    expanded on the p-basis once and evaluated at a and at b; the agreement
    of the two routes is the twisted Cauchy-Littlewood identity at a point."""
    total = t.space.zero()
    for nu, r in t.r.items():
        s_nu = s_basis({nu: 1})
        weight = evaluate(s_nu, a_vals) * evaluate(s_nu, b_vals)
        if weight:
            total = total + r * weight
    return total


# -- formal logarithm: connected counts ---------------------------------------

def log_tau(t: TauSeries) -> TensorSymFunc:
    """Formal log of the double series in its sheet grading.

    The (lam, mu) coefficient of the result, times Z_mu, is the connected
    (transitive) walk count in the convention of the disconnected
    D(lam, mu) = Z_mu c(lam, mu)."""
    const = t.tensor.coeff((), ())
    if const is None or const != t.space.one():
        raise ValueError("log_tau needs constant term 1")
    return euler_recurrence(t.tensor, t.n_max, log=True)


def exp_tensor(f: TensorSymFunc, n_max: int) -> TensorSymFunc:
    """Inverse of log_tau on formal tensor series without constant term;
    f must have no term of x-degree 0."""
    if any(not lam for lam, _ in f.terms):
        raise ValueError("exp_tensor needs a series without x-degree-0 terms")
    return euler_recurrence(f, n_max, log=False)


# -- determinants over truncated series ----------------------------------------

def determinant(rows: list[list[TruncSeries]]) -> TruncSeries:
    """Division-free determinant over the truncated-series ring.  Truncation
    is a ring map and nothing is divided, so entries exact to the caps give
    a determinant exact to the caps, in every parameter at once.

    minors[S] is the minor of the first |S| rows on the columns of the
    bitmask S; the next row k adds (-1)^(columns of S above j) row_k[j] D(S)
    to D(S + j), N (2^(N-1) - 1) products in all.  The table starts from the
    first row's entries."""
    if not rows:
        raise ValueError("empty matrix")
    minors = {1 << j: entry for j, entry in enumerate(rows[0]) if entry}
    for row in rows[1:]:
        grown = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or not entry:
                    continue
                term = entry * minor
                term = -term if (cols >> j).bit_count() % 2 else term  # columns of S above j
                key = cols | 1 << j
                grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors.get((1 << len(rows)) - 1, rows[0][0].space.zero())


# the name perfbench/tracing.py spans; family_determinant calls determinant
bareiss_determinant = determinant


def vandermonde(values) -> Fraction:
    """prod_{i<j} (a_i - a_j); raises when values repeat."""
    values = [Fraction(v) for v in values]
    det = Fraction(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            d = values[i] - values[j]
            if d == 0:
                raise VandermondeError(f"repeated evaluation point {values[i]}")
            det *= d
    return det


def family_determinant(rho, N: int, a_vals, b_vals, space, pivot: str) -> TruncSeries:
    """det[F(a_i b_j)] / (Delta(a) Delta(b)) = sum_{l(lam)<=N} r_lam(N) S_lam(a) S_lam(b),
    F(x) = sum_l rho_l x^l and r_lam(N) = prod_i rho_{lam_i+N-i} (Cauchy-Binet).

    rho(l) is rho_l in ``space``, of degree >= l in the pivot parameter, so F
    stops at the pivot's cap.  Its entries are exact to the caps, and so is
    the division-free determinant, which comes back in ``space``.  N is
    capped at DETERMINANT_CAP."""
    if N > DETERMINANT_CAP:
        raise SizeLimitError(f"the determinant is capped at N <= {DETERMINANT_CAP}, got N = {N}")
    if len(a_vals) != N or len(b_vals) != N:
        raise ValueError("need exactly N evaluation points on each side")
    if N == 0:  # the empty determinant, 1 = r_0(0)
        return space.one()
    rhos = [rho(l) for l in range(space.caps[space.axis(pivot)] + 1)]
    rows = [[_entry(space, rhos, Fraction(ai) * bj) for bj in b_vals] for ai in a_vals]
    return determinant(rows) / (vandermonde(a_vals) * vandermonde(b_vals))


def _entry(space: SeriesSpace, rhos, x: Fraction) -> TruncSeries:
    """F(x) = sum_l rho_l x^l in ``space``, rhos[l] = rho_l: with x = p/q
    and L the top l, rho_l x^l = nums_l p^l q^(L-l) / (den_l q^L), each
    power of p and q taken once."""
    p, q, top = x.numerator, x.denominator, len(rhos) - 1
    powers_p, powers_q = [1], [1]
    for _ in range(top):
        powers_p.append(powers_p[-1] * p)
        powers_q.append(powers_q[-1] * q)
    terms = [(rho.nums, powers_p[l] * powers_q[top - l], rho.den * powers_q[top])
             for l, rho in enumerate(rhos)]
    return _sum_over_one_denominator(space, terms)


def hciz_determinant(N: int, a_vals, b_vals, z_cap: int) -> TruncSeries:
    """det(e^{-N z a_i b_j}) / (Delta(a) Delta(b) (-N z)^{N(N-1)/2})
    = sum_{l(lam)<=N} r_lam S_lam(a) S_lam(b): family_determinant of
    hciz_family, whose determinant vanishes to order N(N-1)/2 in z."""
    view = hciz_family(N, z_cap)
    return view.printed(family_determinant(view.rho, N, a_vals, b_vals, view.space, "z"))


def alpha_q_determinant(N: int, alpha, a_vals, b_vals, q_cap: int) -> dict:
    """Entrywise-power determinant comparison (exploratory): the report of
    det((1 - q a_i b_j)^{alpha-1}) / (Delta(a) Delta(b)), the power read
    entrywise (family_determinant of AlphaQConvolution), against the Schur
    expansion of the alpha-q family at the same points; the whole-determinant
    reading (det M)^{alpha-1} is examined structurally.  Both sides keep
    r_0(N)'s q^{N(N-1)/2}, with q capped at q_cap."""
    alpha = Fraction(alpha)
    a_vals = [Fraction(x) for x in a_vals]
    b_vals = [Fraction(x) for x in b_vals]
    _check_n_max(q_cap)
    # r_nu(N) starts at q^(|nu| + N(N-1)/2), so only |nu| <= top survive the
    # cap; when top < 0 none does, and both sides are compared as the zero
    # series
    top = q_cap - AtPoints.leading_power(N)
    view = alpha_q_family(alpha, N, top)  # q capped at q_cap
    space = view.space
    det = family_determinant(view.rho, N, a_vals, b_vals, space, "q")
    schur_side = tau_at_points(space, top, view.r_of, a_vals, b_vals) if top >= 0 else space.zero()
    return {
        "N": N,
        "alpha": str(alpha),
        "a": [str(x) for x in a_vals],
        "b": [str(x) for x in b_vals],
        "q_cap": q_cap,
        "entrywise_matches_schur_expansion": det == schur_side,
        "entrywise_determinant": series_json(det),
        "schur_expansion": series_json(schur_side),
        "det_power_reading_defined": N == 1 or det.constant_term() != 0,
        "notes": (
            "the whole-determinant reading (det M)^(alpha-1) needs an"
            " invertible constant term, but det(1 - q a_i b_j) has constant"
            " term det(all ones) = 0 for N >= 2, so only the entrywise"
            " reading defines a formal series there"
            if N >= 2
            else "for N = 1 both readings coincide with the binomial series"
            if N == 1
            else "the 0 x 0 determinant is empty; both sides are r_0(0) = 1"
        ),
    }


# -- walk kinds and walk-count tables -------------------------------------------

@dataclass(frozen=True)
class WalkKind:
    """One kind of constrained walk and the twist whose coefficients count it.

    `walks(cap)` lists (step data as tables print it, groupalg segments,
    series exponents) for every step datum of total length <= cap."""

    label: str  # the twist as gmatrix prints it
    atoms: tuple
    walks: Callable[[int], list]

    def twist(self, n: int, cap: int) -> TwistSpec:
        """The twist for sheet n: q capped at max(n, 1), every other
        parameter at cap."""
        params = TwistSpec(self.atoms, ()).params()
        return twist(self.atoms, [max(n, 1) if p == "q" else cap for p in params])

    def steps(self, cap: int) -> list:
        """(step data, segments, read) for every step datum of total length
        <= cap; read(series, n, weight=1) is the walk count held by the
        coefficient series of a sheet-n class pair (q = n, times k! per
        beta^k), times the integer weight: an integer quotient,
        divmod(numerator k! weight, denominator), and a Fraction only when
        that leaves a remainder."""
        params = TwistSpec(self.atoms, ()).params()

        def reader(exps):
            scale = factorial(exps.get("beta", 0))
            keys = {}  # n -> exponent tuple in the twist's parameter order

            def read(series, n, weight=1):
                key = keys.get(n)
                if key is None:
                    key = keys[n] = tuple(n if p == "q" else exps.get(p, 0) for p in params)
                coeff = series.nums.get(key)
                if coeff is None:
                    return 0
                top = coeff * scale * weight
                count, rest = divmod(top, series.den)
                return Fraction(top, series.den) if rest else count

            return read

        return [(data, segments, reader(exps)) for data, segments, exps in self.walks(cap)]


def _splits(cap: int) -> list[tuple[int, int]]:
    """(d1, d2) with d1 + d2 <= cap, by total, then by d1."""
    return [(d1, total - d1) for total in range(cap + 1) for d1 in range(total + 1)]


WALK_KINDS = {
    "plain": WalkKind(
        "Exp", (Exp("q", "beta"),),
        lambda cap: [({"b": b}, plain(b), {"beta": b}) for b in range(cap + 1)],
    ),
    "monotone": WalkKind(
        "H", (H("z"),),
        lambda cap: [({"k": k}, weakly_monotone(k), {"z": k}) for k in range(cap + 1)],
    ),
    "strict": WalkKind(
        "E", (E("w"),),
        lambda cap: [({"k": k}, strictly_monotone(k), {"w": k}) for k in range(cap + 1)],
    ),
    "mixed": WalkKind(
        "Exp*H", (Exp("q", "beta"), H("z")),
        lambda cap: [
            ({"p": p, "k": p + j}, mixed(p, p + j), {"z": p, "beta": j})
            for p, j in _splits(cap)
        ],
    ),
    "weakstrict": WalkKind(
        "H*E", (H("z"), E("w")),
        lambda cap: [
            ({"segments": [k, l]}, weak_then_strict(k, l), {"z": k, "w": l})
            for k, l in _splits(cap)
        ],
    ),
    "multi": WalkKind(
        "E*E", (E("w1"), E("w2")),
        lambda cap: [
            ({"segments": [d1, d2]}, multi_monotone([d1, d2]), {"w1": d1, "w2": d2})
            for d1, d2 in _splits(cap)
        ],
    ),
}


def hurwitz_table(kind: str, n_max: int, step_cap: int, connected: bool = False) -> list:
    """Walk-count table rows (n, lam, mu, step data, count), one per class
    pair of each sheet n and step datum; the rows of one datum share its
    dict, and the counts are ints.

    Counts are D(lam, mu): walks from any element of the start class to the
    fixed representative of the end class.  Disconnected counts come from
    the twist coefficients; connected ones from the formal logarithm (and
    are validated against the transitive oracle by the verify suite).
    """
    if kind not in WALK_KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    walk = WALK_KINDS[kind]
    steps = walk.steps(step_cap)
    tau = twist_tau(walk.twist(n_max, step_cap), n_max)
    source = log_tau(tau) if connected else tau.tensor
    rows = []
    for n in range(1, n_max + 1):
        parts = partitions_of(n)
        z = {mu: z_of(mu) for mu in parts}
        for lam in parts:
            for mu in parts:
                series = source.coeff(lam, mu)
                for step_data, _, read in steps:
                    value = 0 if series is None else read(series, n, z[mu])
                    if isinstance(value, Fraction):
                        raise ArithmeticError(
                            f"non-integral count {value} at {lam}->{mu}, {step_data}"
                        )
                    rows.append((n, lam, mu, step_data, value))
    return rows
