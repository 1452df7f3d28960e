"""Central twist operators and their convolution-coefficient counterparts.

A twist is a product of generating-function atoms evaluated at the
Jucys-Murphy elements:

    H(z):        prod_b 1/(1 - z J_b)      (complete symmetric functions)
    E(w):        prod_b (1 + w J_b)        (elementary symmetric functions)
    Exp(q,beta): q^{P_0} e^{beta P_1}      (step-counting exponential)
    Scale(q):    q^{P_0}                   (pure sheet grading)

Acting on the idempotent F_lam each atom is diagonal with a content-product
eigenvalue; acting on the class sums C_lam it produces the connection
coefficients

    G_{lam mu} = (1/Z_lam) sum_nu G(cont(nu)) chi_nu(lam) chi_nu(mu),

whose series coefficients count constrained transposition walks.  The
eigenvalue's integer numerators over the spec's one denominator come from
integer content sequences (eigenvalue_numerators, memoised per spec by
cached_numerators); twist_eigenvalue is their series over it, and
okounkov_coeff and multimonotone_coeff are views of it.  The sum runs on
the packed numerators once per unordered class pair, dividing once at
the end: connection_coeffs reads each G_{lam mu}
back as a series, and connection_text, the gmatrix route, as the text
series_json would print, building no series.  TwistConvolution takes
every twist to the convolution side.  A
convolution family is its weights r_j = rho_j/rho_{j-1}: rho_j
(rho_0 = 1) and the shifted content product

    r_lam(N) = r_0(N) prod_{(i,j) in lam} r_{N+j-i},  r_0(N) = prod_{j<N} rho_j,

derive from them by series products; r_lam(0) q^{|lam|} is the eigenvalue.
AtPoints alone decides r_lam(N)'s leading power and its zero past N rows.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, prod

from .center import CenterElement, class_to_idem
from .characters import CharacterTable, character_table
from .partitions import (
    Partition,
    content_sum,
    contents,
    hook_product,
    partitions_of,
    pochhammer_partition,
    size,
    z_of,
)
from .series import (
    SeriesSpace, TruncSeries, pack, packed_product, read_fields, read_text, unpack,
)

# -- twist specifications ----------------------------------------------------

@dataclass(frozen=True)
class H:
    param: str


@dataclass(frozen=True)
class E:
    param: str


@dataclass(frozen=True)
class Exp:
    q_param: str
    beta_param: str


@dataclass(frozen=True)
class Scale:
    q_param: str


@dataclass(frozen=True)
class TwistSpec:
    factors: tuple
    caps: tuple  # parallel to params(), one cap per parameter

    def params(self) -> tuple[str, ...]:
        names: list[str] = []
        for f in self.factors:
            if isinstance(f, (H, E)):
                names.append(f.param)
            elif isinstance(f, Exp):
                names += [f.q_param, f.beta_param]
            elif isinstance(f, Scale):
                names.append(f.q_param)
            else:
                raise TypeError(f"unknown twist factor {f!r}")
        return tuple(dict.fromkeys(names))

    def space(self) -> SeriesSpace:
        """The spec's series space, built once per spec."""
        return _memo(self, "_space", (), lambda: SeriesSpace(self.params(), self.caps))

    def q_param(self) -> str | None:
        """The q parameter of the first Exp or Scale atom; None without one."""
        return next((f.q_param for f in self.factors if isinstance(f, (Exp, Scale))), None)

    def denominator(self) -> int:
        """Every eigenvalue's denominator: the beta cap! of each Exp atom."""
        caps = dict(zip(self.params(), self.caps))
        return prod(factorial(caps[f.beta_param]) for f in self.factors if isinstance(f, Exp))


def twist(factors, caps) -> TwistSpec:
    factors = tuple(factors)
    params = TwistSpec(factors, ()).params()
    caps = (caps,) * len(params) if isinstance(caps, int) else tuple(caps)
    if len(caps) != len(params):
        raise ValueError("one cap per distinct parameter required")
    return TwistSpec(factors, caps)


def eigenvalue_numerators(spec: TwistSpec, lam: Partition) -> dict:
    """{exponents: numerator} of the content-product eigenvalue of the twist
    on F_lam in spec.space(), over spec.denominator().

    Each parameter axis carries an integer sequence a_0..a_cap.  H multiplies
    its axis by 1/(1 - c x) for every content c, giving h_k(contents); E
    multiplies it by 1 + c x, giving e_k(contents); Exp shifts its q axis by
    |lam| and convolves its beta axis with C^k cap!/k! (over cap!, a factor
    of the denominator), C the content sum; Scale shifts its q axis by |lam|.
    Atoms on one axis compose by convolution, and the numerators are the
    outer product of the axes."""
    lam = tuple(lam)
    space = spec.space()
    cs = contents(lam)
    axes = [[1] + [0] * cap for cap in space.caps]
    for f in spec.factors:
        if isinstance(f, H):
            seq = axes[space.axis(f.param)]
            for c in cs:
                for k in range(1, len(seq)):
                    seq[k] += c * seq[k - 1]
        elif isinstance(f, E):
            seq = axes[space.axis(f.param)]
            for c in cs:
                for k in range(len(seq) - 1, 0, -1):
                    seq[k] += c * seq[k - 1]
        elif isinstance(f, (Exp, Scale)):
            axis = space.axis(f.q_param)
            axes[axis] = ([0] * size(lam) + axes[axis])[: len(axes[axis])]
            if isinstance(f, Exp):
                axis = space.axis(f.beta_param)
                top = factorial(space.caps[axis])
                c = content_sum(lam)
                count = len(axes[axis])
                kernel = [(k, c**k * (top // factorial(k))) for k in range(count)]
                axes[axis] = unpack(*packed_product(list(enumerate(axes[axis])), kernel), count)
        else:
            raise TypeError(f"unknown twist factor {f!r}")
    terms = {(): 1}
    for seq in axes:
        terms = {e + (k,): x * a for e, x in terms.items() for k, a in enumerate(seq) if a}
    return terms


def _memo(owner, name: str, key, build):
    """build(), once per key, in the memo ``name`` kept on the owner."""
    memo = vars(owner).setdefault(name, {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def cached_numerators(spec: TwistSpec, lam: Partition) -> dict:
    """eigenvalue_numerators(spec, lam), built once per (spec, tuple(lam))."""
    return _memo(spec, "_numerators", tuple(lam), lambda: eigenvalue_numerators(spec, lam))


def twist_eigenvalue(spec: TwistSpec, lam: Partition) -> TruncSeries:
    """The content-product eigenvalue of the twist on F_lam, in spec.space():
    the memo's numerators (cached_numerators) over spec.denominator(),
    reduced to lowest terms."""
    return TruncSeries._trusted(spec.space(), spec.denominator(), cached_numerators(spec, lam))


class _PackedSeries:
    """Series of ``space`` as rows[key] = {exponents: numerator} over one D,
    at sparse slots, one per exponent tuple in any row, for integer
    combinations with coefficients summing to at most ``bound`` in size: a
    slot stays below bound M (M the largest numerator), so W =
    bit_length(bound M) + 1.  ``ints`` maps each key to its packed int;
    read and text read a combination's fields over D scale."""

    def __init__(self, space: SeriesSpace, denom: int, rows: dict, bound: int):
        self.space, self.denom = space, denom
        self.support = sorted({e for row in rows.values() for e in row})
        slot = {e: k for k, e in enumerate(self.support)}
        top = max((abs(x) for row in rows.values() for x in row.values()), default=0)
        self.width = (bound * top).bit_length() + 1
        self.ints = {key: pack([(slot[e], x) for e, x in row.items()], self.width)
                     for key, row in rows.items()}

    @classmethod
    def of(cls, values: dict, bound: int) -> "_PackedSeries":
        """The series ``values`` (space None if none) over the lcm of their
        denominators, a series over that lcm packed as it is."""
        d = lcm(*(value.den for value in values.values()))
        rows = {key: value.nums if value.den == d else
                {e: x * (d // value.den) for e, x in value.nums.items()}
                for key, value in values.items()}
        return cls(next((value.space for value in values.values()), None), d, rows, bound)

    def fields(self, total: int) -> list[int]:
        return unpack(total, self.width, len(self.support))

    def read(self, fields, scale: int) -> TruncSeries:
        return read_fields(self.space, fields, self.support, self.denom * scale)

    def text(self, fields, scale: int) -> dict[str, str]:
        return read_text(fields, self._labels, self.denom * scale)

    @cached_property
    def _labels(self) -> list[str]:
        """The monomial label of each slot, built on the first text read."""
        labels = self.space._labels
        return [labels[e] for e in self.support]


def series_character_sum(table: CharacterTable, values, scale) -> dict:
    """{(lam, mu): sum_nu values[nu] chi_nu(lam) chi_nu(mu) / scale(lam, mu)}
    for every ordered pair of classes, each a series in the values' space.

    The sum runs on packed integers (_PackedSeries): CharacterTable.
    character_sum adds and scales whole packed ints, once per unordered
    pair; each total is unpacked once and read over D scale(lam, mu) and
    D scale(mu, lam), one read for both when the scales agree.  By
    Cauchy-Schwarz and column orthogonality sum_nu |chi_nu(lam) chi_nu(mu)|
    <= sqrt(Z_lam Z_mu) <= n!, the bound the slots are sized for."""
    packed = _PackedSeries.of(values, factorial(table.n))
    return _character_sums(table, packed, scale, _PackedSeries.read)


def _character_sums(table: CharacterTable, packed: _PackedSeries, scale, reader) -> dict:
    out = {}
    for (lam, mu), total in table.character_sum(packed.ints).items():
        fields, there, back = packed.fields(total), scale(lam, mu), scale(mu, lam)
        out[lam, mu] = reader(packed, fields, there)
        out[mu, lam] = out[lam, mu] if back == there else reader(packed, fields, back)
    return out


def _connection(spec: TwistSpec, n: int, reader) -> dict:
    """G_{lam mu} for all lam, mu of n, each read by ``reader``, from the
    memo's numerators as they are."""
    table = character_table(n)
    rows = {nu: cached_numerators(spec, nu) for nu in table.parts}
    packed = _PackedSeries(spec.space(), spec.denominator(), rows, factorial(n))
    z = {lam: z_of(lam) for lam in table.parts}
    return _character_sums(table, packed, lambda lam, mu: z[lam], reader)


def connection_coeffs(spec: TwistSpec, n: int) -> dict[tuple[Partition, Partition], TruncSeries]:
    """G_{lam mu} for all lam, mu of n, via the character sum."""
    return _connection(spec, n, _PackedSeries.read)


def connection_text(spec: TwistSpec, n: int) -> dict[tuple[Partition, Partition], dict[str, str]]:
    """G_{lam mu} for all lam, mu of n as series_json prints them, read as
    text from the same packed sums as connection_coeffs: no series is built."""
    return _connection(spec, n, _PackedSeries.text)


def apply_twist(spec: TwistSpec, v: CenterElement) -> CenterElement:
    """Multiply a center element by the twist; series-valued coordinates.

    The twist is diagonal on the idempotents, so the class-sum coordinates
    are sum_lam chi_lam(mu) e_lam w_lam / h_lam, e_lam the eigenvalue and w
    the idempotent coordinates of v: one CharacterTable.transpose_times on
    packed integers (_PackedSeries), whose coefficients sum_lam
    |chi_lam(mu)| <= sqrt(p(n) n!) <= n! in size."""
    values = {
        lam: twist_eigenvalue(spec, lam) * (c / hook_product(lam))
        for lam, c in class_to_idem(v).items()
    }
    packed = _PackedSeries.of(values, factorial(v.n))
    coords = character_table(v.n).transpose_times(packed.ints)
    coords = {mu: packed.read(packed.fields(total), 1) for mu, total in coords.items()}
    return CenterElement(v.n, coords)


# -- convolution coefficient families ----------------------------------------

class ConvolutionCoeffs:
    """A family is its weights r_j, TruncSeries in ``space`` (units for
    j <= 0); the rest derives from them, each r_k built once per instance:
    rho_0 = 1, rho_j = rho_{j-1} r_j (j > 0), rho_j = rho_{j+1} / r_{j+1}
    (j < 0), and r_lam(N) = r_0(N) prod_{(i,j) in lam} r_{N+j-i}."""

    space: SeriesSpace

    def r(self, j: int) -> TruncSeries:
        raise NotImplementedError

    def _r(self, k: int) -> TruncSeries:
        return _memo(self, "_rk", k, lambda: self.r(k))

    def _product(self, factors) -> TruncSeries:
        """The product of the factors that are not one, one for none."""
        value = one = self.space.one()
        for f in factors:
            if f != one:
                value = f if value == one else value * f
        return value

    def rho(self, j: int) -> TruncSeries:
        """rho_j, filling the memo from the known index nearest j toward 0."""
        memo = vars(self).setdefault("_rho", {0: self.space.one()})
        step = 1 if j > 0 else -1
        known = next(k for k in range(j, -step, -step) if k in memo)
        for k in range(known + step, j + step, step):
            factor = self._r(k) if step > 0 else self._r(k + 1).inverse()
            memo[k] = self._product((memo[k - step], factor))
        return memo[j]

    def r_lambda(self, lam: Partition, N: int) -> TruncSeries:
        """r_0(N) prod_{(i,j) in lam} r_{N+j-i}, memoised per (lam, N) as lam
        less its last cell (i, j) times r_{N+j-i}; the empty r_lambda is
        r_0(N) = prod_{j<N} rho_j (over rho_j for N <= j < 0)."""
        memo = vars(self).setdefault("_r_lambda", {})
        lam = tuple(lam)
        if (lam, N) not in memo:
            if lam:
                i, j = len(lam), lam[-1]
                rest = self.r_lambda(lam[:-1] + (j - 1,) * (j > 1), N)
                memo[lam, N] = self._product((rest, self._r(N + j - i)))
            else:
                value = self._product(self.rho(j) for j in range(min(N, 0), max(N, 0)))
                memo[lam, N] = value if N >= 0 else value.inverse()
        return memo[lam, N]


# atom -> its r_j builder at j: 1/(1 - j z), 1 + j w, e^{j beta}
ATOM_R = {H: SeriesSpace.geom, E: SeriesSpace.linear, Exp: SeriesSpace.exp_linear}


class TwistConvolution(ConvolutionCoeffs):
    """Image of a twist: r_j = G(j) has one ATOM_R factor per atom (Scale:
    r_j = 1; the q^{|lam|} of Exp and Scale is a grading outside rho)."""

    def __init__(self, spec: TwistSpec):
        self.space = spec.space()  # raises TypeError on an unknown atom
        self.atoms = [(ATOM_R[type(f)], f.beta_param if isinstance(f, Exp) else f.param)
                      for f in spec.factors if not isinstance(f, Scale)]

    def r(self, j: int) -> TruncSeries:
        return self._product(build(self.space, j, name) for build, name in self.atoms)


class AlphaQConvolution(ConvolutionCoeffs):
    """Two-parameter family with a free exponent alpha (not a positive
    integer) and formal q, defined by

        r_j = q (j-alpha)/j   (j >= 1),   r_j = 1   (j <= 0),

    so that rho_j = q^j (1-alpha)_j / j! (j >= 1), rho_j = 1 (j <= 0), and
    r_lam(N) = r_0(N) q^{|lam|} (N-alpha)_lam / (N)_lam for l(lam) <= N.
    """

    def __init__(self, alpha, space: SeriesSpace):
        alpha = Fraction(alpha)
        if alpha.denominator == 1 and alpha >= 1:
            raise ValueError("alpha must not be a positive integer")
        self.alpha = alpha
        self.space = space

    def r(self, j: int) -> TruncSeries:
        return self.space.monomial(Fraction(j - self.alpha, j), q=1) if j > 0 else self.space.one()


class ExpConvolution(ConvolutionCoeffs):
    """Exponential-kernel family behind the N x N trace-coupled integral,
    defined by

        r_j = -N z / j   (j >= 1),   r_j = 1   (j <= 0),

    so that rho_j = (-N z)^j / j! (j >= 0), rho_j = 1 (j < 0).

    The branch product r_lam(N) carries the full prefactor
    (-N z)^{N(N-1)/2}; tauseries.hciz_family divides it out, leaving the
    conventional normalisation, whose closed form (the oracle) is
    schur_expansion_r_lambda = (-N z)^{|lam|} / ((prod_{k<N} k!) (N)_lam).
    """

    def __init__(self, N: int, space: SeriesSpace):
        if N < 1:
            raise ValueError("N must be a positive integer")
        self.N = N
        self.space = space

    def r(self, j: int) -> TruncSeries:
        return self.space.monomial(Fraction(-self.N, j), z=1) if j > 0 else self.space.one()

    def schur_expansion_r_lambda(self, lam: Partition) -> TruncSeries:
        """(-Nz)^{|lam|}/((prod k!)(N)_lam); zero when l(lam) > N (matching
        the vanishing of Schur functions in N variables)."""
        if len(lam) > self.N:
            return self.space.zero()
        norm = prod(factorial(k) for k in range(self.N)) * pochhammer_partition(self.N, lam)
        return self.space.monomial(Fraction((-self.N) ** size(lam)) / norm, z=size(lam))


class AtPoints:
    """A family at N points, sum_{l(lam) <= N} r_lam(N) S_lam(a) S_lam(b).
    build(top) is the family with pivot p capped at top, each r_j (j >= 1)
    the monomial c p times a p-free series: r_lam(N) is (c p)^s times a
    series of p-degree |lam|, s = leading_power(N).  In ``space`` (p capped
    at cap + s) r_of(lam) is the branch product, zero when l(lam) > N, and
    rho feeds tauseries.family_determinant.  printed() reads a sum or a
    determinant there as the tau command prints it: a view given the lead c
    divides (c p)^s out, into ``printed_space`` (p capped at cap); one
    without keeps it, and may take cap < 0 (then no lam survives)."""

    def __init__(self, build, N: int, cap: int, pivot: str, lead: int | None = None):
        if N < 0:
            raise ValueError(f"N must be >= 0, got {N}")
        self.N, self.pivot, self.lead, self.shift = N, pivot, lead, self.leading_power(N)
        self.family = build(cap + self.shift)
        self.space, self.rho = self.family.space, self.family.rho
        self.printed_space = self.space if lead is None else build(cap).space

    @staticmethod
    def leading_power(N: int) -> int:
        """N(N-1)/2, the pivot degree of r_0(N)."""
        return N * (N - 1) // 2

    def r_of(self, lam: Partition) -> TruncSeries:
        return self.space.zero() if len(lam) > self.N else self.family.r_lambda(lam, self.N)

    def printed(self, series: TruncSeries) -> TruncSeries:
        """ExactDivisionError when a view with a lead reads a series that
        does not vanish to p-order s."""
        if self.lead is None:
            return series
        value = series.shift_down(self.pivot, self.shift).truncate_to(self.printed_space)
        return value / self.lead**self.shift


def twist_at_points(atoms, N: int, cap: int) -> AtPoints:
    """A twist's family at N points, graded by its q (Scale("q") grades a
    twist without one): one q in every r_j, every parameter capped at cap."""
    q = TwistSpec(atoms, ()).q_param() or "q"
    spec = twist((*atoms, Scale(q)), cap)  # Scale(q) adds no parameter to a twist with a q

    class Graded(TwistConvolution):
        def r(self, j: int) -> TruncSeries:
            return super().r(j) * self.space.monomial(1, **{q: 1})

    return AtPoints(lambda top: Graded(
        twist(spec.factors, [top if p == q else cap for p in spec.params()])), N, cap, q)


# -- eigenvalue families for tau assembly ------------------------------------

def okounkov_coeff(lam: Partition, space: SeriesSpace) -> TruncSeries:
    """q^{|lam|} e^{beta cont_lam}, the eigenvalue of Exp(q, beta) at the caps
    of ``space``, whose parameters must be ("q", "beta")."""
    return twist_eigenvalue(twist((Exp("q", "beta"),), space.caps), lam)


def multimonotone_coeff(lam: Partition, space: SeriesSpace, w_params) -> TruncSeries:
    """q^{|lam|} prod_alpha prod_{(i,j)} (1 + w_alpha (j-i)), the eigenvalue of
    Scale(q) E(w_1)...E(w_m) at the caps of ``space``, params ("q", *w_params)."""
    return twist_eigenvalue(twist((Scale("q"), *map(E, w_params)), space.caps), lam)


def alpha_q_coeff(lam: Partition, family: AlphaQConvolution, N: int) -> TruncSeries:
    """The closed form r_0(N) q^{|lam|} (N-alpha)_lam/(N)_lam of the alpha-q
    family (partition Pochhammers), zero when l(lam) > N: the oracle."""
    if len(lam) > N:
        return family.space.zero()
    ratio = pochhammer_partition(N - family.alpha, lam) / pochhammer_partition(N, lam)
    return family.r_lambda((), N) * family.space.monomial(ratio, q=size(lam))


def symmetry_check(coeffs: dict, n: int) -> bool:
    """Z_mu^{-1} G_{lam mu} = Z_lam^{-1} G_{mu lam} for all computed pairs."""
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            left = coeffs[(lam, mu)] * Fraction(1, z_of(mu))
            right = coeffs[(mu, lam)] * Fraction(1, z_of(lam))
            if left != right:
                return False
    return True
