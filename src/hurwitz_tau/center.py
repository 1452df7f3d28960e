"""The center of C[S_n] on the class-sum basis.

A CenterElement holds coordinates on the class sums C_mu.  The orthogonal
idempotents F_lam are the other basis; their coordinates are plain
{lam: coefficient} dicts that cross over through the character table,

    C_mu  = (1/Z_mu) sum_lam h_lam chi_lam(mu) F_lam   (class_to_idem),
    F_lam = (1/h_lam) sum_mu  chi_lam(mu) C_mu          (idem_to_class),

and multiplication is diagonal on the idempotent side (F_lam F_lam =
F_lam, F_lam F_nu = 0).  Each basis change is one product with the character
matrix between diagonal scalings; on rational coordinates the character
product runs on integer numerators over one common denominator.
Coordinates are exact rationals or TruncSeries, anything else a TypeError;
the basis changes and center_multiply only ever scale them by rationals.

The characteristic map sends C_mu to P_mu/Z_mu, so F_lam to S_lam/h_lam;
it identifies the center with the homogeneous degree-n symmetric
functions, which is what connects walk counts to symmetric-function
identities downstream.  It takes rational coordinates only, since SymFunc
holds rational coefficients, and raises TypeError on any other.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .characters import character_table
from .groupalg import GroupAlgebraElement, class_representative, conjugacy_classes, ranked
from .partitions import Partition, hook_product, multiplicities, partitions_of, z_of
from .series import TruncSeries
from .symfunc import SymFunc


@dataclass(frozen=True)
class CenterElement:
    n: int
    coords: dict  # Partition -> Fraction | TruncSeries, on the class sums

    def __post_init__(self):
        clean = {}
        for lam, c in self.coords.items():
            lam = tuple(lam)
            if sum(lam) != self.n:
                raise ValueError(f"{lam} is not a partition of {self.n}")
            if not isinstance(c, (Rational, TruncSeries)):
                raise TypeError(f"coordinates must be exact rationals or series, got {c!r}")
            if c:
                clean[lam] = c
        object.__setattr__(self, "coords", clean)

    def coeff(self, lam: Partition):
        return self.coords.get(tuple(lam), Fraction(0))


def unit_class(n: int, mu) -> CenterElement:
    return CenterElement(n, {tuple(mu): Fraction(1)})


def unit_idempotent(n: int, lam) -> CenterElement:
    """F_lam on the class sums."""
    return idem_to_class(n, {tuple(lam): Fraction(1)})


def class_to_idem(v: CenterElement) -> dict:
    """{lam: coefficient of F_lam} of v: scale by 1/Z_mu, multiply by chi,
    scale by h_lam."""
    scaled = {mu: c * Fraction(1, z_of(mu)) for mu, c in v.coords.items()}
    coords = character_table(v.n).times(scaled)
    return {lam: c * hook_product(lam) for lam, c in coords.items()}


def idem_to_class(n: int, coords: dict) -> CenterElement:
    """sum_lam coords[lam] F_lam on the class sums: scale by 1/h_lam,
    multiply by chi^T."""
    scaled = {tuple(lam): c * Fraction(1, hook_product(lam)) for lam, c in coords.items()}
    return CenterElement(n, character_table(n).transpose_times(scaled))


def center_multiply(u: CenterElement, v: CenterElement) -> CenterElement:
    """Product in the center, computed diagonally on the idempotent basis."""
    if u.n != v.n:
        raise ValueError("mismatched group sizes")
    a, b = class_to_idem(u), class_to_idem(v)
    return idem_to_class(u.n, {lam: c * b[lam] for lam, c in a.items() if lam in b})


def characteristic_map(v: CenterElement) -> SymFunc:
    """C_mu -> P_mu/Z_mu.  Coordinates must be rational (int or Fraction):
    TypeError otherwise."""
    for c in v.coords.values():
        if not isinstance(c, Rational):
            raise TypeError(
                f"characteristic_map takes rational coordinates, got {type(c).__name__}"
            )
    return SymFunc({mu: Fraction(c, z_of(mu)) for mu, c in v.coords.items()})


def project_to_classes(a: GroupAlgebraElement) -> CenterElement:
    """Read off class-sum coordinates of a central element (CentralityError
    with a witness pair otherwise)."""
    return CenterElement(a.n, a.class_coordinates())


def class_structure_constants(n: int) -> dict[tuple[Partition, Partition], dict[Partition, int]]:
    """Structure constants C_mu C_nu = sum_kappa c^kappa_{mu nu} C_kappa of
    the class-sum basis, counted in S_n; used as the independent
    multiplication oracle (raw group arithmetic, no characters).

    c^kappa_{mu nu} counts the factorizations g_kappa = x y with x in C_mu
    and y in C_nu.  Since C_mu is closed under inverses this is
    #{y in C_mu : y g_kappa in C_nu} for one representative g_kappa, and
    y g_kappa is conjugate to g_kappa y, the bytes of y translated by
    g_kappa, whose class groupalg.ranked(n) looks up: one translate per
    (kappa, y), p(n) n! in all.  Only kappa with a nonzero count are
    listed.  Counting at one representative assumes C_mu C_nu is central;
    that is certified apart from this function, by verify's
    center.multiply_oracle (n <= 5), which projects the raw convolution
    C_mu * C_nu onto classes and raises on any non-central product.
    """
    parts = partitions_of(n)
    classes = conjugacy_classes(n)
    position = list(classes)
    index, class_of = ranked(n).index, ranked(n).class_of
    members = {mu: [bytes(y) for y in classes[mu]] for mu in parts}
    out = {(mu, nu): {} for mu in parts for nu in parts}
    for kappa in parts:
        g = bytes.maketrans(bytes(range(1, n + 1)), bytes(class_representative(kappa, n)))
        for mu in parts:
            for c, count in Counter(class_of[index[y.translate(g)]] for y in members[mu]).items():
                out[(mu, position[c])][kappa] = count
    return out


# -- differential operators on the symmetric-function side -------------------

def euler_operator(f: SymFunc) -> SymFunc:
    """sum_k k p_k d/dp_k: multiplies a degree-n homogeneous term by n."""
    return SymFunc({lam: c * sum(lam) for lam, c in f.terms.items()})


def cut_and_join_operator(f: SymFunc) -> SymFunc:
    """(1/2) sum_{i,j>=1} ((i+j) p_i p_j d/dp_{i+j} + i j p_{i+j} d^2/(dp_i dp_j)).

    On the image of the characteristic map this is multiplication by the
    transposition class sum.
    """
    out: dict[Partition, Fraction] = {}

    def add(lam, c):
        if not c:
            return
        key = tuple(sorted(lam, reverse=True))
        out[key] = out.get(key, Fraction(0)) + c

    for lam, coeff in f.terms.items():
        mult = multiplicities(lam)
        # cut: (i+j) p_i p_j d/dp_{i+j}, i+j running over parts of lam
        for v, m in mult.items():
            removed = _remove(lam, (v,))
            for i in range(1, v):
                j = v - i
                add(removed + (i, j), coeff * m * v * Fraction(1, 2))
        # join: i j p_{i+j} d^2/(dp_i dp_j)
        for i, mi in mult.items():
            for j, mj in mult.items():
                if i == j:
                    ways = mi * (mi - 1)
                    if not ways:
                        continue
                    removed = _remove(lam, (i, i))
                else:
                    ways = mi * mj
                    removed = _remove(lam, (i, j))
                add(removed + (i + j,), coeff * ways * i * j * Fraction(1, 2))
    return SymFunc(out)


def _remove(lam: Partition, parts) -> Partition:
    rest = list(lam)
    for p in parts:
        rest.remove(p)
    return tuple(rest)
