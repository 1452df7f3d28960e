"""Integer partitions: enumeration, hooks, contents, symmetry factors.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  The canonical ordering of the
partitions of n is descending lexicographic, so (n) comes first and
(1,...,1) last; plain tuple comparison realises it.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .config import PARTITION_CAP
from .errors import SizeLimitError

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and canonicalise an iterable of parts."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {lam}")
        if i + 1 < len(lam) and lam[i + 1] > p:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. "3,1,1"; "" is empty."""
    text = text.strip()
    if not text:
        return ()
    return check_partition(int(piece) for piece in text.split(","))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, exactly once, in canonical (descending lex) order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > PARTITION_CAP:
        raise SizeLimitError(f"partitions_of({n}) exceeds the cap {PARTITION_CAP}")
    if n == 0:
        return ((),)
    result = []
    parts = (n,)
    while True:
        result.append(parts)
        # Find the last part > 1; everything after it is a tail of 1s.
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            break
        remainder = len(parts) - i
        parts = parts[:i] + (parts[i] - 1,)
        while remainder > 0:
            piece = min(parts[-1], remainder)
            parts = parts + (piece,)
            remainder -= piece
    return tuple(result)


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def multiplicities(lam: Partition) -> dict[int, int]:
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return mult


def z_of(mu: Partition) -> int:
    """Centralizer order Z_mu = prod_i m_i! * i^m_i; n!/Z_mu is the class size."""
    value = 1
    for part, m in multiplicities(mu).items():
        value *= factorial(m) * part**m
    return value


def class_size(mu: Partition) -> int:
    return factorial(size(mu)) // z_of(mu)


def cells(lam: Partition):
    """Yield the cells (i, j) of the Young diagram, 1-based, row by row."""
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            yield i, j


def contents(lam: Partition) -> tuple[int, ...]:
    """Multiset of contents j - i, as a sorted tuple."""
    return tuple(sorted(j - i for i, j in cells(lam)))


def content_sum(lam: Partition) -> int:
    """Sum of the contents j - i over the cells (i, j) of lam."""
    return sum(j - i for i, j in cells(lam))


def hook_lengths(lam: Partition) -> list[list[int]]:
    conj = conjugate(lam)
    return [
        [lam[i] - (j + 1) + conj[j] - i for j in range(lam[i])]
        for i in range(len(lam))
    ]


def hook_product(lam: Partition) -> int:
    value = 1
    for row in hook_lengths(lam):
        for h in row:
            value *= h
    return value


def dimension(lam: Partition) -> int:
    """Dimension n!/h_lam of the irreducible representation labelled by lam."""
    return factorial(size(lam)) // hook_product(lam)


def pochhammer_partition(a, lam: Partition) -> Fraction:
    """Partition Pochhammer (a)_lam = prod_i (a - i + 1)_{lam_i}, the cell
    product prod_{(i,j) in lam} (a + j - i): for a = p/q, the integer
    prod (p + (j - i) q) over q^{|lam|}, one Fraction per call."""
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    value = 1
    for i, part in enumerate(lam):
        for j in range(part):
            value *= p + (j - i) * q
    return Fraction(value, q ** size(lam))
