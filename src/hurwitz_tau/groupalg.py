"""Explicit computation in the symmetric group algebra C[S_n].

Permutations are tuples of images on {1..n} (images[i-1] = image of i),
composed apply-right-first: (g*h)(x) = g(h(x)).  A product in C[S_n] reads
each left term at one itemgetter per right term.  Walks in the Cayley graph
generated by transpositions are counted by a dynamic program on permutation
indices (S_n ranked once per n, one action table per transposition).  It
runs backward from one end permutation, segments reversed; a monotone
segment runs b once from n down to 2 over one layer per number of steps
taken.  The end vector, summed per class, gives the counts from every start
class at once, and the layers of the last segment run (the first in
application order) give them for every length of that segment from one
back-walk.  The top layer of a single-class query is folded, not stored:
each step into it is counted in the start class through a per-class table
of how many of that step's transpositions land there.  Transitive counts
also carry the set partition of {1..n}
generated so far, seeded from the end's cycles, equal states merged.  These
counts are the independent oracle for the character-sum coefficients;
nothing here uses characters.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_perms
from numbers import Rational
from operator import itemgetter, mul
from typing import NamedTuple

from . import config
from .errors import CentralityError, SizeLimitError
from .partitions import Partition, check_partition, class_size, partitions_of

Perm = tuple[int, ...]


# -- permutations ----------------------------------------------------------

def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(g: Perm, h: Perm) -> Perm:
    """(g*h)(x) = g(h(x)); h acts first."""
    return tuple(g[h[x] - 1] for x in range(len(g)))


def cycles(g: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(g)
    out = []
    for start in range(1, len(g) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            cyc.append(x)
            x = g[x - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(g: Perm) -> Partition:
    return tuple(sorted((len(c) for c in cycles(g)), reverse=True))


def transposition(n: int, a: int, b: int) -> Perm:
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


@lru_cache(maxsize=None)
def transpositions(n: int) -> tuple[tuple[int, int, Perm], ...]:
    """All (a, b, perm) with a < b."""
    return tuple(
        (a, b, transposition(n, a, b))
        for b in range(2, n + 1)
        for a in range(1, b)
    )


def class_representative(mu: Partition, n: int | None = None) -> Perm:
    """Cycles laid out consecutively on 1..n, largest part first."""
    mu = tuple(mu)
    if n is None:
        n = sum(mu)
    elif sum(mu) != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    images = list(range(1, n + 1))
    start = 1
    for part in mu:
        for offset in range(part):
            images[start - 1 + offset] = start + ((offset + 1) % part)
        start += part
    return tuple(images)


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> dict[Partition, tuple[Perm, ...]]:
    """All of S_n grouped by cycle type (n <= the walk cap): each class in
    lexicographic order, the classes in the order of their least members.

    Built depth-first: m joins a permutation g of 1..m-1 as a fixed point or
    right after i on i's cycle (i -> m -> g(i)).  lengths[x] is the length
    of the cycle through x + 1; it says which part of the type grows, and at
    the last level each child goes straight to its class."""
    if n > config.WALK_CAP:
        raise SizeLimitError(f"refusing to enumerate S_{n}")
    if n == 0:
        return {(): ((),)}
    grouped: dict[Partition, list[Perm]] = {}

    def grow(g, lengths, mu):
        m = len(g) + 1
        if m == n:
            add = {l: grouped.setdefault(_raised(mu, l), []).append for l in set(lengths)}
            grouped.setdefault(mu + (1,), []).append(g + (m,))
            for i, l in enumerate(lengths):
                add[l](g[:i] + (m,) + g[i + 1:] + (g[i],))
            return
        grow(g + (m,), lengths + (1,), mu + (1,))
        for i, l in enumerate(lengths):
            longer = list(lengths)
            x = i
            for _ in range(l):
                longer[x] = l + 1
                x = g[x] - 1
            longer.append(l + 1)
            grow(g[:i] + (m,) + g[i + 1:] + (g[i],), tuple(longer), _raised(mu, l))

    grow((), (), ())
    for members in grouped.values():
        members.sort()
    return {mu: tuple(members) for mu, members in sorted(grouped.items(), key=lambda kv: kv[1][0])}


def _raised(mu: Partition, l: int) -> Partition:
    """mu with one part l raised to l + 1 (the first, so it stays sorted)."""
    i = mu.index(l)
    return mu[:i] + (l + 1,) + mu[i + 1:]


# -- sparse group algebra ----------------------------------------------------

class GroupAlgebraElement:
    """Sparse map permutation -> rational coefficient, supported in one S_n.

    Coefficients are ints until a non-integer factor enters (through scale
    or a Fraction-valued term), so products of class sums and JM elements
    stay in the integers; an int and an equal Fraction compare equal."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Perm, int | Fraction]):
        self.n = n
        self.terms = {g: c for g, c in terms.items() if c}

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls(n, {})

    @classmethod
    def unit(cls, n: int) -> "GroupAlgebraElement":
        return cls(n, {identity(n): 1})

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"mixed group sizes {self.n} and {other.n}")

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms.get(g, 0) + c
        return GroupAlgebraElement(self.n, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "GroupAlgebraElement":
        """Every coefficient times the exact rational c; a str, a float or
        anything else is a TypeError."""
        if not isinstance(c, Rational):
            raise TypeError(f"scalars must be exact rationals, got {c!r}")
        return GroupAlgebraElement(
            self.n, {g: coeff * c for g, coeff in self.terms.items()}
        )

    def __mul__(self, other):
        """Convolution product; right factor acts first: g*h reads g at h's
        images, through one itemgetter per term h built once per product."""
        if not isinstance(other, GroupAlgebraElement):
            return self.scale(other)
        self._check(other)
        # itemgetter of one index returns the bare item; S_0 and S_1 hold
        # the identity alone, and g*id = g
        right = [
            (itemgetter(*[x - 1 for x in h]) if self.n > 1 else tuple, ch)
            for h, ch in other.terms.items()
        ]
        terms: dict[Perm, int | Fraction] = {}
        for g, cg in self.terms.items():
            for read, ch in right:
                key = read(g)
                terms[key] = terms.get(key, 0) + cg * ch
        return GroupAlgebraElement(self.n, terms)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"group algebra powers must be >= 0, got {k}")
        result = GroupAlgebraElement.unit(self.n)
        for _ in range(k):
            result = result * self
        return result

    def commutes_with(self, other) -> bool:
        return self * other == other * self

    def class_coordinates(self) -> dict[Partition, int | Fraction]:
        """Coordinates on the class-sum basis; raises CentralityError when
        the element is not constant on conjugacy classes."""
        first_seen: dict[Partition, tuple[Perm, int | Fraction]] = {}
        coverage: dict[Partition, int] = {}
        for g, c in self.terms.items():
            t = cycle_type(g)
            coverage[t] = coverage.get(t, 0) + 1
            if t in first_seen:
                g0, c0 = first_seen[t]
                if c0 != c:
                    raise CentralityError(g0, c0, g, c)
            else:
                first_seen[t] = (g, c)
        coords = {}
        for t, (g0, c0) in first_seen.items():
            # Partial support of a class means non-central (missing => 0).
            if coverage[t] != class_size(t):
                missing = next(
                    h for h in conjugacy_classes(self.n)[t] if h not in self.terms
                )
                raise CentralityError(g0, c0, missing, Fraction(0))
            coords[t] = c0
        return coords


def class_sum(n: int, mu) -> GroupAlgebraElement:
    """Sum of all permutations of cycle type mu, each with coefficient 1."""
    mu = check_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    members = conjugacy_classes(n).get(mu, ())
    return GroupAlgebraElement(n, dict.fromkeys(members, 1))


def jm_element(n: int, b: int) -> GroupAlgebraElement:
    """Jucys-Murphy element J_b = sum_{a<b} (a b); J_1 = 0."""
    if not 1 <= b <= n:
        raise ValueError(f"b must lie in 1..{n}, got {b}")
    return GroupAlgebraElement(
        n, {transposition(n, a, b): 1 for a in range(1, b)}
    )


def jm_power_sum(n: int, i: int) -> GroupAlgebraElement:
    """P_i(J) = sum_b J_b^i for i >= 1; P_0(J) = n * Id."""
    if i < 0:
        raise ValueError("power must be nonnegative")
    if i == 0:
        return GroupAlgebraElement.unit(n).scale(n)
    total = GroupAlgebraElement.zero(n)
    for b in range(1, n + 1):
        total = total + jm_element(n, b) ** i
    return total


# -- walk counting -----------------------------------------------------------

PLAIN, WEAK, STRICT = "plain", "weak", "strict"


@dataclass(frozen=True)
class Segment:
    kind: str
    length: int

    def __post_init__(self):
        if self.kind not in (PLAIN, WEAK, STRICT):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.length < 0:
            raise ValueError("segment length must be >= 0")


def plain(k: int) -> tuple[Segment, ...]:
    return (Segment(PLAIN, k),)


def weakly_monotone(k: int) -> tuple[Segment, ...]:
    return (Segment(WEAK, k),)


def strictly_monotone(k: int) -> tuple[Segment, ...]:
    return (Segment(STRICT, k),)


def mixed(p: int, k: int) -> tuple[Segment, ...]:
    """k steps total: the first p weakly monotone, the rest unconstrained."""
    if p > k:
        raise ValueError("mixed needs p <= k")
    return (Segment(WEAK, p), Segment(PLAIN, k - p))


def multi_monotone(lengths) -> tuple[Segment, ...]:
    """Consecutive strictly monotone segments; no constraint across edges."""
    return tuple(Segment(STRICT, d) for d in lengths)


def weak_then_strict(k: int, l: int) -> tuple[Segment, ...]:
    return (Segment(WEAK, k), Segment(STRICT, l))


@dataclass(frozen=True)
class WalkQuery:
    n: int
    from_type: Partition
    to_type: Partition
    segments: tuple[Segment, ...]
    transitive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "from_type", check_partition(self.from_type))
        object.__setattr__(self, "to_type", check_partition(self.to_type))
        object.__setattr__(self, "segments", tuple(self.segments))
        if sum(self.from_type) != self.n or sum(self.to_type) != self.n:
            raise ValueError("from/to cycle types must be partitions of n")


def count_walks(query: WalkQuery) -> int:
    """Number of tuples (g, t_1, ..., t_k): g has cycle type from_type,
    t_k ... t_1 g equals the fixed representative of to_type, each t is a
    transposition (a b) with a < b, and within each constraint segment the
    b-sequence (in application order t_1 first) is weakly/strictly
    increasing as requested.  With transitive=True the subgroup generated
    by g and all the t's must act transitively on {1..n}."""
    rho = class_representative(query.to_type, query.n)
    steps = tuple(seg for seg in query.segments if seg.length)  # empty ones do nothing
    if query.transitive or not steps:
        return count_walks_to(query.n, rho, query.segments, query.transitive).get(query.from_type, 0)
    return _back_walk(query.n, rho, steps, False, query.from_type)[-1]


def count_walks_all_targets(
    n: int, from_type, segments: tuple[Segment, ...], transitive: bool = False
) -> dict[Partition, int]:
    """Batch walk counts from one start class to every target class."""
    from_type = check_partition(from_type)
    if sum(from_type) != n:
        raise ValueError(f"{from_type} is not a partition of {n}")
    if transitive:
        return _count_transitive(n, from_type, segments)
    return _count_dp(n, from_type, segments)


def count_walks_to(
    n: int, end, segments: tuple[Segment, ...], transitive: bool = False
) -> dict[Partition, int]:
    """{lam: the count_walks count from C_lam to the permutation end}, every
    start class at once (zero counts left out).

    Counted backwards from end = t_k ... t_1 g: segments reversed, b
    falling, the end vector summed per start class.  The group <g, t's>
    equals <end, t's>, so the blocks start as end's cycles."""
    return _class_counts(n, _back_walk(n, end, segments, transitive)[-1])


def graded_walks_to(
    n: int, end, segments: tuple[Segment, ...], transitive: bool = False
) -> list[dict[Partition, int]]:
    """count_walks_to for every length of the first segment, from one
    back-walk: entry s counts the walks whose first segment (application
    order) is cut to s steps, the later ones as given.  The back-walk runs
    that segment last, so its layers are these counts."""
    return [_class_counts(n, layer) for layer in _back_walk(n, end, segments, transitive)]


def _back_walk(n, end, segments, transitive, start=None):
    """The layers _walk returns, walked back from end; with a start class,
    the last of them folded into its count there (see _walk)."""
    if n > config.WALK_CAP:
        raise SizeLimitError(f"walk counting capped at n <= {config.WALK_CAP}, got {n}")
    end = tuple(end)
    if sorted(end) != list(range(1, n + 1)):
        raise ValueError(f"{end} is not a permutation of 1..{n}")
    blocks = _cycle_blocks(end) if transitive else None
    tables = None if start is None else _class_tables(n, start)
    return _walk(n, {blocks: {ranked(n).index[bytes(end)]: 1}}, tuple(reversed(segments)), tables)


def _class_counts(n, layer) -> dict[Partition, int]:
    """{lam: the layer's transitive (or untracked) counts summed over C_lam}."""
    classes = conjugacy_classes(n)
    totals = [0] * len(classes)
    class_of = ranked(n).class_of
    for blocks, vec in layer.items():
        if _one_block(blocks):
            for i, c in vec.items():
                totals[class_of[i]] += c
    return {lam: c for lam, c in zip(classes, totals) if c}


class Ranking(NamedTuple):
    index: dict[bytes, int]
    act: dict[tuple[int, int], list[int]]
    class_of: list[int]


@lru_cache(maxsize=None)
def ranked(n: int) -> Ranking:
    """S_n in lexicographic order: the index of each permutation (keyed by
    bytes(perm)), the transposition action tables (act[(a, b)][i] is the
    index of (a b) * g for g at index i, one bytes.translate per entry
    swapping the values a and b) and each index's class, as a position in
    conjugacy_classes(n)."""
    if n > config.WALK_CAP:
        raise SizeLimitError(f"refusing to enumerate S_{n}")
    keys = [bytes(g) for g in _all_perms(range(1, n + 1))]
    index = {key: i for i, key in enumerate(keys)}
    act = {}
    for a, b, _ in transpositions(n):
        swap = bytes.maketrans(bytes((a, b)), bytes((b, a)))
        act[(a, b)] = [index[key.translate(swap)] for key in keys]
    position = {
        bytes(g): c for c, members in enumerate(conjugacy_classes(n).values()) for g in members
    }
    return Ranking(index, act, [position[key] for key in keys])


@lru_cache(maxsize=None)
def _class_tables(n: int, lam: Partition) -> tuple[bytes, ...]:
    """tables[b][i] = #{a < b : (a b) g_i in C_lam}, g_i the permutation at
    index i, for b = 2..n; tables[0] sums them over b (a plain step) and
    tables[1] is empty (J_1 = 0).  No entry passes n(n - 1)/2 < 256, so each
    is one byte and a byte-wise sum is one big-int sum, with no carries."""
    rank = ranked(n)
    inside = bytes(map(list(conjugacy_classes(n)).index(lam).__eq__, rank.class_of))
    per_b = [
        sum(int.from_bytes(bytes(itemgetter(*rank.act[(a, b)])(inside)), "little") for a in range(1, b))
        for b in range(2, n + 1)
    ]
    size = len(inside)
    return (sum(per_b).to_bytes(size, "little"), b"", *(t.to_bytes(size, "little") for t in per_b))


# A DP layer maps blocks to a sparse count vector {perm index: count}.  blocks
# is the set partition of {1..n} generated by the end's cycles and the
# transpositions so far, each point (0-based) labelled by the least point of
# its block, or None when transitivity is not tracked.  Equal states merge.

def _cycle_blocks(g):
    """The blocks of g's cycles, each point labelled by its cycle's least point."""
    label = {x: min(cyc) - 1 for cyc in cycles(g) for x in cyc}
    return tuple(label[x] for x in range(1, len(g) + 1))


def _one_block(blocks):
    """True for a transitive state, and always when blocks are not tracked."""
    return blocks is None or len(set(blocks)) == 1


def _walk(n, layer, segments, tables=None):
    """Advance a layer backward through the segments, and return every layer
    of the last one run, indexed by its steps taken ([layer] for none).

    A plain segment applies every transposition once per step.  A monotone
    one of k steps keeps k + 1 layers, taken[s] holding the states that
    have taken s of its steps, and runs b once from n down to 2: at each b
    the image of taken[s] under every (a b), a < b, is added into
    taken[s + 1].  Weak segments visit s rising, so a state that has just
    stepped at b may step at b again; strict ones visit s falling, so it
    may not.

    With a start class's _class_tables (blocks untracked, the last segment
    at least one step long) the top layer is folded, not stored: each image
    bound for it is counted in that class through its step's table, and the
    count is returned in its place."""
    act = ranked(n).act
    every_b = range(n, 1, -1)
    taken = [layer]
    last = len(segments) - 1
    for i, seg in enumerate(segments):
        k = seg.length
        top = k - 1 if tables is not None and i == last else None  # the folded step
        taken = [taken[-1]]
        if seg.kind == PLAIN:
            for s in range(k):
                taken.append(
                    _fold(tables[0], taken[s]) if s == top else _apply(act, every_b, taken[s], {})
                )
            continue
        taken += [{} for _ in range(k)]
        if top is not None:
            taken[k] = 0
        order = range(k) if seg.kind == WEAK else range(k - 1, -1, -1)
        for b in every_b:
            for s in order:
                if s == top:
                    taken[k] += _fold(tables[b], taken[s])
                else:
                    _apply(act, (b,), taken[s], taken[s + 1])
    return taken


def _apply(act, bs, layer, out):
    """Add into out the image of layer under every (a b), a < b, b in bs."""
    for blocks, vec in layer.items():
        items = vec.items()
        for b in bs:
            for a in range(1, b):
                row = act[(a, b)]
                target = out.setdefault(blocks if blocks is None else _join(blocks, a, b), {})
                get = target.get
                for i, c in items:
                    j = row[i]
                    target[j] = get(j, 0) + c
    return out


def _fold(table, layer):
    """The layer's images under one step, counted through its _class_tables table."""
    return sum(sum(map(mul, vec.values(), map(table.__getitem__, vec))) for vec in layer.values())


def _count_dp(n, from_type, segments, transitive=False) -> dict[Partition, int]:
    # one back-walk per target class representative, read at from_type
    counts = {
        mu: count_walks_to(n, class_representative(mu, n), segments, transitive).get(from_type, 0)
        for mu in partitions_of(n)
    }
    return {mu: c for mu, c in counts.items() if c}


def _count_transitive(n, from_type, segments) -> dict[Partition, int]:
    return _count_dp(n, from_type, segments, transitive=True)


@lru_cache(maxsize=None)
def _join(blocks, a, b):
    """Blocks after joining the blocks of points a and b (1-based)."""
    la, lb = blocks[a - 1], blocks[b - 1]
    if la == lb:
        return blocks
    low, high = min(la, lb), max(la, lb)
    return tuple(low if label == high else label for label in blocks)


@lru_cache(maxsize=None)
def transposition_class_matrix(n: int) -> dict[Partition, dict[Partition, int]]:
    """M[mu][nu] = number of transpositions t with t * rep(mu) of type nu.

    Class-vector DP oracle: plain k-step counts satisfy
    D(lam, mu; k) = |C_lam| * (e_lam M^k)[mu] / |C_mu|.
    """
    out: dict[Partition, dict[Partition, int]] = {}
    for mu in conjugacy_classes(n):
        rep = class_representative(mu, n)
        row: dict[Partition, int] = {}
        for _, _, tau in transpositions(n):
            t = cycle_type(compose(tau, rep))
            row[t] = row.get(t, 0) + 1
        out[mu] = row
    return out


def plain_count_via_class_dp(n: int, lam, mu, k: int) -> Fraction:
    """Independent class-basis dynamic program for plain k-step counts."""
    lam, mu = check_partition(lam), check_partition(mu)
    matrix = transposition_class_matrix(n)
    vec: dict[Partition, int] = {lam: 1}
    for _ in range(k):
        new: dict[Partition, int] = {}
        for t, c in vec.items():
            for u, m in matrix[t].items():
                new[u] = new.get(u, 0) + c * m
        vec = new
    walks_to_class = vec.get(mu, 0)
    return Fraction(class_size(lam) * walks_to_class, class_size(mu))
