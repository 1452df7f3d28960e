"""Truncated multivariate formal power series over exact rationals.

A SeriesSpace fixes the parameter names and their individual degree caps;
every TruncSeries belongs to one space and all arithmetic stays inside it,
silently dropping monomials whose exponent exceeds a cap (formal
truncation).  Coefficients are Fractions throughout.

Packed integers, the fast exact path, have one format, known only here:
numerators puts coefficient dicts over one D, the lcm of their
denominators, as (slot, numerator) pairs; pack sets them in signed W-bit
slots of one int, and unpack takes them apart.  Slots are dense
(SeriesSpace._slots: stride 2 cap + 1 per axis, so no two exponent sums
share one) or one per exponent tuple of a sparse support.  Unpacked
fields over D are read by read_fields, as a series, or by read_text, as
the printed dict series_json gives for that series.  read_packed turns a
packed int at the dense slots into a series, unpacking only its live
fields.  Each kernel sizes W for its own sums.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import add

from .errors import ExactDivisionError

Exponents = tuple[int, ...]


class SeriesSpace:
    """Named formal parameters with per-parameter degree caps."""

    def __init__(self, params, caps):
        self.params = tuple(params)
        if isinstance(caps, int):
            caps = (caps,) * len(self.params)
        self.caps = tuple(int(c) for c in caps)
        if len(self.params) != len(self.caps):
            raise ValueError("one cap per parameter required")
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"parameter names must be distinct: {self.params}")
        if any(c < 0 for c in self.caps):
            raise ValueError(f"degree caps must be >= 0, got {self.caps}")
        self._index = {name: k for k, name in enumerate(self.params)}

    def __repr__(self):
        inside = ", ".join(f"{p}<= {c}" for p, c in zip(self.params, self.caps))
        return f"SeriesSpace({inside})"

    def __eq__(self, other):
        return (
            isinstance(other, SeriesSpace)
            and self.params == other.params
            and self.caps == other.caps
        )

    def __hash__(self):
        return hash((self.params, self.caps))

    @cached_property
    def _slots(self) -> dict[Exponents, int]:
        """{exponents: slot} over the cap box, with stride 2 cap + 1 per axis
        so that no two sums of two exponent tuples in the box share a slot."""
        strides = [prod(2 * c + 1 for c in self.caps[k + 1 :]) for k in range(len(self.caps))]
        return {
            exps: sum(e * s for e, s in zip(exps, strides))
            for exps in product(*(range(c + 1) for c in self.caps))
        }

    @cached_property
    def _exponents(self) -> list[Exponents | None]:
        """The exponents of each dense slot, None at the gaps the stride
        leaves for sums past the caps."""
        exponents = [None] * (self._slots[self.caps] + 1)
        for exps, k in self._slots.items():
            exponents[k] = exps
        return exponents

    @cached_property
    def _labels(self) -> "_Labels":
        """{exponents: monomial_label}, each label built on its first lookup
        by series_json or a caller of read_text."""
        return _Labels(self.params)

    def axis(self, name: str) -> int:
        return self._index[name]

    def exponents(self, **powers) -> Exponents:
        exps = [0] * len(self.params)
        for name, e in powers.items():
            exps[self._index[name]] = e
        return tuple(exps)

    # -- constructors ------------------------------------------------------

    def zero(self) -> "TruncSeries":
        return TruncSeries(self, {})

    def scalar(self, c) -> "TruncSeries":
        return TruncSeries(self, {(0,) * len(self.params): Fraction(c)})

    def one(self) -> "TruncSeries":
        return self._one

    @cached_property
    def _one(self) -> "TruncSeries":
        return self.scalar(1)

    def monomial(self, coeff, **powers) -> "TruncSeries":
        return TruncSeries(self, {self.exponents(**powers): Fraction(coeff)})

    def axis_series(self, name: str, ratio) -> "TruncSeries":
        """sum_k a_k x^k up to the cap of x, with a_0 = 1 and
        a_{k+1} = a_k * ratio(k)."""
        axis = self.axis(name)
        terms = {}
        coeff = Fraction(1)
        for k in range(self.caps[axis] + 1):
            exps = [0] * len(self.params)
            exps[axis] = k
            terms[tuple(exps)] = coeff
            coeff = coeff * ratio(k)
        return TruncSeries(self, terms)

    def geom(self, c, name: str) -> "TruncSeries":
        """1/(1 - c*x) = sum_k c^k x^k up to the cap of x."""
        c = Fraction(c)
        return self.axis_series(name, lambda k: c)

    def linear(self, c, name: str) -> "TruncSeries":
        """1 + c*x."""
        return self.one() + self.monomial(c, **{name: 1})

    def exp_linear(self, c, name: str) -> "TruncSeries":
        """exp(c*x) = sum_k c^k x^k / k! up to the cap of x."""
        c = Fraction(c)
        return self.axis_series(name, lambda k: c / (k + 1))


class TruncSeries:
    __slots__ = ("space", "terms")

    def __init__(self, space: SeriesSpace, terms: dict):
        self.space = space
        caps = space.caps
        clean = {}
        for exps, coeff in terms.items():
            if not coeff:
                continue
            if len(exps) != len(caps):
                raise ValueError(f"exponents {exps} do not match the parameters {space.params}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if all(e <= c for e, c in zip(exps, caps)):
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, space: SeriesSpace, terms: dict) -> "TruncSeries":
        """A series from exponents known to lie inside the caps (the ring's
        own results); only zero coefficients are dropped."""
        series = cls.__new__(cls)
        series.space = space
        series.terms = {e: c for e, c in terms.items() if c}
        return series

    # -- inspection --------------------------------------------------------

    def coeff(self, **powers) -> Fraction:
        coeff = self.terms.get(self.space.exponents(**powers))
        return Fraction(0) if coeff is None else coeff

    def constant_term(self) -> Fraction:
        coeff = self.terms.get((0,) * len(self.space.params))
        return Fraction(0) if coeff is None else coeff

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            if self.space.params != other.space.params:
                return NotImplemented
            return self.terms == other.terms
        # scalar comparison
        value = Fraction(other)
        if not value:
            return not self.terms
        return self.terms == {(0,) * len(self.space.params): value}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            mono = monomial_label(self.space.params, exps)
            bits.append(f"{self.terms[exps]}*{mono}" if mono != "1" else str(self.terms[exps]))
        return " + ".join(bits)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "TruncSeries"):
        if self.space != other.space:
            raise ValueError(f"series spaces differ: {self.space} vs {other.space}")

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = self.space.scalar(other)
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return TruncSeries._trusted(self.space, terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._trusted(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            other = self.space.scalar(other)
        return self + (-other)

    def __mul__(self, other):
        """The product, truncated to the caps.  A one-term factor shifts and
        scales each term of the other; otherwise the two series are packed at
        the dense slots, each over its own lcm D, and multiplied once
        (packed_product), and its live fields are read back over D_a D_b."""
        space = self.space
        if not isinstance(other, TruncSeries):
            c = Fraction(other)
            if not c:
                return space.zero()
            return TruncSeries._trusted(space, {e: coeff * c for e, coeff in self.terms.items()})
        self._check(other)
        if not self.terms or not other.terms:
            return space.zero()
        if len(self.terms) == 1 or len(other.terms) == 1:
            mono, rest = (other, self) if len(other.terms) == 1 else (self, other)
            (f, c), = mono.terms.items()
            return TruncSeries(space, {tuple(map(add, e, f)): a * c for e, a in rest.terms.items()})
        (da, (a,)), (db, (b,)) = (numerators([s.terms], space._slots) for s in (self, other))
        return read_packed(space, *packed_product(a, b), da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncSeries):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires an invertible constant term.

        One pass over the exponent box: b_0 = 1/a_0 and
        b_e = -(1/a_0) sum_{0 != f <= e} a_f b_{e-f}.  The box is walked in
        lexicographic order, which lists every e - f before e."""
        c0 = self.constant_term()
        if not c0:
            raise ExactDivisionError("series has no constant term; not a unit")
        zero = (0,) * len(self.space.params)
        rest = [(f, c) for f, c in self.terms.items() if f != zero]
        inv0 = Fraction(1) / c0
        b = {zero: inv0}
        for e in product(*(range(c + 1) for c in self.space.caps)):
            total = 0
            for f, c in rest:
                if all(x <= y for x, y in zip(f, e)):
                    prev = b.get(tuple(y - x for x, y in zip(f, e)))
                    if prev is not None:
                        total += c * prev
            if total:
                b[e] = -inv0 * total
        return TruncSeries._trusted(self.space, b)

    # -- one-parameter helpers (determinants, q gradings) --------------------

    def shift_down(self, name: str, amount: int) -> "TruncSeries":
        """Exact division by x^amount; every term must be divisible."""
        axis = self.space.axis(name)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[axis] < amount:
                raise ExactDivisionError(
                    f"term {exps} not divisible by {name}^{amount}"
                )
            new = list(exps)
            new[axis] -= amount
            terms[tuple(new)] = coeff
        return TruncSeries._trusted(self.space, terms)

    def shift_up(self, name: str, amount: int) -> "TruncSeries":
        """Multiplication by x^amount, truncated to the cap of x."""
        axis = self.space.axis(name)
        terms = {e[:axis] + (e[axis] + amount,) + e[axis + 1 :]: c for e, c in self.terms.items()}
        return TruncSeries(self.space, terms)

    def truncate_to(self, space: SeriesSpace) -> "TruncSeries":
        """Reinterpret in a space with the same parameters but smaller caps."""
        if space.params != self.space.params:
            raise ValueError("truncate_to needs identical parameter names")
        return TruncSeries(space, dict(self.terms))


def numerators(terms_list, slot: dict) -> tuple[int, list[list[tuple[int, int]]]]:
    """D, the lcm of every denominator in terms_list, and for each dict its
    (slot[e], numerator over D) pairs."""
    d = lcm(*(c.denominator for terms in terms_list for c in terms.values()))
    return d, [[(slot[e], c.numerator * (d // c.denominator)) for e, c in terms.items()]
               for terms in terms_list]


def read_packed(space: SeriesSpace, total: int, width: int, d: int) -> TruncSeries:
    """The series of ``space`` whose coefficient at the dense slot k is field
    k of the packed ``total`` over d; a field past the top slot or at a gap
    holds terms past the caps and is dropped.  Only the fields from the one
    holding the lowest set bit of total to the one holding the highest are
    decoded: below the lowest nonzero field total is all zero bits, and
    the highest nonzero field k leaves |total| between 2^(width k - 1) and
    2^(width (k + 1) - 1), so its bit length over width is k."""
    exponents = space._exponents
    low = ((total & -total).bit_length() - 1) // width  # -1 when total is 0
    high = min(abs(total).bit_length() // width, len(exponents) - 1)
    if low < 0 or low > high:
        return TruncSeries._trusted(space, {})
    fields = unpack(total >> (width * low), width, high - low + 1)
    return read_fields(space, fields, exponents[low : high + 1], d)


def read_fields(space: SeriesSpace, fields, exponents, d: int) -> TruncSeries:
    """The series of ``space`` whose coefficient at exponents[k] is fields[k]
    over d; a field whose exponents are None (a gap) is dropped."""
    live = zip(exponents, fields)
    return TruncSeries._trusted(space, {e: Fraction(x, d) for e, x in live if x and e is not None})


def read_text(fields, labels, d: int) -> dict[str, str]:
    """{labels[k]: "num/den"} for the nonzero fields[k] / d, slots in exponent
    order: series_json of the series read_fields would build, with one gcd per
    nonzero field and no Fraction.  As str(Fraction) prints it, the sign goes
    on the numerator and an integer has no denominator; d must be positive."""
    out = {}
    for x, label in zip(fields, labels):
        if x:
            g = gcd(x, d)
            out[label] = f"{x // g}/{d // g}" if g != d else str(x // g)
    return out


def pack(fields, width: int) -> int:
    """The sum of x 2^(width k) over the (k, x) of ``fields``."""
    return sum(x << (width * k) for k, x in fields)


def unpack(total: int, width: int, count: int) -> list[int]:
    """Fields 0..count-1 of a packed int, each a signed width-bit number:
    every field must stay below 2^(width - 1) in size, so that biased by
    2^(width - 1) it is nonnegative and borrows nothing from the next."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    total += half * (((1 << (width * count)) - 1) // mask)
    return [((total >> (width * k)) & mask) - half for k in range(count)]


def packed_product(a, b) -> tuple[int, int]:
    """(total, W): (sum a_k X^k)(sum b_k X^k), X = 2^W, for the (k, a_k)
    pairs of a and b, as one big-int product.  A field sums at most
    min(#a, #b) products, so it stays below min(#a, #b) max|a| max|b| in
    size; W is that bound's bit length + 1, one bit for the sign."""
    bound = min(len(a), len(b)) * max(abs(x) for _, x in a) * max(abs(x) for _, x in b)
    width = bound.bit_length() + 1
    return pack(a, width) * pack(b, width), width


def monomial_label(params, exps) -> str:
    """Human-readable monomial key, e.g. "z^3" or "q^2 w^1"; "1" if constant."""
    bits = [f"{p}^{e}" for p, e in zip(params, exps) if e]
    return " ".join(bits) if bits else "1"


class _Labels(dict):
    """{exponents: monomial_label(params, exponents)}, each label built on
    its first lookup."""

    def __init__(self, params):
        super().__init__()
        self.params = params

    def __missing__(self, exps):
        label = self[exps] = monomial_label(self.params, exps)
        return label


def series_json(series: TruncSeries) -> dict[str, str]:
    """The series as {monomial label: "num/den"} in exponent order; integer
    coefficients print without a denominator."""
    labels = series.space._labels
    return {labels[exps]: str(coeff) for exps, coeff in sorted(series.terms.items())}
