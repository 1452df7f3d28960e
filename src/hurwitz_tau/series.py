"""Truncated multivariate formal power series over exact rationals.

A SeriesSpace fixes the parameter names and their individual degree caps;
every TruncSeries belongs to one space and all arithmetic stays inside it,
silently dropping monomials whose exponent exceeds a cap (formal
truncation).

A series is integer numerators over one denominator, the layout of FLINT's
fmpq_poly: den > 0 and nums = {exponents: nonzero int}, kept in lowest
terms (gcd(den, *nums) = 1, the zero series 1 and {}), so equal series
hold equal integers and den never outgrows the coefficients.  The ring
operations run on the integers and reduce once per result; terms is the
{exponents: Fraction} view, built on its first read.  Scalars are exact
rationals (numbers.Rational): a str or a float is refused.

Packed integers, the fast exact path, have one format, known only here:
pack sets (slot, numerator) pairs in signed W-bit slots of one int, and
unpack takes them apart.  Slots are dense (SeriesSpace._slots: stride
2 cap + 1 per axis, so no two exponent sums share one) or one per exponent
tuple of a sparse support.  Unpacked fields over D are read by
read_fields, as a series, or by read_text, as the printed dict
series_json gives for that series.  read_packed turns a packed int at the
dense slots into a series, unpacking only its live fields.  Each kernel
sizes W for its own sums.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from numbers import Rational
from operator import add, le

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

    def inside(self, exps: Exponents) -> bool:
        """Whether every exponent is within its cap."""
        return all(map(le, exps, self.caps))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "TruncSeries":
        return TruncSeries._trusted(self, 1, {})

    def scalar(self, c) -> "TruncSeries":
        return TruncSeries(self, {(0,) * len(self.params): c})

    def one(self) -> "TruncSeries":
        return self._one

    @cached_property
    def _one(self) -> "TruncSeries":
        return self.scalar(1)

    def monomial(self, coeff, **powers) -> "TruncSeries":
        return TruncSeries(self, {self.exponents(**powers): coeff})

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
        c = Fraction(exact(c))
        return self.axis_series(name, lambda k: c)

    def linear(self, c, name: str) -> "TruncSeries":
        """1 + c*x."""
        return self.one() + self.monomial(c, **{name: 1})

    def exp_linear(self, c, name: str) -> "TruncSeries":
        """exp(c*x) = sum_k c^k x^k / k! up to the cap of x."""
        c = Fraction(exact(c))
        return self.axis_series(name, lambda k: c / (k + 1))


def exact(c):
    """c itself when it is an exact rational (numbers.Rational); a str, a
    float or anything else is a TypeError."""
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, got {c!r}")
    return c


class TruncSeries:
    """nums[e] / den is the coefficient of the monomial e; see the module
    docstring for the canonical form."""

    __slots__ = ("space", "den", "nums", "_terms")

    def __init__(self, space: SeriesSpace, terms: dict):
        """The series {exponents: coefficient} of ``space``, each coefficient
        a numbers.Rational in lowest terms (an int or a Fraction); zero
        coefficients and exponents past the caps are dropped.  Over the lcm
        of the kept denominators the numerators are already in lowest terms."""
        kept = {}
        for exps, coeff in terms.items():
            if not exact(coeff):
                continue
            if len(exps) != len(space.caps):
                raise ValueError(f"exponents {exps} do not match the parameters {space.params}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if space.inside(exps):
                kept[exps] = coeff
        den = lcm(*(c.denominator for c in kept.values()))
        self.space, self.den, self._terms = space, den, None
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in kept.items()}

    @classmethod
    def _trusted(cls, space: SeriesSpace, den: int, nums: dict) -> "TruncSeries":
        """The series nums / den from nonzero int numerators at exponents
        inside the caps and den > 0 (the ring's own results), divided by
        gcd(den, *nums)."""
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: x // g for e, x in nums.items()}
        series = cls.__new__(cls)
        series.space, series.den, series.nums, series._terms = space, den, nums, None
        return series

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """{exponents: Fraction}, built on the first read and kept."""
        if self._terms is None:
            den = self.den
            self._terms = {e: Fraction(x, den) for e, x in self.nums.items()}
        return self._terms

    def coeff(self, **powers) -> Fraction:
        return Fraction(self.nums.get(self.space.exponents(**powers), 0), self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * len(self.space.params), 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        """Equal integers for a series of the same parameters; a rational
        scalar is compared as the constant series.  Anything else is
        NotImplemented."""
        if isinstance(other, TruncSeries):
            if self.space.params != other.space.params:
                return NotImplemented
            return self.den == other.den and self.nums == other.nums
        if not isinstance(other, Rational):
            return NotImplemented
        if not other:
            return not self.nums
        zero = (0,) * len(self.space.params)
        return self.den == other.denominator and self.nums == {zero: other.numerator}

    def __repr__(self):
        if not self.nums:
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

    def _combine(self, other, sign: int):
        """self + sign other over the lcm of the two denominators."""
        if isinstance(other, TruncSeries):
            self._check(other)
        elif isinstance(other, Rational):
            other = self.space.scalar(other)
        else:
            return NotImplemented
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        nums = {e: x * ma for e, x in self.nums.items()} if ma != 1 else dict(self.nums)
        for e, x in other.nums.items():
            nums[e] = nums.get(e, 0) + x * mb
        return TruncSeries._trusted(self.space, den, {e: x for e, x in nums.items() if x})

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        nums = {e: -x for e, x in self.nums.items()}
        return TruncSeries._trusted(self.space, self.den, nums)

    def _scaled(self, p: int, q: int) -> "TruncSeries":
        """self p / q for q > 0: p scales the numerators, q the denominator."""
        nums = {e: x * p for e, x in self.nums.items()} if p else {}
        return TruncSeries._trusted(self.space, self.den * q, nums)

    def __mul__(self, other):
        """The product, truncated to the caps.  A rational scales the
        numerators and the denominator; a one-term factor shifts and scales
        each term of the other; otherwise the numerators of the two series
        are packed at the dense slots and multiplied once (packed_product),
        and the product's live fields are read back over den_a den_b."""
        space = self.space
        if not isinstance(other, TruncSeries):
            if not isinstance(other, Rational):
                return NotImplemented
            return self._scaled(other.numerator, other.denominator)
        self._check(other)
        if not self.nums or not other.nums:
            return space.zero()
        den = self.den * other.den
        if len(self.nums) == 1 or len(other.nums) == 1:
            mono, rest = (other, self) if len(other.nums) == 1 else (self, other)
            (f, c), = mono.nums.items()
            shifted = ((tuple(map(add, e, f)), x * c) for e, x in rest.nums.items())
            return TruncSeries._trusted(space, den, {e: x for e, x in shifted if space.inside(e)})
        slots = space._slots
        a = [(slots[e], x) for e, x in self.nums.items()]
        b = [(slots[e], x) for e, x in other.nums.items()]
        return read_packed(space, *packed_product(a, b), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncSeries):
            return self * other.inverse()
        if not isinstance(other, Rational):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("series divided by zero")
        p, q = other.denominator, other.numerator
        return self._scaled(-p, -q) if q < 0 else self._scaled(p, q)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires an invertible constant term.

        With a = A / den and a_0 = A_0 / den, 1/a = den / A, and A^-1 at e is
        c_e / A_0^(|e| + 1) for the integers c_0 = 1 and
        c_e = -sum_{0 != f <= e} A_f c_{e-f} A_0^(|f| - 1), |e| the total
        degree.  The box is walked in lexicographic order, which lists every
        e - f before e; the result is read over |A_0|^(T + 1), T the top
        total degree of the box."""
        zero = (0,) * len(self.space.params)
        a0 = self.nums.get(zero)
        if not a0:
            raise ExactDivisionError("series has no constant term; not a unit")
        top = sum(self.space.caps)
        powers = [a0**k for k in range(top + 1)]
        rest = [(f, x * powers[sum(f) - 1]) for f, x in self.nums.items() if f != zero]
        c = {zero: 1}
        for e in product(*(range(cap + 1) for cap in self.space.caps)):
            total = 0
            for f, x in rest:
                if all(map(le, f, e)):
                    prev = c.get(tuple(y - z for z, y in zip(f, e)))
                    if prev is not None:
                        total += x * prev
            if total:
                c[e] = -total
        whole = powers[top] * a0
        scale = self.den if whole > 0 else -self.den
        nums = {e: scale * x * powers[top - sum(e)] for e, x in c.items()}
        return TruncSeries._trusted(self.space, abs(whole), nums)

    # -- one-parameter helpers (determinants, q gradings) --------------------

    def shift_down(self, name: str, amount: int) -> "TruncSeries":
        """Exact division by x^amount; every term must be divisible."""
        axis = self.space.axis(name)
        nums = {}
        for exps, x in self.nums.items():
            if exps[axis] < amount:
                raise ExactDivisionError(
                    f"term {exps} not divisible by {name}^{amount}"
                )
            nums[exps[:axis] + (exps[axis] - amount,) + exps[axis + 1 :]] = x
        return TruncSeries._trusted(self.space, self.den, nums)

    def shift_up(self, name: str, amount: int) -> "TruncSeries":
        """Multiplication by x^amount, truncated to the cap of x."""
        axis, space = self.space.axis(name), self.space
        shifted = ((e[:axis] + (e[axis] + amount,) + e[axis + 1 :], x) for e, x in self.nums.items())
        return TruncSeries._trusted(space, self.den, {e: x for e, x in shifted if space.inside(e)})

    def truncate_to(self, space: SeriesSpace) -> "TruncSeries":
        """Reinterpret in a space with the same parameters but smaller caps."""
        if space.params != self.space.params:
            raise ValueError("truncate_to needs identical parameter names")
        nums = {e: x for e, x in self.nums.items() if space.inside(e)}
        return TruncSeries._trusted(space, self.den, nums)


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
        return space.zero()
    fields = unpack(total >> (width * low), width, high - low + 1)
    return read_fields(space, fields, exponents[low : high + 1], d)


def read_fields(space: SeriesSpace, fields, exponents, d: int) -> TruncSeries:
    """The series of ``space`` whose coefficient at exponents[k] is fields[k]
    over d > 0, reduced by one gcd chain; a field whose exponents are None
    (a gap) is dropped."""
    live = zip(exponents, fields)
    return TruncSeries._trusted(space, d, {e: x for e, x in live if x and e is not None})


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
    coefficients print without a denominator (read_text, one gcd per term)."""
    labels, nums = series.space._labels, series.nums
    exps = sorted(nums)
    return read_text([nums[e] for e in exps], [labels[e] for e in exps], series.den)
