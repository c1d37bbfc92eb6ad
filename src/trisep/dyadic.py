"""Dyadic numbers (m * 2**e) and outward-rounded interval arithmetic.

Endpoints are exact dyadics, so halving for bisection is exact and every
result is bit-for-bit reproducible across platforms.  There is no
correctly-rounded guarantee, only containment: each interval operation
returns an interval that contains the exact result, rounding endpoints
outward to the working precision.

Values of wildly different binary scale (say 2**(2**40) plus an integer)
are routinely added and compared; magnitude comparisons go through the
position of the most significant bit, so no operation ever materializes a
shift proportional to the exponent gap.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

FLOOR = 0  # round toward -infinity
CEIL = 1   # round toward +infinity

# refuse exact alignments / Fraction conversions beyond this many bits
_ALIGN_GUARD = 1 << 25


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _prod(a: "Dyadic", b: "Dyadic") -> "Dyadic":
    return Dyadic(a.m * b.m, a.e + b.e)


class Dyadic:
    """Immutable m * 2**e with normalized (odd or zero) mantissa."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            e = 0
        else:
            t = (m & -m).bit_length() - 1
            if t:
                m >>= t
                e += t
        self.m = m
        self.e = e

    # -- queries -------------------------------------------------------

    @property
    def sign(self) -> int:
        return _sign(self.m)

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    @property
    def top(self) -> int:
        """Exponent of the MSB plus one: 2**(top-1) <= |value| < 2**top."""
        if self.m == 0:
            raise DomainError("top undefined for zero")
        return abs(self.m).bit_length() + self.e

    def as_fraction(self) -> Fraction:
        if abs(self.e) > _ALIGN_GUARD:
            raise DomainError("dyadic exponent too large for exact expansion")
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << (-self.e))

    def text(self) -> str:
        return f"{self.m}*2^{self.e}"

    @staticmethod
    def parse(s: str) -> "Dyadic":
        from .errors import ParseError

        s = s.strip()
        try:
            if "*2^" in s:
                ms, es = s.split("*2^")
                return Dyadic(int(ms), int(es))
            if s.startswith("2^"):
                return Dyadic(1, int(s[2:]))
            return Dyadic(int(s), 0)
        except ValueError as exc:
            raise ParseError(f"bad dyadic literal {s!r}") from exc

    # -- dunder --------------------------------------------------------

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.e)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dyadic) and self.m == other.m and self.e == other.e

    def __hash__(self):
        return hash((self.m, self.e))

    def __lt__(self, other):
        return dy_cmp(self, other) < 0

    def __le__(self, other):
        return dy_cmp(self, other) <= 0

    def __gt__(self, other):
        return dy_cmp(self, other) > 0

    def __ge__(self, other):
        return dy_cmp(self, other) >= 0

    def __repr__(self):
        return f"Dyadic({self.m}, {self.e})"


DY_ZERO = Dyadic(0)
DY_ONE = Dyadic(1)


def dy_round(d: Dyadic, prec: int, rnd: int) -> Dyadic:
    """Keep at most ``prec`` mantissa bits, rounding toward -inf or +inf."""
    if d.m == 0:
        return d
    s = abs(d.m).bit_length() - prec
    if s <= 0:
        return d
    if rnd == FLOOR:
        return Dyadic(d.m >> s, d.e + s)
    return Dyadic(-((-d.m) >> s), d.e + s)


def dy_cmp(a: Dyadic, b: Dyadic) -> int:
    am, bm = a.m, b.m
    sa = (am > 0) - (am < 0)
    sb = (bm > 0) - (bm < 0)
    if sa != sb:
        return -1 if sa < sb else 1
    if sa == 0:
        return 0
    ta = (am if am > 0 else -am).bit_length() + a.e
    tb = (bm if bm > 0 else -bm).bit_length() + b.e
    if ta != tb:
        mag = 1 if ta > tb else -1
        return mag if sa > 0 else -mag
    d = a.e - b.e  # |d| <= max mantissa length when tops agree
    if d >= 0:
        return _sign((am << d) - bm)
    return _sign(am - (bm << (-d)))


def dy_add(a: Dyadic, b: Dyadic, prec: int, rnd: int) -> Dyadic:
    if a.m == 0:
        return dy_round(b, prec, rnd)
    if b.m == 0:
        return dy_round(a, prec, rnd)
    if a.top < b.top:
        a, b = b, a
    gap = a.top - b.top
    if gap > prec + 4:
        # b is below one ulp of the rounded result; round a and nudge when
        # the dropped tail pulls in the rounding direction
        r = dy_round(a, prec, rnd)
        if (rnd == FLOOR and b.m < 0) or (rnd == CEIL and b.m > 0):
            nudge = Dyadic(_sign(b.m), a.top - prec - 5)
            return dy_add(r, nudge, prec, rnd)
        return r
    e = min(a.e, b.e)
    m = (a.m << (a.e - e)) + (b.m << (b.e - e))
    return dy_round(Dyadic(m, e), prec, rnd)


def dy_sub(a: Dyadic, b: Dyadic, prec: int, rnd: int) -> Dyadic:
    return dy_add(a, -b, prec, rnd)


def dy_add_exact(a: Dyadic, b: Dyadic) -> Dyadic:
    """Exact sum; raises if the exponent alignment would be astronomical."""
    if a.m == 0:
        return b
    if b.m == 0:
        return a
    e = min(a.e, b.e)
    if max(a.e, b.e) - e > _ALIGN_GUARD:
        raise DomainError("exact dyadic addition would need oversized alignment")
    return Dyadic((a.m << (a.e - e)) + (b.m << (b.e - e)), e)


def dy_half_sum(a: Dyadic, b: Dyadic) -> Dyadic:
    s = dy_add_exact(a, b)
    return Dyadic(s.m, s.e - 1)


def dy_mul(a: Dyadic, b: Dyadic, prec: int, rnd: int) -> Dyadic:
    return dy_round(Dyadic(a.m * b.m, a.e + b.e), prec, rnd)


def dy_mul_int(a: Dyadic, n: int, prec: int, rnd: int) -> Dyadic:
    return dy_round(Dyadic(a.m * n, a.e), prec, rnd)


def dy_from_fraction(fr: Fraction, prec: int, rnd: int) -> Dyadic:
    p, q = fr.numerator, fr.denominator
    if p == 0:
        return DY_ZERO
    if q == 1:
        return dy_round(Dyadic(p, 0), prec, rnd)
    k = prec - (abs(p).bit_length() - q.bit_length()) + 2
    if k >= 0:
        num, den = p << k, q
    else:
        num, den = p, q << (-k)
    fl, rem = divmod(num, den)
    m = fl if rnd == FLOOR else fl + (1 if rem else 0)
    return dy_round(Dyadic(m, -k), prec, rnd)


def dy_mul_frac(a: Dyadic, fr: Fraction, prec: int, rnd: int) -> Dyadic:
    """a * fr with directed rounding; fr must be positive."""
    if fr < 0:
        raise DomainError("dy_mul_frac expects a positive scale")
    p, q = fr.numerator, fr.denominator
    m = a.m * p
    if m == 0:
        return DY_ZERO
    if q == 1:
        return dy_round(Dyadic(m, a.e), prec, rnd)
    k = prec - (abs(m).bit_length() - q.bit_length()) + 2
    if k >= 0:
        num, den = m << k, q
    else:
        num, den = m, q << (-k)
    fl, rem = divmod(num, den)
    mm = fl if rnd == FLOOR else fl + (1 if rem else 0)
    return dy_round(Dyadic(mm, a.e - k), prec, rnd)


def dy_cmp_fraction(d: Dyadic, fr: Fraction) -> int:
    """sign(d - fr) without building huge intermediates for huge exponents."""
    p, q = fr.numerator, fr.denominator
    sd, sf = _sign(d.m), _sign(p)
    if sd != sf:
        return -1 if sd < sf else 1
    if sd == 0:
        return 0
    # compare magnitudes by MSB position first
    dt = d.top
    ft_hi = abs(p).bit_length() - q.bit_length() + 1  # |fr| < 2**ft_hi
    ft_lo = ft_hi - 2                                 # |fr| >= 2**ft_lo
    if dt - 1 >= ft_hi:
        mag = 1
    elif dt <= ft_lo:
        mag = -1
    else:
        if abs(d.e) > _ALIGN_GUARD:
            raise DomainError("dyadic/fraction comparison needs oversized shift")
        lhs, rhs = d.m * q, p
        if d.e >= 0:
            lhs <<= d.e
        else:
            rhs <<= -d.e
        c = _sign(lhs - rhs)
        return c
    return mag if sd > 0 else -mag


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints and a working precision.

    All arithmetic rounds outward at ``precision`` bits, so the result always
    contains the exact image of the operands.
    """

    __slots__ = ("lo", "hi", "precision")

    def __init__(self, lo: Dyadic, hi: Dyadic, precision: int = 53):
        if dy_cmp(lo, hi) > 0:
            raise DomainError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi
        self.precision = precision

    # -- constructors --------------------------------------------------

    @classmethod
    def _mk(cls, lo: Dyadic, hi: Dyadic, precision: int) -> "DyadicInterval":
        """Internal: endpoints already known to be ordered."""
        iv = object.__new__(cls)
        iv.lo = lo
        iv.hi = hi
        iv.precision = precision
        return iv

    @classmethod
    def point(cls, d: Dyadic, precision: int = 53) -> "DyadicInterval":
        return cls(d, d, precision)

    @classmethod
    def exact_int(cls, n: int, precision: int = 53) -> "DyadicInterval":
        d = Dyadic(n)
        return cls(d, d, precision)

    @classmethod
    def from_fraction(cls, fr: Fraction, precision: int) -> "DyadicInterval":
        return cls(
            dy_from_fraction(fr, precision, FLOOR),
            dy_from_fraction(fr, precision, CEIL),
            precision,
        )

    @classmethod
    def from_fraction_pair(cls, lo: Fraction, hi: Fraction, precision: int) -> "DyadicInterval":
        return cls(
            dy_from_fraction(lo, precision, FLOOR),
            dy_from_fraction(hi, precision, CEIL),
            precision,
        )

    # -- queries -------------------------------------------------------

    def sign(self):
        """-1, 0 or +1 when certain, None when the interval straddles 0."""
        if self.lo.m > 0:
            return 1
        if self.hi.m < 0:
            return -1
        if self.lo.m == 0 and self.hi.m == 0:
            return 0
        return None

    def contains_zero(self) -> bool:
        return self.lo.m <= 0 <= self.hi.m

    def contains_fraction(self, fr: Fraction) -> bool:
        return dy_cmp_fraction(self.lo, fr) <= 0 and dy_cmp_fraction(self.hi, fr) >= 0

    def width_upper(self) -> Dyadic:
        return dy_sub(self.hi, self.lo, self.precision, CEIL)

    def width_exact(self) -> Dyadic:
        return dy_add_exact(self.hi, -self.lo)

    def midpoint(self) -> Dyadic:
        return dy_half_sum(self.lo, self.hi)

    # -- arithmetic ----------------------------------------------------

    def round_to(self, prec: int) -> "DyadicInterval":
        return DyadicInterval(dy_round(self.lo, prec, FLOOR),
                              dy_round(self.hi, prec, CEIL), prec)

    def __neg__(self) -> "DyadicInterval":
        return DyadicInterval._mk(-self.hi, -self.lo, self.precision)

    def add(self, other: "DyadicInterval") -> "DyadicInterval":
        p = max(self.precision, other.precision)
        return DyadicInterval._mk(dy_add(self.lo, other.lo, p, FLOOR),
                                  dy_add(self.hi, other.hi, p, CEIL), p)

    def sub(self, other: "DyadicInterval") -> "DyadicInterval":
        return self.add(-other)

    def mul(self, other: "DyadicInterval") -> "DyadicInterval":
        p = max(self.precision, other.precision)
        a, b = self.lo, self.hi
        c, d = other.lo, other.hi
        # endpoint sign cases; only straddle*straddle needs comparisons
        if a.m >= 0:
            if c.m >= 0:
                lo, hi = _prod(a, c), _prod(b, d)
            elif d.m <= 0:
                lo, hi = _prod(b, c), _prod(a, d)
            else:
                lo, hi = _prod(b, c), _prod(b, d)
        elif b.m <= 0:
            if c.m >= 0:
                lo, hi = _prod(a, d), _prod(b, c)
            elif d.m <= 0:
                lo, hi = _prod(b, d), _prod(a, c)
            else:
                lo, hi = _prod(a, d), _prod(a, c)
        else:
            if c.m >= 0:
                lo, hi = _prod(a, d), _prod(b, d)
            elif d.m <= 0:
                lo, hi = _prod(b, c), _prod(a, c)
            else:
                l1, l2 = _prod(a, d), _prod(b, c)
                h1, h2 = _prod(a, c), _prod(b, d)
                lo = l1 if dy_cmp(l1, l2) <= 0 else l2
                hi = h1 if dy_cmp(h1, h2) >= 0 else h2
        return DyadicInterval._mk(dy_round(lo, p, FLOOR),
                                  dy_round(hi, p, CEIL), p)

    def mul_int(self, n: int) -> "DyadicInterval":
        p = self.precision
        if n == 0:
            return DyadicInterval._mk(DY_ZERO, DY_ZERO, p)
        if n > 0:
            return DyadicInterval._mk(dy_mul_int(self.lo, n, p, FLOOR),
                                      dy_mul_int(self.hi, n, p, CEIL), p)
        return DyadicInterval._mk(dy_mul_int(self.hi, n, p, FLOOR),
                                  dy_mul_int(self.lo, n, p, CEIL), p)

    def mul_frac(self, fr: Fraction) -> "DyadicInterval":
        p = self.precision
        if fr == 0:
            return DyadicInterval(DY_ZERO, DY_ZERO, p)
        if fr > 0:
            return DyadicInterval(dy_mul_frac(self.lo, fr, p, FLOOR),
                                  dy_mul_frac(self.hi, fr, p, CEIL), p)
        return (-self).mul_frac(-fr)

    def pow_int(self, e: int) -> "DyadicInterval":
        if e < 0:
            raise DomainError("interval powers take nonnegative exponents")
        if e == 0:
            return DyadicInterval.exact_int(1, self.precision)
        acc = self
        for bit in bin(e)[3:]:  # binary powering, MSB already consumed
            acc = acc.mul(acc)
            if bit == "1":
                acc = acc.mul(self)
        return acc

    def __repr__(self):
        return f"[{self.lo.text()}, {self.hi.text()}]@{self.precision}"
