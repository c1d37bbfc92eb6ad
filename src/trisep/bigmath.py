"""Adaptive-precision logarithms, exact powers, and the refinement loop.

Everything here is pure: values are immutable, caches are transparent, and
identical calls always produce identical intervals.  The refinement loop
doubles the working precision until a caller-supplied target holds, and
raises an explicit budget error when it hits the precision cap -- never a
silent wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple, Union

from .dyadic import Dyadic, DyadicInterval, dy_cmp_fraction
from .errors import BudgetExceededError, DomainError

PRECISION_CAP_DEFAULT = 1 << 20
START_BITS_DEFAULT = 32


# ---------------------------------------------------------------------------
# exact powers


def pow_rat(x: Union[Fraction, int], e: int) -> Fraction:
    """Exact x**e for a rational x and integer e >= 0 via binary powering.

    Bit size of the result grows linearly in e; the caller owns the size
    budget.  0**0 is rejected.
    """
    x = Fraction(x)
    if e < 0:
        raise DomainError("pow_rat takes a nonnegative exponent")
    if e == 0:
        if x == 0:
            raise DomainError("0**0 is undefined")
        return Fraction(1)
    return Fraction(x.numerator ** e, x.denominator ** e)


# ---------------------------------------------------------------------------
# logarithms

def _atanh_series(z: Fraction, w: int) -> DyadicInterval:
    """Enclosure of atanh(z) = sum z^(2j+1)/(2j+1) for 0 <= z <= 0.34.

    Two fixed-point sums in units of 2**-W, W = w + 8: the lower one rounds
    every step down, the upper one every step up.  Every operand is
    nonnegative, so by monotonicity [lo, hi] * 2**-W encloses the exact
    partial sum; the upper end also carries the tail bound.
    """
    p, q = z.numerator, z.denominator
    W = w + 8
    x_lo = (p << W) // q
    x_hi = -((-p << W) // q)
    x2_lo = x_lo * x_lo >> W
    x2_hi = -((-x_hi * x_hi) >> W)
    lo = hi = 0
    t_lo, t_hi = x_lo, x_hi  # bounds on z^n * 2**W
    n = 1
    while t_hi > 1 << 8:  # stop once z^n <= 2**-w
        lo += t_lo // n
        hi -= -t_hi // n
        t_lo = t_lo * x2_lo >> W
        t_hi = -((-t_hi * x2_hi) >> W)
        n += 2
    # tail: sum_{odd j >= n} z^j/j <= z^n / (1 - z^2) <= 2 * ub(z^n)
    return DyadicInterval(Dyadic(lo, -W), Dyadic(hi + 2 * t_hi, -W), w)


@lru_cache(maxsize=None)
def ln2_interval(prec: int) -> DyadicInterval:
    """Enclosure of ln 2 = 2 atanh(1/3)."""
    return _atanh_series(Fraction(1, 3), prec + 6).mul_int(2).round_to(prec)


@lru_cache(maxsize=4096)
def _ln_cached(p: int, q: int, prec: int) -> DyadicInterval:
    w = prec + 10
    # reduce to p/q = m * 2**k with m in [1, 2)
    k = p.bit_length() - q.bit_length()
    if k >= 0:
        below = p < (q << k)
    else:
        below = (p << (-k)) < q
    if below:
        k -= 1
    if k >= 0:
        qk = q << k
        znum, zden = p - qk, p + qk
    else:
        p2 = p << (-k)
        znum, zden = p2 - q, p2 + q
    ln_m = _atanh_series(Fraction(znum, zden), w).mul_int(2)
    if k != 0:
        ln_m = ln_m.add(ln2_interval(w).mul_int(k))
    out = ln_m.round_to(prec + 3)
    return DyadicInterval(out.lo, out.hi, prec)


def ln_interval(x: Union[Fraction, int], prec: int) -> DyadicInterval:
    """Enclosure of ln(x) for rational x > 0.

    Width is at most 2**(2-prec) * max(1, |ln x|); argument reduction to
    [1, 2) plus the atanh series with an explicit tail bound.
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("ln_interval requires a positive argument")
    if prec < 4:
        raise DomainError("ln_interval requires precision >= 4")
    return _ln_cached(x.numerator, x.denominator, prec)


def ln_lower(x: Union[Fraction, int], prec: int = 128) -> Fraction:
    """Certified rational lower bound on ln(x)."""
    return ln_interval(x, prec).lo.as_fraction()


def ln_upper(x: Union[Fraction, int], prec: int = 128) -> Fraction:
    """Certified rational upper bound on ln(x)."""
    return ln_interval(x, prec).hi.as_fraction()


# ---------------------------------------------------------------------------
# pi and cosine enclosures (only what the binomial chord bound needs)

def _atan_bounds(x: Fraction, prec: int) -> Tuple[Fraction, Fraction]:
    """Alternating-series bracket of atan(x) for 0 < x < 1."""
    s = Fraction(0)
    x2 = x * x
    term = x
    n = 1
    sign = 1
    bound = Fraction(1, 1 << prec)
    while term > bound:
        s += sign * term / n
        term *= x2
        n += 2
        sign = -sign
    return (s - term, s + term)


@lru_cache(maxsize=None)
def pi_bounds(prec: int) -> Tuple[Fraction, Fraction]:
    """Machin's formula: pi = 16 atan(1/5) - 4 atan(1/239)."""
    a5 = _atan_bounds(Fraction(1, 5), prec + 8)
    a239 = _atan_bounds(Fraction(1, 239), prec + 8)
    return (16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0])


def cos_bounds(t: Fraction, prec: int) -> Tuple[Fraction, Fraction]:
    """Rational bracket of cos(t) for 0 <= t <= 4.

    The Taylor terms t^(2j)/(2j)! are kept as fixed-point integers in units
    of 2**-W, a lower copy rounded down and an upper copy rounded up at
    every step; subtracting a term takes the upper copy off the lower sum
    and the lower copy off the upper sum.
    """
    if t < 0 or t > 4:
        raise DomainError("cos_bounds expects 0 <= t <= 4")
    p2, q2 = t.numerator ** 2, t.denominator ** 2
    W = prec + 8
    t2_lo = (p2 << W) // q2
    t2_hi = -((-p2 << W) // q2)
    one = 1 << W
    s_lo = s_hi = t_lo = t_hi = one
    bound = 1 << (W - prec)
    j = 0
    while True:
        j += 1
        d = (2 * j - 1) * (2 * j) << W
        t_lo = t_lo * t2_lo // d
        t_hi = -(-t_hi * t2_hi // d)
        if (2 * j + 1) * (2 * j + 2) * q2 > p2 and t_hi < bound:
            break
        if j & 1:
            s_lo -= t_hi
            s_hi -= t_lo
        else:
            s_lo += t_lo
            s_hi += t_hi
    # remaining tail is alternating with decreasing terms from here on
    return (Fraction(s_lo - t_hi, one), Fraction(s_hi + t_hi, one))


# ---------------------------------------------------------------------------
# the adaptive-precision loop

class WidthBelow:
    """Refinement target: interval width strictly below a positive bound."""

    def __init__(self, bound: Union[Fraction, Dyadic]):
        self.bound = bound.as_fraction() if isinstance(bound, Dyadic) else Fraction(bound)
        if self.bound <= 0:
            raise DomainError("width target must be positive")

    def satisfied(self, iv: DyadicInterval) -> bool:
        return dy_cmp_fraction(iv.width_upper(), self.bound) < 0


class SignDetermined:
    """Refinement target: the interval's sign is certain."""

    def satisfied(self, iv: DyadicInterval) -> bool:
        return iv.sign() is not None


SIGN_DETERMINED = SignDetermined()

RefineTarget = Union[WidthBelow, SignDetermined]


def refine(compute: Callable[[int], DyadicInterval],
           target: RefineTarget,
           *,
           start_bits: int = START_BITS_DEFAULT,
           max_bits: int = PRECISION_CAP_DEFAULT) -> DyadicInterval:
    """Double precision until ``target`` holds on compute(precision).

    Returns the first satisfying interval.  ``compute`` must be deterministic
    for a fixed precision.  Raises BudgetExceededError (carrying the last
    interval) once the cap is passed.
    """
    bits = max(4, start_bits)
    iv = None
    while True:
        iv = compute(bits)
        if target.satisfied(iv):
            return iv
        if bits >= max_bits:
            raise BudgetExceededError(
                f"refinement target not met at {bits} bits (cap {max_bits})",
                last_interval=iv, bits=bits)
        bits = min(bits * 2, max_bits)


def refine_sign(compute: Callable[[int], DyadicInterval],
                *,
                start_bits: int = START_BITS_DEFAULT,
                max_bits: int = PRECISION_CAP_DEFAULT) -> Tuple[DyadicInterval, int]:
    """Refine until the sign is determined; returns (interval, sign)."""
    iv = refine(compute, SIGN_DETERMINED, start_bits=start_bits, max_bits=max_bits)
    return iv, iv.sign()
