"""Trinomial domain logic: counting, critical points, bounds, sign evaluation.

The counting algorithm never decides from an approximate value: the only
nontrivial decision -- does a same-sign trinomial dip below zero at its
positive critical point -- is the sign of a linear form in two logarithms
(``_discriminant_comparison``).  Its zero case, the double root, is decided
structurally; a nonzero sign comes from certified intervals refined up to
the precision cap, and raises a budget error beyond it.  That keeps the
cost polynomial in the bit size of the coefficients and exponents, so
exponents like 10**18 are fine.

Separation bounds are returned in exact log-space rationals: with constants
near 10**9 the bound exp(-C s^3) underflows every fixed-precision float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .bigmath import (
    PRECISION_CAP_DEFAULT,
    SIGN_DETERMINED,
    cos_bounds,
    ln_lower,
    ln_upper,
    pi_bounds,
    pow_rat,
    refine,
)
from .constants import LEDGER, clamp_one, log_upper
from .dyadic import (
    DY_ZERO,
    Dyadic,
    DyadicInterval,
    dy_add_exact,
    dy_cmp_fraction,
    dy_half_sum,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    ParseError,
    ZeroPolynomialError,
)
from .succinct import (
    LinearFormInLogs,
    Ordering,
    linear_form_is_zero,
    sign_linear_form,
)


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Monomial:
    """coeff * x**exp with coeff != 0."""

    coeff: int
    exp: int

    def __post_init__(self):
        if self.coeff == 0:
            raise ZeroPolynomialError("monomial coefficient is zero")
        if self.exp < 0:
            raise DomainError("exponents must be nonnegative")

    def terms(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.coeff, self.exp),)


@dataclass(frozen=True)
class Binomial:
    """b * x**beta + c * x**gamma with b, c != 0 and beta < gamma."""

    b: int
    c: int
    beta: int
    gamma: int

    def __post_init__(self):
        if self.b == 0 or self.c == 0:
            raise DomainError("binomial coefficients must be nonzero")
        if not (0 <= self.beta < self.gamma):
            raise DomainError("binomial exponents must satisfy 0 <= beta < gamma")

    def terms(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.b, self.beta), (self.c, self.gamma))


@dataclass(frozen=True)
class Trinomial:
    """a * x**alpha + b * x**beta + c * x**gamma, all coefficients nonzero."""

    a: int
    b: int
    c: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if 0 in (self.a, self.b, self.c):
            raise DomainError("trinomial coefficients must be nonzero")
        if not (0 <= self.alpha < self.beta < self.gamma):
            raise DomainError("exponents must satisfy 0 <= alpha < beta < gamma")

    def terms(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.a, self.alpha), (self.b, self.beta), (self.c, self.gamma))

    def s_param(self) -> Fraction:
        return _s_param(self)


SparsePoly = Union[Monomial, Binomial, Trinomial]


def _s_param(f: SparsePoly) -> Fraction:
    m = max(max(abs(c) for c, _ in f.terms()),
            max(e for _, e in f.terms()), 1)
    return clamp_one(log_upper(m))


@dataclass(frozen=True)
class RootCountReport:
    """Distinct-real-root counts; multiplicities reported separately.

    ``zero`` is 0 or 1 (a root at the origin counts once; its multiplicity
    is ``zero_multiplicity``).  A double positive/negative root counts once
    and raises the corresponding flag.
    """

    negative: int
    zero: int
    positive: int
    positive_double: bool
    negative_double: bool
    zero_multiplicity: int

    @property
    def total_distinct(self) -> int:
        return self.negative + self.zero + self.positive

    def to_dict(self) -> dict:
        return {
            "negative": self.negative,
            "zero": self.zero,
            "positive": self.positive,
            "positive_double": self.positive_double,
            "negative_double": self.negative_double,
            "zero_multiplicity": str(self.zero_multiplicity),
        }

    @staticmethod
    def from_dict(d: dict) -> "RootCountReport":
        return RootCountReport(
            negative=int(d["negative"]),
            zero=int(d["zero"]),
            positive=int(d["positive"]),
            positive_double=bool(d["positive_double"]),
            negative_double=bool(d["negative_double"]),
            zero_multiplicity=int(d["zero_multiplicity"]),
        )


@dataclass(frozen=True)
class SeparationBound:
    """Certified lower bound on root separation, in natural-log space."""

    log_bound: Fraction
    kind: str  # "real" | "complex" | "binomial"
    constants_used: str

    def approx_float(self) -> float:
        try:
            return float(self.log_bound)
        except OverflowError:
            return float("-inf") if self.log_bound < 0 else float("inf")


@dataclass(frozen=True)
class BinomialFloor:
    """Value floor for a1*x**beta + a2 at a rational point."""

    log_bound: Fraction
    is_zero: bool


# ---------------------------------------------------------------------------
# normalization and the reciprocal transform

def normalize(raw_terms: Sequence[Tuple[int, int]]) -> Tuple[SparsePoly, int]:
    """Sort, drop zero coefficients, factor out the lowest power of x.

    Returns the stripped polynomial (lowest exponent 0) and the multiplicity
    of the root at the origin.  More than three nonzero terms is unsupported;
    duplicate exponents and the zero polynomial are errors.
    """
    seen = set()
    for _, e in raw_terms:
        if e < 0:
            raise DomainError("exponents must be nonnegative")
        if e in seen:
            raise DomainError(f"duplicate exponent {e}")
        seen.add(e)
    terms = sorted(((c, e) for c, e in raw_terms if c != 0), key=lambda t: t[1])
    if not terms:
        raise ZeroPolynomialError("all coefficients are zero")
    if len(terms) > 3:
        raise DomainError("more than three nonzero terms is unsupported")
    alpha = terms[0][1]
    stripped = [(c, e - alpha) for c, e in terms]
    if len(stripped) == 1:
        return Monomial(stripped[0][0], 0), alpha
    if len(stripped) == 2:
        (b, be), (c, ce) = stripped
        return Binomial(b, c, be, ce), alpha
    (a, _), (b, be), (c, ce) = stripped
    return Trinomial(a, b, c, 0, be, ce), alpha


def reciprocal(f: Trinomial) -> Trinomial:
    """x**gamma * f(1/x); an involution on the alpha = 0 subclass."""
    if f.alpha != 0:
        raise DomainError("reciprocal requires alpha = 0")
    return Trinomial(f.c, f.b, f.a, 0, f.gamma - f.beta, f.gamma)


# ---------------------------------------------------------------------------
# the discriminant comparison and root counting

def _discriminant_comparison(a: int, b: int, c: int, beta: int, gamma: int,
                             *, max_bits: int = PRECISION_CAP_DEFAULT) -> Ordering:
    """Sign of the two-log form k ln(|a|g / (|b|k)) + beta ln(|c|g / (|b|beta)).

    Here g = gamma and k = gamma - beta; the form is the log of
    (|a|g)^k (|c|g)^beta / ((|b|beta)^beta (|b|k)^k).  LESS means the
    trinomial |a| + b x^beta + c x^gamma (signs of a and c equal, b
    opposite) dips through zero at its critical point: two positive roots.
    EQUAL is the double-root boundary, decided by the structural zero test
    alone; GREATER means no positive root.
    """
    k = gamma - beta
    form = LinearFormInLogs.from_terms([
        (Fraction(abs(a) * gamma, abs(b) * k), k),
        (Fraction(abs(c) * gamma, abs(b) * beta), beta),
    ])
    return Ordering(sign_linear_form(form, max_bits=max_bits))


def _positive_count(terms: Sequence[Tuple[int, int]],
                    *, max_bits: int = PRECISION_CAP_DEFAULT) -> Tuple[int, bool]:
    """Distinct positive roots of a stripped (constant term present) polynomial."""
    if len(terms) == 1:
        return 0, False
    if len(terms) == 2:
        (b, _), (c, _) = terms
        return (1, False) if _sign(b) != _sign(c) else (0, False)
    (a, _), (b, beta), (c, gamma) = terms
    if _sign(a) != _sign(c):
        return 1, False
    if _sign(b) == _sign(a):
        return 0, False
    cmp = _discriminant_comparison(a, b, c, beta, gamma, max_bits=max_bits)
    if cmp is Ordering.LESS:
        return 2, False
    if cmp is Ordering.EQUAL:
        return 1, True
    return 0, False


def count_real_roots(f: SparsePoly,
                     *, max_bits: int = PRECISION_CAP_DEFAULT) -> RootCountReport:
    """Exact distinct-real-root counts by sign.

    Positive roots: opposite end-coefficient signs force exactly one; equal
    end signs with the middle sign matching give none; otherwise the
    discriminant comparison decides 0, 1 (double) or 2.  Negative roots are
    the positive roots of f(-x).
    """
    terms = list(f.terms())
    alpha = terms[0][1]
    stripped = [(c, e - alpha) for c, e in terms]
    pos, pos_double = _positive_count(stripped, max_bits=max_bits)
    flipped = [(c if e % 2 == 0 else -c, e) for c, e in stripped]
    neg, neg_double = _positive_count(flipped, max_bits=max_bits)
    return RootCountReport(
        negative=neg,
        zero=1 if alpha > 0 else 0,
        positive=pos,
        positive_double=pos_double,
        negative_double=neg_double,
        zero_multiplicity=alpha,
    )


# ---------------------------------------------------------------------------
# critical point

def _cmp_pow2(e: int, r: Fraction) -> int:
    """sign(2**e - r) for rational r > 0, without building 2**e when huge."""
    p, q = r.numerator, r.denominator
    if p <= 0:
        raise DomainError("cmp_pow2 expects a positive rational")
    b = p.bit_length() - q.bit_length()  # log2(r) lies in (b-1, b+1)
    if e > b + 1:
        return 1
    if e < b - 1:
        return -1
    if e >= 0:
        return _sign((q << e) - p)
    return _sign(q - (p << (-e)))


def _cmp_power_vs_ratio(x: Fraction, k: int, ratio: Fraction,
                        *, max_bits: int = PRECISION_CAP_DEFAULT) -> int:
    """sign(x**k - ratio) for x, ratio > 0, decided in log space when needed."""
    if k * (x.numerator.bit_length() + x.denominator.bit_length()) <= 4096:
        return _sign(pow_rat(x, k) - ratio)
    form = LinearFormInLogs.from_terms([(x, k), (ratio, -1)])
    return sign_linear_form(form, max_bits=max_bits)


def _bracket_power_root(ratio: Fraction, k: int, width: Fraction,
                        *, max_bits: int = PRECISION_CAP_DEFAULT) -> DyadicInterval:
    """Dyadic interval of width <= width around ratio**(1/k)."""
    if ratio <= 0 or k < 1 or width <= 0:
        raise DomainError("bad power-root bracket request")
    # locate n with 2**(n*k) <= ratio < 2**((n+1)*k)
    approx = (ratio.numerator.bit_length() - ratio.denominator.bit_length())
    center = approx // k
    n = None
    for cand in range(center - 2, center + 3):
        if _cmp_pow2(cand * k, ratio) <= 0 and _cmp_pow2((cand + 1) * k, ratio) > 0:
            n = cand
            break
    if n is None:
        raise AssertionError("power-of-two bracket search failed")
    if _cmp_pow2(n * k, ratio) == 0:
        d = Dyadic(1, n)
        return DyadicInterval(d, d, 64)
    # bisection on [2**n, 2**(n+1)]
    lo, hi = Dyadic(1, n), Dyadic(1, n + 1)
    while dy_cmp_fraction(_width_exact(lo, hi), width) > 0:
        mid = dy_half_sum(lo, hi)
        c = _cmp_power_vs_ratio(mid.as_fraction(), k, ratio, max_bits=max_bits)
        if c == 0:
            return DyadicInterval(mid, mid, 64)
        if c < 0:
            lo = mid
        else:
            hi = mid
    return DyadicInterval(lo, hi, 64)


def _width_exact(lo: Dyadic, hi: Dyadic) -> Dyadic:
    return dy_add_exact(hi, -lo)


@dataclass(frozen=True)
class CriticalPoint:
    """The unique positive zero m = ratio**(1/root_index) of the derivative.

    ``fm_sign`` is the exact sign of the trinomial at m, decided through the
    discriminant comparison, never by numeric evaluation of the irrational m.
    """

    ratio: Fraction
    root_index: int
    fm_sign: int

    def bracket(self, width: Fraction,
                *, max_bits: int = PRECISION_CAP_DEFAULT) -> DyadicInterval:
        return _bracket_power_root(self.ratio, self.root_index, Fraction(width),
                                   max_bits=max_bits)


def critical_point(f: Trinomial,
                   *, max_bits: int = PRECISION_CAP_DEFAULT) -> Optional[CriticalPoint]:
    """Critical point of a stripped trinomial, or None when none is positive.

    The derivative beta*b x^(beta-1) + gamma*c x^(gamma-1) has a positive
    zero exactly when b and c have opposite signs.
    """
    if f.alpha != 0:
        raise DomainError("critical_point requires the stripped form (alpha = 0)")
    if _sign(f.b) == _sign(f.c):
        return None
    ratio = Fraction(abs(f.b) * f.beta, abs(f.c) * f.gamma)
    k = f.gamma - f.beta
    if _sign(f.b) == _sign(f.a):
        fm = _sign(f.a)
    else:
        cmp = _discriminant_comparison(f.a, f.b, f.c, f.beta, f.gamma,
                                       max_bits=max_bits)
        if cmp is Ordering.EQUAL:
            fm = 0
        elif cmp is Ordering.GREATER:
            fm = _sign(f.a)
        else:
            fm = -_sign(f.a)
    return CriticalPoint(ratio=ratio, root_index=k, fm_sign=fm)


# ---------------------------------------------------------------------------
# magnitude bounds

def cauchy_bounds(f: SparsePoly) -> Tuple[Fraction, Fraction]:
    """Annulus containing every nonzero complex root.

    With M the largest coefficient magnitude of the stripped polynomial,
    every nonzero root x satisfies 1/(M+1) <= |x| <= M+1.
    """
    m = max(abs(c) for c, _ in f.terms())
    return Fraction(1, m + 1), Fraction(m + 1)


def derivative_sup_bound(f: Trinomial) -> int:
    """b**2 * beta dominates sup |f'| on [0, m] when gamma >= 2*beta.

    The exponent condition is essential; callers outside it must switch to
    the reciprocal polynomial first.
    """
    if f.alpha != 0:
        raise DomainError("derivative_sup_bound requires alpha = 0")
    if f.gamma < 2 * f.beta:
        raise DomainError("derivative_sup_bound requires gamma >= 2*beta")
    if _sign(f.b) == _sign(f.c):
        raise DomainError("derivative has no positive zero (b, c same sign)")
    return f.b * f.b * f.beta


# ---------------------------------------------------------------------------
# separation bounds

def separation_bound_real(f: Union[Trinomial, Binomial]) -> SeparationBound:
    """log of a certified lower bound on |x1 - x2| over distinct real roots."""
    if isinstance(f, Binomial):
        return separation_bound_binomial(f)
    s = _s_param(f)
    return SeparationBound(-LEDGER["C_real"] * s ** 3, "real", "C_real")


def separation_bound_complex(f: Union[Trinomial, Binomial]) -> SeparationBound:
    """Same bound shape for all pairs of distinct complex roots."""
    if isinstance(f, Binomial):
        return separation_bound_binomial(f)
    s = _s_param(f)
    return SeparationBound(-LEDGER["C_complex"] * s ** 3, "complex", "C_complex")


def separation_bound_binomial(f: Binomial) -> SeparationBound:
    """Chord bound for binomials: nonzero roots sit evenly on a circle.

    For k = gamma - beta >= 2 adjacent nonzero roots are at least
    (1/|c|) * sqrt(2 (1 - cos(2 pi / k))) apart; when 0 is also a root
    (beta >= 1) the distance from the origin to the circle, |b/c|**(1/k),
    must be folded in as well -- for small k the chord alone overshoots it.
    """
    k = f.gamma - f.beta
    absb, absc = abs(f.b), abs(f.c)
    candidates: List[Fraction] = []
    if k >= 2:
        prec = 160 + 2 * k.bit_length()
        if k == 2:
            chord_sq_lo = Fraction(4)  # 2(1 - cos pi) exactly
        else:
            pi_lo, pi_hi = pi_bounds(prec)
            theta_lo = 2 * pi_lo / k
            cos_hi = cos_bounds(theta_lo, prec)[1]
            chord_sq_lo = 2 * (1 - cos_hi)
            if chord_sq_lo <= 0:
                raise AssertionError("cosine enclosure too coarse")
        t_chord = ln_lower(chord_sq_lo, 192) / 2 - ln_upper(absc, 192)
        candidates.append(t_chord)
    if f.beta >= 1:
        t_origin = (ln_lower(absb, 192) - ln_upper(absc, 192)) / k
        candidates.append(t_origin)
    log_bound = min(candidates) if candidates else Fraction(0)
    return SeparationBound(log_bound, "binomial", "binomial-chord")


def binomial_min_lower_bound(a1: int, a2: int, beta: Fraction,
                             x: Fraction) -> BinomialFloor:
    """Floor for |a1 * x**beta + a2| at a rational x > 0, when nonzero.

    Returns -C1 * t * s**2 in log space with s, t computed from the actual
    operands; ``is_zero`` marks the one case the floor cannot certify.
    """
    beta = Fraction(beta)
    x = Fraction(x)
    if a1 == 0 or a2 == 0:
        raise DomainError("binomial coefficients must be nonzero")
    if beta <= 0 or x <= 0:
        raise DomainError("binomial floor needs beta > 0 and x > 0")
    b1, b2 = beta.numerator, beta.denominator
    s = clamp_one(max(log_upper(x.numerator), log_upper(x.denominator),
                      log_upper(abs(a1)), log_upper(abs(a2))))
    t = clamp_one(max(log_upper(b1), log_upper(b2)))
    log_bound = -LEDGER["C1"] * t * s ** 2
    is_zero = False
    if _sign(a1) != _sign(a2):
        # a1 x^beta = -a2  <=>  b1 ln x + b2 ln(|a1|/|a2|) = 0
        form = LinearFormInLogs.from_terms(
            [(x, b1), (Fraction(abs(a1), abs(a2)), b2)])
        is_zero = linear_form_is_zero(form)
    return BinomialFloor(log_bound=log_bound, is_zero=is_zero)


# ---------------------------------------------------------------------------
# exact sign at a rational point

def sign_at_rational(f: SparsePoly, x: Fraction,
                     *,
                     interval_bits_cap: int = 8192,
                     exact_budget_bits: int = 1 << 25,
                     start_bits: int = 0) -> int:
    """Exact sign of f(x) at a rational point.

    Adaptive interval evaluation first; if the enclosure still straddles
    zero at ``interval_bits_cap`` bits (in particular whenever f(x) = 0),
    fall back to exact rational evaluation, whose bit size is worst-case
    exponential in the sparse encoding -- hence the explicit budget.
    """
    x = Fraction(x)
    terms = list(f.terms())
    if x == 0:
        return _sign(terms[0][0]) if terms[0][1] == 0 else 0
    if x < 0:
        terms = [(c if e % 2 == 0 else -c, e) for c, e in terms]
        x = -x
    return _sign_at_positive(terms, x,
                             interval_bits_cap=interval_bits_cap,
                             exact_budget_bits=exact_budget_bits,
                             start_bits=start_bits)


def _sign_at_positive(terms, x: Fraction, *, interval_bits_cap: int,
                      exact_budget_bits: int, start_bits: int) -> int:
    gamma = max(e for _, e in terms)
    xbits = x.numerator.bit_length() + x.denominator.bit_length()
    cbits = max(abs(c).bit_length() for c, _ in terms)
    est = gamma * xbits + cbits + 8
    if est <= 4096:
        return _sign(_exact_numerator(terms, x, gamma))
    if start_bits <= 0:
        start_bits = 32 + cbits
    try:
        iv = refine(lambda bits: _poly_interval(terms, x, bits),
                    SIGN_DETERMINED,
                    start_bits=start_bits, max_bits=interval_bits_cap)
        return iv.sign()
    except BudgetExceededError:
        if est > exact_budget_bits:
            raise BudgetExceededError(
                f"exact evaluation needs about {est} bits "
                f"(budget {exact_budget_bits})")
        return _sign(_exact_numerator(terms, x, gamma))


def _exact_numerator(terms, x: Fraction, gamma: int) -> int:
    p, q = x.numerator, x.denominator
    return sum(c * p ** e * q ** (gamma - e) for c, e in terms)


def _poly_interval(terms, x: Fraction, bits: int) -> DyadicInterval:
    X = DyadicInterval.from_fraction(x, bits)
    acc = DyadicInterval(DY_ZERO, DY_ZERO, bits)
    for c, e in terms:
        acc = acc.add(X.pow_int(e).mul_int(c))
    return acc


# ---------------------------------------------------------------------------
# text formats

def parse_terms(text: str) -> List[Tuple[int, int]]:
    """Parse 'coeff,exp;coeff,exp;...' with decimal big integers."""
    out = []
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad term {chunk!r} (want 'coeff,exp')")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad integer in term {chunk!r}") from exc
    if not out:
        raise ParseError("no terms given")
    return out


def format_terms(f: SparsePoly) -> str:
    return ";".join(f"{c},{e}" for c, e in f.terms())
