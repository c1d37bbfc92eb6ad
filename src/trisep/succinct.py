"""Exact comparison of succinct integers (signed products of integer powers).

Equality is decided structurally: the exponent vectors of both sides over a
shared coprime (gcd-free) basis either match or they do not.  Only after a
nonzero difference is certain does the adaptive-precision path evaluate the
corresponding linear form in logarithms, doubling the precision up to a cap;
a nonzero form that needs more than the cap raises BudgetExceededError.  The
Baker-Wustholz floor is computed for every form, but the precision it
certifies (``BakerFloor.required_bits``) lies far above the default cap of
2**20 bits, so it bounds no decision.  The numeric path never has to decide
the zero case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from .bigmath import (
    PRECISION_CAP_DEFAULT,
    ln_interval,
    refine_sign,
)
from .constants import LN2_LB, baker_constant, clamp_one, log_upper
from .dyadic import DyadicInterval, DY_ZERO
from .errors import DomainError, ParseError


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1

    @property
    def text(self) -> str:
        return self.name.title()


# ---------------------------------------------------------------------------
# coprime (gcd-free) basis

def coprime_basis(ints: Sequence[int]) -> Tuple[List[int], List[List[int]]]:
    """Pairwise-coprime basis over which every input factors exactly.

    Returns (basis, rows): basis is sorted ascending and pairwise coprime;
    rows[i] are nonnegative exponents with ints[i] = prod basis[j]**rows[i][j].
    Iterated gcd splitting with a fixed processing order keeps the output
    deterministic.  No integer factorization is attempted.
    """
    for v in ints:
        if v < 2:
            raise DomainError("coprime_basis inputs must be >= 2")
    work = sorted(set(ints))
    while True:
        pair = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                g = gcd(work[i], work[j])
                if g > 1:
                    pair = (work[i], work[j], g)
                    break
            if pair:
                break
        if pair is None:
            break
        a, b, g = pair
        pieces = {g, a // g, b // g}
        pieces.discard(1)
        work = sorted((set(work) - {a, b}) | pieces)
    basis = work
    rows = []
    for n in ints:
        rem = n
        row = []
        for b in basis:
            e = 0
            while rem % b == 0:
                rem //= b
                e += 1
            row.append(e)
        if rem != 1:
            raise AssertionError("input failed to factor over its own basis")
        rows.append(row)
    return basis, rows


# ---------------------------------------------------------------------------
# succinct integers

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True)
class SuccinctInt:
    """sign * prod base_i ** exp_i with bases >= 2 and exponents >= 1.

    Construction normalizes away trivial factors (base 1 or exponent 0);
    sign 0 means the value 0 and carries no factors.  Bases need not be
    coprime or sorted.
    """

    sign: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError("sign must be -1, 0 or 1")
        kept = []
        for base, exp in self.factors:
            if base <= 0:
                raise DomainError("factor bases must be positive")
            if exp < 0:
                raise DomainError("factor exponents must be nonnegative")
            if base == 1 or exp == 0:
                continue
            kept.append((base, exp))
        if self.sign == 0 and kept:
            raise DomainError("the zero value carries no factors")
        object.__setattr__(self, "factors", tuple(kept))

    @staticmethod
    def from_int(n: int) -> "SuccinctInt":
        if n == 0:
            return SuccinctInt(0, ())
        mag = abs(n)
        factors = ((mag, 1),) if mag >= 2 else ()
        return SuccinctInt(1 if n > 0 else -1, factors)

    @staticmethod
    def parse(text: str) -> "SuccinctInt":
        s = text.strip().replace(" ", "")
        if not s:
            raise ParseError("empty succinct-integer literal")
        sign = 1
        if s[0] in "+-":
            sign = -1 if s[0] == "-" else 1
            s = s[1:]
        if s == "0":
            if sign < 0:
                raise ParseError("zero takes no sign")
            return SuccinctInt(0, ())
        if s == "1":
            return SuccinctInt(sign, ())
        factors = []
        for chunk in s.split("*"):
            m = _FACTOR_RE.match(chunk)
            if not m:
                raise ParseError(f"bad factor {chunk!r} in {text!r}")
            base = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if base == 0:
                raise ParseError("factor base 0 is not allowed")
            factors.append((base, exp))
        return SuccinctInt(sign, tuple(factors))

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        body = "*".join(f"{b}^{e}" for b, e in self.factors) if self.factors else "1"
        return ("-" if self.sign < 0 else "") + body

    def __mul__(self, other: "SuccinctInt") -> "SuccinctInt":
        if self.sign == 0 or other.sign == 0:
            return SuccinctInt(0, ())
        return SuccinctInt(self.sign * other.sign, self.factors + other.factors)

    def log2_upper(self) -> int:
        """Upper bound on the bit size of the expanded magnitude."""
        return sum(e * b.bit_length() for b, e in self.factors)

    def value(self, max_bits: int = 1 << 22) -> int:
        """Expand to an ordinary integer; guarded by a size budget."""
        from .errors import BudgetExceededError

        if self.log2_upper() > max_bits:
            raise BudgetExceededError(
                f"expansion would exceed {max_bits} bits")
        v = 1
        for b, e in self.factors:
            v *= b ** e
        return self.sign * v


# ---------------------------------------------------------------------------
# linear forms in logarithms

@dataclass(frozen=True)
class LinearFormInLogs:
    """sum b_i * ln(a_i) with rational a_i > 0 and integer b_i.

    ``s`` bounds ln of every numerator and denominator, ``t`` bounds
    ln|b_i|; both are clamped up to 1.  Rational a_i stay single terms
    (splitting them into integer logarithms would square the s factor in
    the floor for nothing).
    """

    terms: Tuple[Tuple[Fraction, int], ...]
    s: Fraction
    t: Fraction

    @property
    def n(self) -> int:
        return len(self.terms)

    @staticmethod
    def from_terms(terms: Iterable[Tuple[Fraction, int]]) -> "LinearFormInLogs":
        kept = []
        s_raw = Fraction(0)
        t_raw = Fraction(0)
        for a, b in terms:
            a = Fraction(a)
            if a <= 0:
                raise DomainError("linear-form bases must be positive")
            if b == 0 or a == 1:
                continue
            kept.append((a, b))
            s_raw = max(s_raw, log_upper(max(a.numerator, a.denominator)))
            t_raw = max(t_raw, log_upper(abs(b)))
        return LinearFormInLogs(tuple(kept), clamp_one(s_raw), clamp_one(t_raw))


@dataclass(frozen=True)
class BakerFloor:
    """Termination certificate: if the form is nonzero, ln|Lambda| >= log_floor."""

    n: int
    constant: Fraction
    log_floor: Fraction

    @property
    def required_bits(self) -> int:
        """Precision that provably suffices to separate the form from zero."""
        if self.log_floor >= 0:
            return 8
        return int((-self.log_floor) / LN2_LB) + 2


def baker_floor(form: LinearFormInLogs) -> BakerFloor:
    """Termination certificate -C(n)*t*s^n for the form, as an exact rational."""
    n = max(form.n, 1)
    c = baker_constant(n)
    return BakerFloor(n, c, -c * form.t * form.s ** n)


def _exponent_vector(form: LinearFormInLogs) -> List[int]:
    """Combined exponent vector of prod a_i**b_i over a coprime basis."""
    values = sorted({v for a, _ in form.terms
                     for v in (a.numerator, a.denominator) if v >= 2})
    if not values:
        return []
    basis, rows = coprime_basis(values)
    rowmap = {v: rows[i] for i, v in enumerate(values)}
    vec = [0] * len(basis)
    for a, b in form.terms:
        for v, w in ((a.numerator, b), (a.denominator, -b)):
            if v >= 2:
                row = rowmap[v]
                for idx in range(len(basis)):
                    if row[idx]:
                        vec[idx] += w * row[idx]
    return vec


def linear_form_is_zero(form: LinearFormInLogs) -> bool:
    """Exact zero test: holds iff prod a_i**b_i = 1 as rational numbers."""
    return all(v == 0 for v in _exponent_vector(form))


def _form_interval(form: LinearFormInLogs, bits: int) -> DyadicInterval:
    acc = DyadicInterval(DY_ZERO, DY_ZERO, bits)
    for a, b in form.terms:
        acc = acc.add(ln_interval(a, bits).mul_int(b))
    return acc


def sign_linear_form_ex(form: LinearFormInLogs,
                        *,
                        max_bits: int = PRECISION_CAP_DEFAULT
                        ) -> Tuple[int, bool, BakerFloor]:
    """(sign, used_numeric_refinement, floor) for the exact sign of the form.

    The zero case is decided structurally first; the numeric path only ever
    certifies a nonzero sign.  The floor's ``required_bits`` is the precision
    that provably suffices; the cap should sit above it for a hard guarantee,
    but any nonzero form met in practice resolves at far lower precision.
    """
    floor = baker_floor(form)
    if not form.terms or linear_form_is_zero(form):
        return 0, False, floor
    start = 32 + max(abs(b).bit_length() for _, b in form.terms)
    _, sgn = refine_sign(lambda bits: _form_interval(form, bits),
                         start_bits=start, max_bits=max_bits)
    return sgn, True, floor


def sign_linear_form(form: LinearFormInLogs,
                     *,
                     max_bits: int = PRECISION_CAP_DEFAULT) -> int:
    """Exact sign of sum b_i ln(a_i)."""
    return sign_linear_form_ex(form, max_bits=max_bits)[0]


# ---------------------------------------------------------------------------
# comparison

def compare_succinct_ex(x: SuccinctInt, y: SuccinctInt,
                        *,
                        max_bits: int = PRECISION_CAP_DEFAULT
                        ) -> Tuple[Ordering, bool]:
    """(ordering, used_numeric_refinement).

    Structurally equal operands (same factorization over the coprime basis)
    come back EQUAL on the exact path alone, never touching refinement.
    """
    if x.sign != y.sign:
        return (Ordering.LESS if x.sign < y.sign else Ordering.GREATER), False
    if x.sign == 0:
        return Ordering.EQUAL, False
    coeffs: Dict[int, int] = {}
    for b, e in x.factors:
        coeffs[b] = coeffs.get(b, 0) + e
    for b, e in y.factors:
        coeffs[b] = coeffs.get(b, 0) - e
    terms = [(Fraction(b), c) for b, c in sorted(coeffs.items()) if c != 0]
    if not terms:
        return Ordering.EQUAL, False
    sgn, refined, _ = sign_linear_form_ex(
        LinearFormInLogs.from_terms(terms), max_bits=max_bits)
    if sgn == 0:
        return Ordering.EQUAL, refined
    if x.sign < 0:
        sgn = -sgn
    return (Ordering.GREATER if sgn > 0 else Ordering.LESS), refined


def compare_succinct(x: SuccinctInt, y: SuccinctInt,
                     *,
                     max_bits: int = PRECISION_CAP_DEFAULT) -> Ordering:
    """Ordering of the exact integer values, without expanding them."""
    return compare_succinct_ex(x, y, max_bits=max_bits)[0]
