"""Independent referees; they run after the timed loop, never inside it.

No referee calls the trisep code it checks.  Counts come from the Sturm
oracle (dense Sturm chains, shared with nothing in the sparse counting
path) or from the construction of the instance.  Isolation endpoints are
evaluated exactly with Python integers up to degree 2000 and with mpmath
at adaptive precision above that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import mpmath

from trisep.oracle import SturmOracle

Terms = Tuple[Tuple[int, int], ...]

EXACT_DEGREE_MAX = 2000
MP_PREC_MAX = 1 << 16


class RefereeError(Exception):
    """An answer disagrees with its referee (or the referee cannot decide)."""


def _sign(n) -> int:
    return (n > 0) - (n < 0)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RefereeError(what)


# ---------------------------------------------------------------------------
# exact and high-precision evaluation

def _exact_sign(terms: Terms, x: Fraction) -> int:
    """sign f(x) with integers: f(p/q) * q^deg."""
    deg = terms[-1][1]
    p, q = x.numerator, x.denominator
    return _sign(sum(c * p ** e * q ** (deg - e) for c, e in terms))


def _mp_sign(terms: Terms, x: Fraction) -> int:
    """sign f(x) with mpmath, raising precision until the error bound clears.

    x is dyadic, so it is exact in mpmath once the precision covers its
    numerator.  Each term x^e is off by a relative 2^(bits(e) + 2 - prec) at
    most (binary powering), the sum by one more rounding per term.
    """
    p, q = x.numerator, x.denominator
    emax = max(e for _, e in terms)
    prec = max(256, 2 * p.bit_length() + 64)
    while prec <= MP_PREC_MAX:
        with mpmath.workprec(prec):
            xm = mpmath.mpf(p) / q
            vals = [mpmath.mpf(c) * xm ** e for c, e in terms]
            total = mpmath.fsum(vals)
            mag = mpmath.fsum(abs(v) for v in vals)
            err = mag * mpmath.ldexp(1, emax.bit_length() + 8 - prec)
            if abs(total) > err:
                return 1 if total > 0 else -1
        prec *= 4
    raise RefereeError(f"mpmath could not fix the sign at {x} by {MP_PREC_MAX} bits")


def poly_sign(terms: Terms, x: Fraction) -> int:
    """Exact sign of f at a rational point (a zero is only proved exactly)."""
    if terms[-1][1] <= EXACT_DEGREE_MAX:
        return _exact_sign(terms, x)
    return _mp_sign(terms, x)


# ---------------------------------------------------------------------------
# counts

@lru_cache(maxsize=64)
def expected_counts_sturm(terms: Terms) -> Dict[str, int]:
    """negative/zero/positive distinct real roots from a Sturm chain.

    Cached because a desk trinomial and its copy, in one round, share it.
    """
    alpha = terms[0][1]
    stripped = tuple((c, e - alpha) for c, e in terms)
    oracle = SturmOracle(dict((e, c) for c, e in stripped))
    total = oracle.distinct_real_roots()
    positive = oracle.count_in(Fraction(0), oracle.root_box())
    return {"negative": total - positive, "zero": int(alpha > 0), "positive": positive}


def _check_counts(answer: dict, want: Dict[str, int]) -> None:
    for key, val in want.items():
        _require(answer[key] == val, f"{key}: got {answer[key]}, referee {val}")


def _ln_gap_ok(log_bound: Fraction, gap: mpmath.mpf) -> bool:
    with mpmath.workprec(256):
        return mpmath.mpf(log_bound.numerator) / log_bound.denominator \
            <= mpmath.log(gap) + mpmath.ldexp(1, -200)


def check_count(inst, answer: dict) -> None:
    terms = inst.args[0]
    fam = inst.family
    if fam == "desk":
        _check_counts(answer, expected_counts_sturm(terms))
        _require(answer["zero_multiplicity"] == terms[0][1], "zero multiplicity")
    elif fam == "copy":
        # f(x^k) with odd k and a positive scale has its source's counts
        src = inst.meta["source"]
        _check_counts(answer, expected_counts_sturm(src))
        _require(answer["zero_multiplicity"] == src[0][1] * inst.meta["k"],
                 "zero multiplicity")
    elif fam == "tie":
        even = inst.meta["beta"] % 2 == 0
        want = {"positive": 1, "positive_double": True, "zero": 0,
                "negative": int(even), "negative_double": even}
        _check_counts(answer, want)
        if even:
            # the only distinct roots are +r and -r, r = (d/c)^(1/beta)
            with mpmath.workprec(256):
                r = mpmath.root(mpmath.mpf(inst.meta["d"]) / inst.meta["c"],
                                inst.meta["beta"])
                _require(_ln_gap_ok(answer["log_bound"], 2 * r),
                         "separation bound above the root gap")
    elif fam == "binomial":
        (b, beta), (c, gamma) = terms
        k = gamma - beta
        pos = int(_sign(b) != _sign(c))
        neg = int(_sign(b) != _sign(c) * (-1) ** k)
        _check_counts(answer, {"positive": pos, "negative": neg,
                               "zero": int(beta > 0), "positive_double": False,
                               "negative_double": False})
        _require(answer["zero_multiplicity"] == beta, "zero multiplicity")
        _require(answer["bound_kind"] == "binomial", "binomial sep uses the chord bound")
        with mpmath.workprec(256):
            r = mpmath.root(mpmath.mpf(abs(b)) / abs(c), k)
            gaps = ([2 * r] if pos and neg else []) + ([r] if beta > 0 and (pos or neg) else [])
            if gaps:
                _require(_ln_gap_ok(answer["log_bound"], min(gaps)),
                         "separation bound above the root gap")
        return
    else:
        raise RefereeError(f"unknown family {fam}")
    _require(answer["bound_kind"] == "real", "trinomial sep kind")
    _require(answer["log_bound"] < 0, "trinomial log bound must be negative")


# ---------------------------------------------------------------------------
# isolation

def _hard_counts(inst) -> Dict[str, int]:
    """Counts known from the construction of the hard isolation families.

    Both have two positive roots.  Near-double: c^2 - (2cd+1) y + d^2 y^2
    has two positive roots y, its discriminant being 4cd + 1 > 0.  Deep:
    f(0) > 0, f(1) < 0 and f > 0 for large x.  Negative roots are the
    positive roots of f(-x), whose coefficient signs change once (deep:
    one root) or never (near-double, odd beta: none).
    """
    terms = inst.args[0]
    signs = [_sign(c) * (-1) ** (e % 2) for c, e in terms]
    changes = sum(1 for u, v in zip(signs, signs[1:]) if u != v)
    _require(changes <= 1, "hard instance outside its family")
    return {"positive": 2, "zero": 0, "negative": changes}


def check_isolation(inst, answer: List[tuple]) -> None:
    terms, width = inst.args
    if inst.family == "desk":
        want = expected_counts_sturm(terms)
    else:
        want = _hard_counts(inst)
    got = {"negative": 0, "zero": 0, "positive": 0}
    for lo, hi, cert, side in answer:
        got[{"neg": "negative", "zero": "zero", "pos": "positive"}[side]] += 1
    _require(got == want, f"root counts {got}, referee {want}")
    prev_hi: Optional[Fraction] = None
    for lo, hi, cert, side in answer:
        _require(lo <= hi and hi - lo <= width, f"width of [{lo}, {hi}]")
        _require(prev_hi is None or prev_hi < lo, "intervals overlap")
        prev_hi = hi
        _require((side == "neg" and hi < 0) or (side == "pos" and lo > 0)
                 or (side == "zero" and lo == hi == 0), f"{side} root at [{lo}, {hi}]")
        if cert == "sign-change":
            s_lo, s_hi = poly_sign(terms, lo), poly_sign(terms, hi)
            _require(s_lo * s_hi == -1, f"no sign change on [{lo}, {hi}]")
        elif cert == "exact-rational-root":
            _require(lo == hi and terms[-1][1] <= EXACT_DEGREE_MAX
                     and _exact_sign(terms, lo) == 0, f"{lo} is not a root")
        elif cert == "double-root" and inst.family == "desk":
            oracle = SturmOracle(dict((e, c) for c, e in terms))
            _require(oracle.count_in(lo, hi) == 1 and poly_sign(terms, lo) == poly_sign(terms, hi),
                     f"double root not certified on [{lo}, {hi}]")
        else:
            raise RefereeError(f"unexpected certificate {cert} for {inst.family}")


CHECKS = {
    "count": check_count,
    "isolate": check_isolation,
}


def check(workload: str, inst, answer) -> None:
    """Referee one answer; a disagreement names the instance."""
    try:
        CHECKS[workload](inst, answer)
    except RefereeError as exc:
        raise RefereeError(f"{workload} {inst.family} {inst.args}: {exc}") from None
