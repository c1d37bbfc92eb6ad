"""Seeded corpora and requests for the two benchmark workloads.

Every workload is a stream of *rounds*.  A round is a fixed, stratified list
of instance kinds (family and size class); only the values inside each kind
are drawn from the seeded generator.  A run therefore always sees the same
mix of work, whatever the seed, and whole rounds keep that mix exact.

An ``Instance`` carries what the request needs (``args``) and what the
referee needs (``meta``: the construction that makes the answer known).
Requests call the public ``trisep`` API through attribute lookup at call
time, so the trace wrappers installed on the package namespace see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import trisep

Terms = Tuple[Tuple[int, int], ...]

DESK_MAX_EXP = 500
DESK_MAX_COEFF = 10 ** 6
ISOLATE_DESK_WIDTH = Fraction(1, 2 ** 30)
NEAR_DOUBLE_WIDTH = Fraction(1, 2 ** 30)

# Sign patterns (a, b, c) of a trinomial; a desk round cycles through all
# eight, so every run has the same share of each.
SIGN_PATTERNS = [(sa, sb, sc) for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)]


@dataclass
class Instance:
    family: str
    args: tuple
    meta: Dict = field(default_factory=dict)

    def key(self) -> int:
        """Hash of the inputs; equal inputs give equal keys in every process."""
        return hash(self.args)


def make_poly(terms: Terms):
    """Trinomial or Binomial from (coeff, exp) pairs with increasing exps."""
    if len(terms) == 3:
        (a, al), (b, be), (c, ga) = terms
        return trisep.Trinomial(a, b, c, al, be, ga)
    (b, be), (c, ga) = terms
    return trisep.Binomial(b, c, be, ga)


# ---------------------------------------------------------------------------
# families

def desk_terms(rng: random.Random, signs) -> Terms:
    """Exponents <= 500, coefficients <= 10^6, the given sign pattern."""
    exps = sorted(rng.sample(range(DESK_MAX_EXP + 1), 3))
    return tuple((s * rng.randint(1, DESK_MAX_COEFF), e)
                 for s, e in zip(signs, exps))


def copy_terms(rng: random.Random, src: Terms) -> Tuple[Terms, int]:
    """f(x^k) of a desk trinomial, odd k, coefficients times lam <= 2^256.

    Odd k keeps the sign of x and lam > 0 keeps the roots, so the copy has
    the counts of its source.  Exponents reach about 10^18.
    """
    gamma = src[-1][1]
    k = rng.randrange(10 ** 18 // (2 * gamma), 10 ** 18 // gamma) | 1
    lam = rng.randint(2, 2 ** 256)
    return tuple((c * lam, e * k) for c, e in src), k


def tie_terms(rng: random.Random) -> Tuple[Terms, int, int, int]:
    """(d - c x^beta)^2: one exact double root at (d/c)^(1/beta)."""
    beta = rng.randint(10 ** 17, 5 * 10 ** 17)
    c = rng.randint(2 ** 100, 2 ** 127)
    d = rng.randint(2 ** 100, 2 ** 127)
    return ((d * d, 0), (-2 * c * d, beta), (c * c, 2 * beta)), c, d, beta


def binomial_terms(rng: random.Random) -> Terms:
    beta = rng.randint(0, DESK_MAX_EXP - 2)
    gamma = rng.randint(beta + 2, DESK_MAX_EXP)
    return ((rng.choice((-1, 1)) * rng.randint(1, DESK_MAX_COEFF), beta),
            (rng.choice((-1, 1)) * rng.randint(1, DESK_MAX_COEFF), gamma))


def near_double_terms(rng: random.Random, bits: int, beta_lo: int) -> Terms:
    """c^2 - (2cd+1) x^beta + d^2 x^(2 beta), odd beta: two positive roots
    very close together and no negative one."""
    c = rng.randint(2 ** (bits - 1), 2 ** bits)
    d = rng.randint(2 ** (bits - 1), 2 ** bits)
    beta = rng.randint(beta_lo, 2 * beta_lo) | 1
    return ((c * c, 0), (-(2 * c * d + 1), beta), (d * d, 2 * beta))


def deep_terms(rng: random.Random) -> Terms:
    """a - b x^beta + c x^(3 beta + odd) with even beta ~ 10^12, a - b + c < 0.

    The variants of 1 - 3x^(10^12) + x^(3*10^12 + 7); f(1) < 0 forces two
    positive roots, both close to 1, and f(-x) has one more.
    """
    a = rng.randint(1, 4)
    c = rng.randint(1, 4)
    b = rng.randint(a + c + 1, a + c + 4)
    beta = 10 ** 12 + 2 * rng.randint(0, 10 ** 9)
    gamma = 3 * beta + 2 * rng.randint(0, 8) + 1
    return ((a, 0), (-b, beta), (c, gamma))


# ---------------------------------------------------------------------------
# rounds

def count_round(rng: random.Random) -> List[Instance]:
    """8 desk trinomials, a copy of each, 3 ties and 1 binomial (5 %)."""
    desk = [desk_terms(rng, signs) for signs in SIGN_PATTERNS]
    out = [Instance("desk", (terms,)) for terms in desk]
    for src in desk:
        terms, k = copy_terms(rng, src)
        out.append(Instance("copy", (terms,), {"source": src, "k": k}))
    for _ in range(3):
        terms, c, d, beta = tie_terms(rng)
        out.append(Instance("tie", (terms,), {"c": c, "d": d, "beta": beta}))
    out.append(Instance("binomial", (binomial_terms(rng),)))
    return out


def isolate_desk_round(rng: random.Random) -> List[Instance]:
    return [Instance("desk", (desk_terms(rng, signs), ISOLATE_DESK_WIDTH))
            for signs in SIGN_PATTERNS]


# (bits of c and d, lower end of the beta range).  Sizes are set for run
# length: 0.1 to 0.8 s per request on this code.
NEAR_DOUBLE_CLASSES = [(32, 1000), (32, 100_000), (48, 10_000), (48, 1_000_000),
                       (64, 1000), (64, 100_000), (80, 1000)]
DEEP_WIDTH_BITS = [100, 160]


def isolate_hard_round(rng: random.Random) -> List[Instance]:
    out = []
    for bits, beta_lo in NEAR_DOUBLE_CLASSES:
        terms = near_double_terms(rng, bits, beta_lo)
        out.append(Instance(f"near-double-{bits}", (terms, NEAR_DOUBLE_WIDTH)))
    for wbits in DEEP_WIDTH_BITS:
        out.append(Instance(f"deep-{wbits}", (deep_terms(rng), Fraction(1, 2 ** wbits))))
    return out


# Three desk rounds to one hard round: desk requests are three quarters of
# the requests (the median is a desk isolation) and hard ones most of the
# time (the tail and the throughput are set by hard isolation).
ISOLATE_DESK_ROUNDS = 3


def isolate_round(rng: random.Random) -> List[Instance]:
    out = []
    for _ in range(ISOLATE_DESK_ROUNDS):
        out.extend(isolate_desk_round(rng))
    return out + isolate_hard_round(rng)


# ---------------------------------------------------------------------------
# requests; each returns plain data for the referee

def count_request(terms: Terms):
    """count_real_roots plus the bound ``trisep sep`` returns (kind real)."""
    f = make_poly(terms)
    report = trisep.count_real_roots(f)
    bound = trisep.separation_bound_real(f)
    return report, bound


def count_answer(result):
    report, bound = result
    return {"negative": report.negative, "zero": report.zero,
            "positive": report.positive,
            "positive_double": report.positive_double,
            "negative_double": report.negative_double,
            "zero_multiplicity": report.zero_multiplicity,
            "bound_kind": bound.kind, "log_bound": Fraction(bound.log_bound)}


def isolate_request(terms: Terms, width: Fraction):
    return trisep.isolate_real_roots(make_poly(terms), width)


def isolate_answer(report):
    return [(r.interval.lo.as_fraction(), r.interval.hi.as_fraction(),
             r.certificate, r.root_sign) for r in report.intervals]


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[random.Random], List[Instance]]
    request: Callable
    answer: Callable


WORKLOADS = {
    "count": Workload("count", count_round, count_request, count_answer),
    "isolate": Workload("isolate", isolate_round, isolate_request, isolate_answer),
}


class SeenFilter:
    """Keys already sent in a run, as a Bloom filter of fixed size.

    It never forgets a key, so no instance repeats.  A false positive only
    makes the stream draw again, which keeps it a function of the seed.  The
    bits are all written up front, so the filter's memory is resident from
    the start and does not grow with the number of requests.
    """

    BITS = 1 << 23

    def __init__(self):
        self.bits = bytearray(b"\0") * (self.BITS // 8)

    def _slots(self, key: int):
        u = key & 0xFFFF_FFFF_FFFF_FFFF
        return (u % self.BITS, (u >> 32) % self.BITS)

    def __contains__(self, key: int) -> bool:
        return all(self.bits[i >> 3] >> (i & 7) & 1 for i in self._slots(key))

    def add(self, key: int) -> None:
        for i in self._slots(key):
            self.bits[i >> 3] |= 1 << (i & 7)


class Stream:
    """Rounds from one seeded generator; no instance repeats within a run.

    ``seen`` holds the keys of the warm-up and the timed stream of one run.
    A key already there is replaced by a fresh draw of the same family,
    which keeps the stream a function of the seed.
    """

    def __init__(self, workload: Workload, seed: int, label: str, seen: SeenFilter):
        self.workload = workload
        self.rng = random.Random(f"trisep-perfbench:{workload.name}:{label}:{seed}")
        self.seen = seen

    def next_round(self) -> List[Instance]:
        out = []
        for inst in self.workload.round(self.rng):
            while inst.key() in self.seen:
                inst = self._redraw(inst)
            self.seen.add(inst.key())
            out.append(inst)
        return out

    def _redraw(self, inst: Instance) -> Instance:
        while True:
            for cand in self.workload.round(self.rng):
                if cand.family == inst.family and cand.key() not in self.seen:
                    return cand
