"""Interval arithmetic, logarithms, exact powers, and the refinement loop."""

from fractions import Fraction

import mpmath
import pytest

from trisep import (
    BudgetExceededError,
    DomainError,
    Dyadic,
    DyadicInterval,
    SIGN_DETERMINED,
    WidthBelow,
    ln_interval,
    pow_rat,
    refine,
    refine_sign,
)
from trisep.bigmath import _atanh_series, cos_bounds, ln2_interval, pi_bounds
from trisep.dyadic import CEIL, FLOOR, dy_add, dy_cmp, dy_cmp_fraction, dy_from_fraction

# frozen reference: ln 2 to 200 digits from an independent high-precision
# evaluator (mpmath at 210 decimal digits)
LN2_200 = Fraction(
    "0.69314718055994530941723212145817656807550013436025525412068000949339"
    "36219696947156058633269964186875420014810205706857336855202357581305570"
    "3267075163507596193072757082837143519030703862389167347112335"
)


def mp_reference(fn, x: Fraction, prec: int):
    """(fn(x), error bound) from mpmath, which shares no code with trisep.

    mpmath works at 4*prec bits of relative precision, and the argument
    converts exactly; at x = 0 (atanh 0 = 0, cos 0 = 1) the value is exact.
    """
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    with mpmath.workprec(4 * prec + bits + 64):
        y = fn(mpmath.mpf(x.numerator) / x.denominator)
        m, e = y.man_exp  # man_exp drops the sign
    ref = (Fraction(m) if y >= 0 else -Fraction(m)) * Fraction(2) ** e
    return ref, (0 if x == 0 else abs(ref) / 2 ** (4 * prec))


def assert_encloses(lo: Fraction, hi: Fraction, reference):
    """[lo, hi] contains the reference value and its error bound."""
    ref, err = reference
    assert lo <= ref - err and ref + err <= hi, (lo, ref, hi)


class TestDyadic:
    def test_normalization(self):
        assert Dyadic(8, 0) == Dyadic(1, 3)
        assert Dyadic(0, 99) == Dyadic(0, 0)
        assert Dyadic(-12, 1) == Dyadic(-3, 3)

    def test_cmp_across_scales(self):
        # exponents far apart must not trigger huge shifts
        big = Dyadic(1, 2 ** 40)
        small = Dyadic(3, -5)
        assert dy_cmp(big, small) > 0
        assert dy_cmp(-big, small) < 0
        assert dy_cmp(small, small) == 0

    def test_add_across_scales(self):
        big = Dyadic(1, 2 ** 40)
        s = dy_add(big, Dyadic(-2), 64, FLOOR)
        # a lower bound on the exact sum, within one 64-bit ulp of it
        assert dy_cmp(s, big) < 0
        assert big.top - s.top <= 1
        assert dy_cmp(dy_add(s, Dyadic(1, big.top - 64), 64, CEIL), big) >= 0

    def test_directional_rounding_from_fraction(self):
        fr = Fraction(1, 3)
        lo = dy_from_fraction(fr, 40, FLOOR)
        hi = dy_from_fraction(fr, 40, CEIL)
        assert dy_cmp_fraction(lo, fr) < 0 < dy_cmp_fraction(hi, fr)
        assert dy_cmp_fraction(dy_from_fraction(Fraction(3, 2), 40, FLOOR),
                               Fraction(3, 2)) == 0  # dyadic values stay exact

    def test_interval_mul_contains_product(self, rng):
        for _ in range(200):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            X = DyadicInterval.from_fraction(x, 48)
            Y = DyadicInterval.from_fraction(y, 48)
            assert X.mul(Y).contains_fraction(x * y)

    def test_interval_pow(self):
        X = DyadicInterval.from_fraction(Fraction(3, 2), 64)
        P = X.pow_int(10)
        assert P.contains_fraction(Fraction(3, 2) ** 10)
        assert X.pow_int(0).contains_fraction(Fraction(1))

    def test_width_halves_when_precision_doubles(self):
        x = Fraction(10, 7)
        y = Fraction(22, 13)
        for make in (
            lambda p: DyadicInterval.from_fraction(x, p),
            lambda p: DyadicInterval.from_fraction(x, p).mul(
                DyadicInterval.from_fraction(y, p)),
            lambda p: DyadicInterval.from_fraction(x, p).add(
                DyadicInterval.from_fraction(y, p)),
            lambda p: ln_interval(x, p),
        ):
            for p in (16, 32, 64, 128):
                w1 = make(p).width_upper().as_fraction()
                w2 = make(2 * p).width_upper().as_fraction()
                assert w2 * 2 <= w1


class TestLn:
    def test_ln_one_is_zero_width(self):
        iv = ln_interval(Fraction(1), 64)
        assert iv.lo.is_zero and iv.hi.is_zero
        assert iv.width_upper().as_fraction() <= Fraction(1, 2 ** 62)

    def test_ln2_against_frozen_reference(self):
        iv = ln_interval(Fraction(2), 128)
        assert iv.contains_fraction(LN2_200)
        assert iv.width_upper().as_fraction() <= Fraction(1, 2 ** 120)
        # a much deeper evaluation still contains the reference
        deep = ln_interval(Fraction(2), 600)
        assert deep.contains_fraction(LN2_200)

    def test_ln_above_one_is_positive(self):
        iv = ln_interval(Fraction(9, 8), 64)
        assert iv.sign() == 1

    def test_ln_domain_errors(self):
        with pytest.raises(DomainError):
            ln_interval(Fraction(0), 64)
        with pytest.raises(DomainError):
            ln_interval(Fraction(-3, 2), 64)

    def test_width_contract(self, rng):
        # width <= 2^(2-prec) * max(1, |ln x|)
        for _ in range(60):
            x = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
            if x == 0:
                continue
            for prec in (8, 24, 64, 160):
                iv = ln_interval(x, prec)
                w = iv.width_upper().as_fraction()
                scale = max(Fraction(1),
                            abs(iv.lo.as_fraction()), abs(iv.hi.as_fraction()))
                assert w <= Fraction(4, 2 ** prec) * scale

    def test_containment_at_higher_precision(self, rng):
        # the (much tighter) value computed at 4p lies inside the p enclosure
        for _ in range(40):
            x = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            p = rng.choice((8, 16, 48))
            outer = ln_interval(x, p)
            inner = ln_interval(x, 4 * p)
            assert dy_cmp(outer.lo, inner.lo) <= 0
            assert dy_cmp(inner.hi, outer.hi) <= 0

    def test_atanh_series_against_mpmath(self):
        near_third = Fraction(3 ** 200 - 1, 3 ** 201 + 2)  # > 300-bit terms
        assert near_third.denominator.bit_length() >= 300
        for z in (Fraction(0), Fraction(1, 2 ** 200), Fraction(1, 7),
                  Fraction(1, 3), near_third):
            for w in (4, 8, 53, 192, 1000):
                iv = _atanh_series(z, w)
                lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
                assert_encloses(lo, hi, mp_reference(mpmath.atanh, z, w))
                assert hi - lo <= Fraction(4, 2 ** w)

    def test_ln_against_mpmath(self):
        big = 2 ** 256 * 10 ** 18
        xs = [Fraction(n) for n in (2, 3, 10 ** 18 + 9, big - 1, big)]
        xs += [Fraction(1, 3), Fraction(999, 1000), Fraction(1, big),
               Fraction(big - 1, big), Fraction(1001, 1000),
               Fraction(big, 3 ** 40), Fraction(10 ** 18 + 1, 10 ** 18)]
        for x in xs:
            for prec in (4, 8, 53, 192, 1000):
                iv = ln_interval(x, prec)
                assert_encloses(iv.lo.as_fraction(), iv.hi.as_fraction(),
                                mp_reference(mpmath.log, x, prec))

    def test_monotone_refinement(self, rng):
        for _ in range(40):
            x = Fraction(rng.randint(2, 10 ** 6), rng.randint(1, 10 ** 6))
            p = rng.choice((8, 16, 32, 64))
            w1 = ln_interval(x, p).width_upper().as_fraction()
            w2 = ln_interval(x, 2 * p).width_upper().as_fraction()
            assert w2 <= w1


class TestPow:
    def test_examples(self):
        assert pow_rat(Fraction(3, 2), 2) == Fraction(9, 4)
        assert pow_rat(2, 100) == 1267650600228229401496703205376
        assert pow_rat(-1, 7) == -1

    def test_zero_pow_zero(self):
        with pytest.raises(DomainError):
            pow_rat(0, 0)
        with pytest.raises(DomainError):
            pow_rat(Fraction(3, 2), -1)

    def test_repeated_squaring_oracle(self, rng):
        def slow_pow(x, e):
            acc = Fraction(1)
            base = Fraction(x)
            while e:
                if e & 1:
                    acc *= base
                base *= base
                e >>= 1
            return acc

        for _ in range(50):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            if x == 0:
                continue
            e = rng.randint(0, 40)
            assert pow_rat(x, e) == slow_pow(x, e)

    def test_exponent_addition_law(self, rng):
        for _ in range(50):
            x = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            e, f = rng.randint(0, 25), rng.randint(1, 25)
            assert pow_rat(x, e) * pow_rat(x, f) == pow_rat(x, e + f)


class TestRefine:
    def test_sign_of_positive_difference(self):
        iv, sgn = refine_sign(
            lambda b: ln_interval(Fraction(9, 8), b))
        assert sgn == 1 and iv.sign() == 1

    def test_exact_zero_stays_straddling(self):
        # 3 ln 2 - ln 8 is exactly zero: a width target succeeds, the
        # interval still contains zero, and the sign target must fail
        def compute(bits):
            return ln_interval(2, bits).mul_int(3).sub(ln_interval(8, bits))

        iv = refine(compute, WidthBelow(Fraction(1, 2 ** 200)))
        assert iv.contains_zero()
        assert iv.width_upper().as_fraction() < Fraction(1, 2 ** 200)
        with pytest.raises(BudgetExceededError) as err:
            refine(compute, SIGN_DETERMINED, max_bits=2048)
        assert err.value.last_interval is not None

    def test_close_comparison(self):
        # 2^100 vs 10^30: the integer oracle confirms positive
        assert 2 ** 100 > 10 ** 30

        def compute(bits):
            return ln_interval(2, bits).mul_int(100).sub(
                ln_interval(10, bits).mul_int(30))

        _, sgn = refine_sign(compute)
        assert sgn == 1

    def test_budget_carries_last_interval(self):
        def compute(bits):
            return DyadicInterval.from_fraction(Fraction(0), bits).add(
                DyadicInterval.from_fraction_pair(
                    Fraction(-1), Fraction(1), bits))

        with pytest.raises(BudgetExceededError) as err:
            refine(compute, SIGN_DETERMINED, start_bits=8, max_bits=64)
        assert err.value.bits == 64


class TestTrig:
    def test_pi_bounds(self):
        lo, hi = pi_bounds(100)
        ref = Fraction(
            "3.14159265358979323846264338327950288419716939937510582097494")
        assert lo <= ref <= hi
        assert hi - lo < Fraction(1, 2 ** 90)

    def test_cos_bounds(self):
        lo, hi = cos_bounds(Fraction(0), 80)
        assert lo <= 1 <= hi
        pl, ph = pi_bounds(120)
        clo, chi = cos_bounds(pl / 2, 80)
        assert abs(clo) < Fraction(1, 2 ** 60) or clo <= 0 <= chi
        # against mpmath, at the chord angles 2 pi / k the binomial bound uses
        pl = pi_bounds(300)[0]
        ts = [Fraction(0), Fraction(4)]
        ts += [2 * pl / k for k in (3, 4, 5, 7, 10, 1000, 10 ** 9, 10 ** 18)]
        for t in ts:
            for prec in (80, 280):
                lo, hi = cos_bounds(t, prec)
                assert_encloses(lo, hi, mp_reference(mpmath.cos, t, prec))
                assert hi - lo <= Fraction(4, 2 ** prec)

    def test_ln2_interval_cached_consistency(self):
        a = ln2_interval(64)
        b = ln2_interval(64)
        assert a.lo == b.lo and a.hi == b.hi
