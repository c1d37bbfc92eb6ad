"""Counting, critical points, bounds, and sign evaluation for trinomials."""

import math
import random
from fractions import Fraction

import pytest

from trisep import (
    Binomial,
    DomainError,
    Monomial,
    Ordering,
    SturmOracle,
    SuccinctInt,
    Trinomial,
    ZeroPolynomialError,
    binomial_min_lower_bound,
    cauchy_bounds,
    compare_succinct,
    count_real_roots,
    critical_point,
    derivative_sup_bound,
    normalize,
    reciprocal,
    separation_bound_binomial,
    separation_bound_complex,
    separation_bound_real,
    sign_at_rational,
)
from trisep.constants import LEDGER
from trisep.trinomial import _discriminant_comparison, format_terms, parse_terms

from conftest import random_stripped_trinomial, random_trinomial


class TestNormalize:
    def test_plain_trinomial(self):
        poly, mult = normalize([(2, 0), (-3, 1), (1, 2)])
        assert poly == Trinomial(2, -3, 1, 0, 1, 2)
        assert mult == 0

    def test_zero_coeff_dropped_and_stripped(self):
        poly, mult = normalize([(1, 5), (0, 7), (-1, 9)])
        assert poly == Binomial(1, -1, 0, 4)
        assert mult == 5

    def test_duplicate_exponent(self):
        with pytest.raises(DomainError):
            normalize([(3, 2), (3, 2)])

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            normalize([(0, 1), (0, 2)])
        with pytest.raises(ZeroPolynomialError):
            normalize([])

    def test_too_many_terms(self):
        with pytest.raises(DomainError):
            normalize([(1, 0), (1, 1), (1, 2), (1, 3)])

    def test_text_roundtrip(self):
        terms = parse_terms("2,0;-3,1;1,2")
        poly, _ = normalize(terms)
        assert format_terms(poly) == "2,0;-3,1;1,2"


class TestReciprocal:
    def test_coefficient_reversal(self):
        f = Trinomial(2, -3, 1, 0, 1, 2)
        assert reciprocal(f) == Trinomial(1, -3, 2, 0, 1, 2)

    def test_involution(self, rng):
        for _ in range(100):
            f = random_stripped_trinomial(rng, max_exp=80, max_coeff=1000)
            assert reciprocal(reciprocal(f)) == f

    def test_exponent_ratio_flips_above_two(self, rng):
        # gamma < 2*beta on input forces gamma/(gamma-beta) >= 2 on output
        for _ in range(100):
            beta = rng.randint(2, 60)
            gamma = rng.randint(beta + 1, 2 * beta - 1)
            f = Trinomial(1, -2, 1, 0, beta, gamma)
            r = reciprocal(f)
            assert r.gamma >= 2 * r.beta

    def test_positive_root_count_duality(self, rng):
        # roots map x -> 1/x, so the positive counts agree
        for _ in range(150):
            f = random_stripped_trinomial(rng, max_exp=60, max_coeff=100)
            a = count_real_roots(f)
            b = count_real_roots(reciprocal(f))
            assert a.positive == b.positive

    def test_alpha_required_zero(self):
        with pytest.raises(DomainError):
            reciprocal(Trinomial(1, 1, 1, 1, 2, 3))


class TestCount:
    def test_two_positive_roots(self):
        rep = count_real_roots(Trinomial(2, -3, 1, 0, 1, 2))
        assert (rep.positive, rep.negative, rep.zero) == (2, 0, 0)
        assert not rep.positive_double

    def test_double_root(self):
        rep = count_real_roots(Trinomial(1, -2, 1, 0, 1, 2))
        assert rep.positive == 1 and rep.positive_double

    def test_no_real_roots(self):
        rep = count_real_roots(Trinomial(1, 1, 1, 0, 1, 2))
        assert rep.total_distinct == 0

    def test_huge_exponent_double(self):
        f = Trinomial(1, -2, 1, 0, 5 * 10 ** 11, 10 ** 12)
        rep = count_real_roots(f)
        assert rep.positive == 1 and rep.positive_double
        assert rep.negative == 1 and rep.negative_double
        assert rep.zero == 0

    def test_monomial_and_binomial(self):
        rep = count_real_roots(Monomial(1, 3))
        assert rep.zero == 1 and rep.zero_multiplicity == 3
        assert rep.total_distinct == 1
        rep = count_real_roots(Binomial(-1, 1, 0, 4))  # x^4 - 1
        assert rep.positive == 1 and rep.negative == 1 and rep.zero == 0
        rep = count_real_roots(Binomial(1, 1, 0, 4))  # x^4 + 1
        assert rep.total_distinct == 0
        rep = count_real_roots(Binomial(1, 1, 0, 3))  # x^3 + 1
        assert rep.negative == 1 and rep.positive == 0

    def test_descartes_ceiling(self, rng):
        def changes(seq):
            seq = [s for s in seq if s != 0]
            return sum(1 for i in range(len(seq) - 1) if seq[i] * seq[i + 1] < 0)

        for _ in range(200):
            f = random_trinomial(rng, max_exp=60, max_coeff=1000)
            rep = count_real_roots(f)
            coeffs = [f.a, f.b, f.c]
            assert rep.positive <= changes(coeffs)
            flipped = [c if e % 2 == 0 else -c
                       for c, e in zip(coeffs, (f.alpha, f.beta, f.gamma))]
            assert rep.negative <= changes(flipped)

    def test_sturm_oracle_agreement_sample(self, rng):
        for _ in range(300):
            f = random_trinomial(rng, max_exp=60, max_coeff=10 ** 4)
            rep = count_real_roots(f)
            assert rep.total_distinct == SturmOracle(f).distinct_real_roots()

    def test_two_log_discriminant_matches_four_factor_pair(self):
        # reference: the product comparison the two-log form is the log of,
        # (|a|g)^k (|c|g)^beta against (|b|beta)^beta (|b|k)^k, k = g - beta
        def four_factor(a, b, c, beta, gamma):
            k = gamma - beta
            lhs = SuccinctInt(1, ((abs(a) * gamma, k), (abs(c) * gamma, beta)))
            rhs = SuccinctInt(1, ((abs(b) * beta, beta), (abs(b) * k, k)))
            return compare_succinct(lhs, rhs)

        rng = random.Random(20171109)
        cases = []
        for _ in range(150):
            f = random_stripped_trinomial(rng)
            a, c = abs(f.a), abs(f.c)
            cases.append((a, -abs(f.b), c, f.beta, f.gamma))
            # f(x^m) with exponents near 10^18 and coefficients times lam
            m = rng.randrange(10 ** 18 // (2 * f.gamma), 10 ** 18 // f.gamma)
            lam = rng.randint(1, 2 ** 256)
            cases.append((a * lam, -abs(f.b) * lam, c * lam,
                          f.beta * m, f.gamma * m))
        ties = []
        for beta in (1, 7, 500, 10 ** 12, 10 ** 18):
            c = rng.randint(2, 2 ** 127)
            d = rng.randint(2, 2 ** 127)
            ties.append((d * d, -2 * c * d, c * c, beta, 2 * beta))
            # one unit off the tie on either side
            cases.append((d * d + 1, -2 * c * d, c * c, beta, 2 * beta))
            cases.append((d * d - 1, -2 * c * d, c * c, beta, 2 * beta))
        seen = set()
        for args in cases + ties:
            got = _discriminant_comparison(*args)
            assert got is four_factor(*args), args
            seen.add(got)
        assert seen == set(Ordering)
        for args in ties:
            assert _discriminant_comparison(*args) is Ordering.EQUAL


class TestCriticalPoint:
    def test_example(self):
        f = Trinomial(2, -3, 1, 0, 1, 2)
        cp = critical_point(f)
        assert cp.ratio == Fraction(3, 2) and cp.root_index == 1
        # f(3/2) = 2 - 9/2 + 9/4 = -1/4
        assert cp.fm_sign == -1
        assert sign_at_rational(f, Fraction(3, 2)) == -1

    def test_double_root_value_zero(self):
        cp = critical_point(Trinomial(1, -2, 1, 0, 1, 2))
        assert cp.ratio == Fraction(1) and cp.fm_sign == 0

    def test_no_positive_critical_point(self):
        assert critical_point(Trinomial(1, 1, 1, 0, 1, 2)) is None

    def test_bracket(self):
        cp = critical_point(Trinomial(2, -3, 1, 0, 1, 2))
        br = cp.bracket(Fraction(1, 2 ** 20))
        assert br.contains_fraction(Fraction(3, 2))
        cp4 = critical_point(Trinomial(1, -2, 1, 0, 1, 4))
        br = cp4.bracket(Fraction(1, 2 ** 40))
        m = Fraction(1, 2) ** Fraction(1, 3)  # not representable; check numerically
        lo, hi = br.lo.as_fraction(), br.hi.as_fraction()
        assert float(lo) <= 0.5 ** (1 / 3.0) <= float(hi)
        assert hi - lo <= Fraction(1, 2 ** 40)

    def test_nested_brackets(self):
        cp = critical_point(Trinomial(1, -2, 1, 0, 1, 4))
        outer = cp.bracket(Fraction(1, 2 ** 10))
        inner = cp.bracket(Fraction(1, 2 ** 20))
        assert outer.lo.as_fraction() <= inner.lo.as_fraction()
        assert inner.hi.as_fraction() <= outer.hi.as_fraction()

    def test_consistency_with_sign_eval(self, rng):
        # f at a tight bracket of m agrees with the discriminant verdict
        for _ in range(100):
            f = random_stripped_trinomial(rng, max_exp=40, max_coeff=500)
            cp = critical_point(f)
            if cp is None or cp.fm_sign == 0:
                continue
            br = cp.bracket(Fraction(1, 2 ** 60))
            s_lo = sign_at_rational(f, br.lo.as_fraction())
            s_hi = sign_at_rational(f, br.hi.as_fraction())
            if s_lo == s_hi and s_lo != 0:
                assert s_lo == cp.fm_sign


class TestCauchy:
    def test_examples(self):
        assert cauchy_bounds(Trinomial(2, -3, 1, 0, 1, 2)) == (Fraction(1, 4), Fraction(4))
        assert cauchy_bounds(Binomial(-1, 1, 0, 7)) == (Fraction(1, 2), Fraction(2))
        # 5x^3 + x strips to 5x^2 + 1; nonzero roots +-i/sqrt(5)
        poly, _ = normalize([(5, 3), (1, 1)])
        lo, hi = cauchy_bounds(poly)
        assert lo == Fraction(1, 6) and hi == Fraction(6)
        assert lo <= Fraction(4472135, 10 ** 7) <= hi  # ~ 5^(-1/2)

    def test_containment_random(self, rng):
        for _ in range(100):
            f = random_trinomial(rng, max_exp=30, max_coeff=1000)
            lo, hi = cauchy_bounds(f)
            oracle = SturmOracle(f)
            for a, b in oracle.isolate(Fraction(1, 2 ** 40)):
                if a <= 0 <= b and oracle.poly.get(0, 0) == 0:
                    continue  # the origin root is outside the annulus by design
                mag_hi = max(abs(a), abs(b))
                mag_lo = min(abs(a), abs(b)) if a * b > 0 else Fraction(0)
                assert mag_lo <= hi
                assert mag_hi >= lo


class TestDerivativeSup:
    def test_examples(self):
        assert derivative_sup_bound(Trinomial(2, -3, 1, 0, 1, 2)) == 9
        assert derivative_sup_bound(Trinomial(1, -2, 1, 0, 1, 4)) == 4

    def test_precondition(self):
        with pytest.raises(DomainError):
            derivative_sup_bound(Trinomial(1, -2, 1, 0, 3, 4))  # gamma < 2 beta
        with pytest.raises(DomainError):
            derivative_sup_bound(Trinomial(1, 2, 1, 0, 1, 4))  # no critical point

    def test_beta_one_sup_at_origin(self, rng):
        # for beta = 1 the sup of |f'| on [0, m] is |b|, attained at 0
        for _ in range(50):
            b = rng.randint(1, 1000) * rng.choice((-1, 1))
            c = rng.randint(1, 1000) * (-1 if b > 0 else 1)
            gamma = rng.randint(2, 40)
            f = Trinomial(rng.choice((-1, 1)) * rng.randint(1, 1000), b, c,
                          0, 1, gamma)
            bound = derivative_sup_bound(f)
            assert abs(b) <= bound
            m = (abs(b) / (abs(c) * gamma)) ** (1.0 / (gamma - 1))
            xs = [m * i / 200 for i in range(201)]
            sup = max(abs(b + c * gamma * x ** (gamma - 1)) for x in xs)
            assert sup <= bound * (1 + 1e-9)

    def test_grid_random(self, rng):
        for _ in range(100):
            beta = rng.randint(1, 20)
            gamma = rng.randint(2 * beta, 50)
            b = rng.randint(1, 10 ** 4) * rng.choice((-1, 1))
            c = rng.randint(1, 10 ** 4) * (-1 if b > 0 else 1)
            a = rng.randint(1, 10 ** 4) * rng.choice((-1, 1))
            f = Trinomial(a, b, c, 0, beta, gamma)
            bound = derivative_sup_bound(f)
            m = (abs(b) * beta / (abs(c) * gamma)) ** (1.0 / (gamma - beta))
            sup = 0.0
            for i in range(401):
                x = m * i / 400
                sup = max(sup, abs(b * beta * x ** (beta - 1)
                                   + c * gamma * x ** (gamma - 1)))
            assert sup <= bound * (1 + 1e-9)


class TestSeparationBounds:
    def test_real_bound_on_known_roots(self):
        f = Trinomial(2, -3, 1, 0, 1, 2)  # roots 1 and 2, separation 1
        sb = separation_bound_real(f)
        assert sb.log_bound < 0
        assert math.log(1.0) >= float(sb.log_bound)

    def test_zero_nonzero_pair_undercut(self, rng):
        # the bound must also undercut 1/(1 + e^s)
        for _ in range(50):
            f = random_trinomial(rng, max_exp=40, max_coeff=10 ** 5)
            sb = separation_bound_real(f)
            s = float(f.s_param())
            assert float(sb.log_bound) <= -math.log(1 + math.exp(min(s, 500)))

    def test_exponent_scaling_is_logarithmic(self):
        k = 10 ** 6
        base = Trinomial(1, -3, 1, 0, 7, 12)
        b1 = separation_bound_real(base)
        scaled = Trinomial(1, -3, 1, 0, 7 * k, 12 * k)
        b2 = separation_bound_real(scaled)
        # s grows like log k, so the bound degrades polynomially in log k,
        # nowhere near linearly in k
        ratio = float(b2.log_bound / b1.log_bound)
        assert 1 < ratio
        assert ratio < (math.log(k) + 3) ** 3
        assert ratio < k / 100

    def test_complex_on_conjugate_pair(self):
        f = Trinomial(1, 1, 1, 0, 1, 2)  # roots (-1 +- i sqrt 3)/2
        sb = separation_bound_complex(f)
        assert math.log(math.sqrt(3)) >= float(sb.log_bound)
        assert sb.kind == "complex"

    def test_binomial_dispatch(self):
        sb = separation_bound_complex(Binomial(-1, 1, 0, 4))
        assert sb.kind == "binomial"
        sb = separation_bound_real(Binomial(-1, 1, 0, 4))
        assert sb.kind == "binomial"

    def test_constants_ledger_chain(self):
        c2 = LEDGER["C_baker_2"]
        assert LEDGER["C1"] == c2 + 2
        assert LEDGER["C2"] == 4 * LEDGER["C1"] + 1
        assert LEDGER["C_real"] == LEDGER["C2"] + 7
        assert LEDGER["C_complex"] >= LEDGER["C2"]
        for entry in LEDGER:
            assert entry.value > 0
            assert entry.note


class TestBinomialBound:
    def test_fourth_roots_of_unity(self):
        import mpmath as mp

        sb = separation_bound_binomial(Binomial(-1, 1, 0, 4))
        with mp.workdps(60):
            want = mp.log(mp.sqrt(2))
            got = mp.mpf(sb.log_bound.numerator) / mp.mpf(sb.log_bound.denominator)
            assert got <= want
            assert want - got < mp.mpf("1e-20")

    def test_x_squared_minus_four(self):
        sb = separation_bound_binomial(Binomial(-4, 1, 0, 2))
        # bound 2; actual roots +-2 at distance 4
        assert math.isclose(float(sb.log_bound), math.log(2), rel_tol=1e-12)

    def test_scaled_cube_roots(self):
        import mpmath as mp

        sb = separation_bound_binomial(Binomial(-2, 2, 0, 3))
        with mp.workdps(60):
            want = mp.log(mp.sqrt(3) / 2)
            got = mp.mpf(sb.log_bound.numerator) / mp.mpf(sb.log_bound.denominator)
            assert got <= want
            assert want - got < mp.mpf("1e-20")

    def test_origin_root_folds_in(self):
        # x + x^3: roots 0, +-i; min distance 1 while the chord alone says 2
        sb = separation_bound_binomial(Binomial(1, 1, 1, 3))
        assert float(sb.log_bound) <= 0.0
        assert math.exp(float(sb.log_bound)) <= 1.0 + 1e-12

    def test_single_root_vacuous(self):
        sb = separation_bound_binomial(Binomial(1, 1, 0, 1))  # 1 + x
        assert sb.log_bound == 0


class TestSignAtRational:
    def test_examples(self):
        f = Trinomial(2, -3, 1, 0, 1, 2)
        assert sign_at_rational(f, Fraction(3, 2)) == -1
        assert sign_at_rational(f, Fraction(2)) == 0
        assert sign_at_rational(f, Fraction(0)) == 1
        assert sign_at_rational(f, Fraction(-1)) == 1

    def test_huge_exponent(self):
        g = Binomial(-2, 1, 0, 2 ** 40)
        assert sign_at_rational(g, Fraction(1)) == -1
        assert sign_at_rational(g, Fraction(2)) == 1
        assert sign_at_rational(g, Fraction(1, 2)) == -1

    def test_huge_trinomial_at_one(self):
        f = Trinomial(1, -2, 1, 0, 5 * 10 ** 11, 10 ** 12)
        assert sign_at_rational(f, Fraction(1)) == 0  # exact double root
        assert sign_at_rational(f, Fraction(-1)) == 0

    def test_budget_error_is_explicit(self):
        # x^(2^40) - 3 at 5/7: zero is impossible but the interval path can
        # decide it; an exact zero at an expansion-hostile point cannot be
        g = Binomial(-3, 1, 0, 2 ** 40)
        assert sign_at_rational(g, Fraction(5, 7)) == -1
        h = Binomial(-1, 1, 0, 2 ** 40)  # x^(2^40) - 1 at 1 is fine (powers of 1)
        assert sign_at_rational(h, Fraction(1)) == 0

    def test_agrees_with_exact_evaluation(self, rng):
        for _ in range(200):
            f = random_trinomial(rng, max_exp=25, max_coeff=1000)
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            want = 0
            val = sum(Fraction(c) * x ** e for c, e in f.terms())
            want = (val > 0) - (val < 0)
            assert sign_at_rational(f, x) == want


class TestBinomialFloor:
    def test_zero_case(self):
        res = binomial_min_lower_bound(1, -1, Fraction(1), Fraction(1))
        assert res.is_zero

    def test_sqrt2_case(self):
        res = binomial_min_lower_bound(1, -2, Fraction(1, 2), Fraction(2))
        assert not res.is_zero
        # |sqrt(2) - 2| ~ 0.5858 must beat the floor (compared in log space)
        assert math.log(0.585786437626905) >= float(res.log_bound)

    def test_same_sign_trivial(self):
        res = binomial_min_lower_bound(3, 1, Fraction(2, 3), Fraction(7, 5))
        assert not res.is_zero
        # |g| >= 1 here, so log 1 = 0 beats the floor
        assert 0.0 >= float(res.log_bound)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_min_lower_bound(0, 1, Fraction(1), Fraction(1))
        with pytest.raises(DomainError):
            binomial_min_lower_bound(1, 1, Fraction(-1), Fraction(1))
