"""One-sided dyadic surrogates and exact rounding helpers.

The sqrt bounds are checked by squaring (no float or mpmath needed);
exp and sin are compared against mpmath at 60+ digits, which is twelve
orders of magnitude finer than the surrogates' own error budget.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from coinfactory import numerics
from coinfactory.numerics import (
    DYADIC_BITS,
    FACTOR_COMB_MIN,
    FACTOR_COMB_RATIO,
    bernstein_coeffs,
    bernstein_poly,
    binom,
    ceil_frac_mul,
    comb,
    dyadic_sqrt_lower,
    dyadic_sqrt_upper,
    exp_neg_upper,
    floor_frac_mul,
    poly_eval,
    rational_sin,
)

mpmath.mp.dps = 60

positive_fracs = st.fractions(min_value=Fraction(1, 10**9), max_value=4)


def test_comb_matches_math():
    for n in range(0, 40):
        for k in range(-2, n + 3):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert comb(n, k) == expected
            assert binom(n, k) == expected


def test_binom_large_path():
    # above the cache cutoff the uncached branch must agree too
    n = (1 << 14) + 3
    assert binom(n, 2) == n * (n - 1) // 2
    assert binom(n, -1) == 0
    assert binom(n, n + 1) == 0


def test_factored_binomials_match_math_comb_across_the_crossover(monkeypatch):
    # min(k, n - k) crosses FACTOR_COMB_MIN at k = n/2 for n = 2X and at
    # k = n/4 for n = 4X, and n / FACTOR_COMB_RATIO at k = n/64 for n = 2**17;
    # the sieve starts empty and grows on the way to 2**17
    x, ratio = FACTOR_COMB_MIN, FACTOR_COMB_RATIO
    assert (x, ratio) == (1024, 64)
    factored = []
    exact = numerics._factor_comb
    monkeypatch.setattr(numerics, "_sieve", bytearray())
    monkeypatch.setattr(numerics, "_factor_comb", lambda n, k: factored.append((n, k)) or exact(n, k))
    comb.cache_clear()
    sizes = [x - 1, x, 2 * x - 1, 2 * x, 4 * x - 1, 4 * x, 1 << 14, (1 << 14) + 1, 1 << 17]
    for n in sizes:
        for k in (-1, 0, 1, n // ratio - 1, n // ratio, n // 4, n // 2, n - 1, n, n + 1):
            assert binom(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)
    assert len(numerics._sieve) > 1 << 17
    assert factored == [(2048, 1024), (4095, 2047), (4096, 1024), (4096, 2048),
                        (16384, 4096), (16384, 8192), (16385, 4096), (16385, 8192),
                        (131072, 2048), (131072, 32768), (131072, 65536)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_binomials_above_the_cache_limit_match_math_comb(data):
    # k anywhere in the row, or within 64 of either crossover, where
    # min(k, n - k) = max(FACTOR_COMB_MIN, n / FACTOR_COMB_RATIO)
    n = data.draw(st.integers(min_value=(1 << 14) + 1, max_value=1 << 18))
    edge = max(FACTOR_COMB_MIN, -(-n // FACTOR_COMB_RATIO))
    k = data.draw(st.integers(min_value=-1, max_value=n + 1)
                  | st.integers(min_value=edge - 64, max_value=edge + 64)
                  | st.integers(min_value=n - edge - 64, max_value=n - edge + 64))
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binom(n, k) == expected
    if 0 <= k <= n:
        assert numerics._factor_comb(n, k) == expected


@given(st.fractions(min_value=-100, max_value=100), st.integers(min_value=1, max_value=10**6))
def test_frac_mul_rounding(fr, m):
    assert floor_frac_mul(fr, m) == math.floor(fr * m)
    assert ceil_frac_mul(fr, m) == math.ceil(fr * m)


@given(positive_fracs)
def test_sqrt_upper_is_minimal_dyadic(x):
    u = dyadic_sqrt_upper(x)
    assert u * u >= x
    step = Fraction(1, 1 << DYADIC_BITS)
    assert (u - step) ** 2 < x


@given(positive_fracs)
def test_sqrt_lower_is_maximal_dyadic(x):
    lo = dyadic_sqrt_lower(x)
    assert lo * lo <= x
    step = Fraction(1, 1 << DYADIC_BITS)
    assert (lo + step) ** 2 > x


def test_sqrt_edges():
    assert dyadic_sqrt_upper(Fraction(0)) == 0
    assert dyadic_sqrt_lower(Fraction(0)) == 0
    assert dyadic_sqrt_upper(Fraction(1, 4)) == Fraction(1, 2)
    assert dyadic_sqrt_lower(Fraction(1, 4)) == Fraction(1, 2)
    try:
        dyadic_sqrt_upper(Fraction(-1))
    except ValueError:
        pass
    else:
        raise AssertionError("negative argument accepted")


def test_exp_neg_upper_dominates_truth():
    for t in (Fraction(1, 100), Fraction(1, 2), Fraction(1), Fraction(7, 2),
              Fraction(10), Fraction(36), Fraction(9, 80)):
        out = exp_neg_upper(t)
        truth = mpmath.exp(-mpmath.mpf(t.numerator) / t.denominator)
        assert mpmath.mpf(out.numerator) / out.denominator >= truth
        # stays close: a few rounded squarings above 2**-64 granularity
        assert mpmath.mpf(out.numerator) / out.denominator - truth < mpmath.mpf(2) ** -(DYADIC_BITS - 8)


def test_exp_neg_edges():
    assert exp_neg_upper(Fraction(0)) == 1
    # huge arguments clamp to the smallest positive dyadic, still an upper bound
    assert exp_neg_upper(Fraction(10000)) == Fraction(1, 1 << DYADIC_BITS)
    try:
        exp_neg_upper(Fraction(-1))
    except ValueError:
        pass
    else:
        raise AssertionError("negative argument accepted")


def test_rational_sin_accuracy():
    for x in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        out = rational_sin(x)
        truth = mpmath.sin(mpmath.mpf(x.numerator) / x.denominator)
        err = abs(mpmath.mpf(out.numerator) / out.denominator - truth)
        assert err < mpmath.mpf(2) ** -128


def test_rational_sin_deterministic_and_bounded():
    a = rational_sin(Fraction(1, 3))
    assert a == rational_sin(Fraction(1, 3))
    assert 0 <= a <= 1
    try:
        rational_sin(Fraction(3, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("argument outside [0, 1] accepted")


def test_bernstein_coeffs_raise_degree_until_in_unit_interval():
    h = (Fraction(3, 4), Fraction(-2), Fraction(2))  # 3/4 - 2p + 2p^2, min 1/4
    assert bernstein_coeffs(h, 2) is None  # degree 2 has b_1 = -1/4
    b = bernstein_coeffs(h, 64)
    assert b == (Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(3, 4))
    n = len(b) - 1
    for i in range(11):
        x = Fraction(i, 10)
        assert sum(bk * comb(n, k) * x ** k * (1 - x) ** (n - k)
                   for k, bk in enumerate(b)) == poly_eval(h, x)


def test_bernstein_poly_inverts_bernstein_coeffs():
    # (1 - p)^3 + p/2 at degree 3, a quadratic raised to degree 3, a constant
    for a in ((Fraction(1), Fraction(-5, 2), Fraction(3), Fraction(-1)),
              (Fraction(3, 4), Fraction(-2), Fraction(2)), (Fraction(1, 5),)):
        b = bernstein_coeffs(a, 64)
        assert bernstein_poly(b) == a
    assert bernstein_poly((Fraction(0),)) == ()


def test_bernstein_coeffs_refuse_polynomials_leaving_unit_interval():
    assert bernstein_coeffs((Fraction(1, 2), Fraction(-1)), 64) is None  # -1/2 at p = 1
    assert bernstein_coeffs((Fraction(1, 4), Fraction(-1), Fraction(1)), 64) is None  # root 1/2
    assert bernstein_coeffs((Fraction(1, 5),), 64) == (Fraction(1, 5),)
