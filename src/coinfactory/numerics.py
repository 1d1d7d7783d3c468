"""Certified rational/dyadic arithmetic helpers.

Everything here is exact or one-sided: square roots and exponentials are
returned as dyadic rationals that bound the true value from the stated side,
so downstream schedule inequalities stay provable in integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress

import numpy as np

DYADIC_BITS = 64
# rational_sin's precision: its error stays under 2**-SIN_BITS
SIN_BITS = 128
# largest n whose binomials are cached; above it a cache would pin megabit
# integers for the life of the process, so C(n, k) there is computed on
# every call (a RankContext keeps a few per row, under a bit budget)
BINOM_CACHE_LIMIT = 1 << 14


# C(n, k) with min(k, n - k) at least this and at least n / FACTOR_COMB_RATIO
# is built from its prime factorization; below either, math.comb is faster.
# Measured over n = 2**11 .. 2**18 and k = n/64 .. n/2 (2 cores, Python
# 3.11.7): the break-even min(k, n - k) grows about as sqrt(32 n), about
# 1000 at 2**15 and 2000 at 2**17. The rule meets it there and takes the
# slower path only near it, where the two differ by under 0.25 ms
FACTOR_COMB_MIN = 1024
FACTOR_COMB_RATIO = 64

# _sieve[j] is 1 when j is prime, for j < len(_sieve); grown on demand
_sieve = bytearray()
# the primes above sqrt(n) are scanned this many sieve bytes at a time, so
# the scan's arrays stay a few tens of KB whatever n is
_SCAN_BLOCK = 1 << 15


def _sieve_to(hi: int) -> bytearray:
    """The sieve, grown to cover hi."""
    global _sieve
    if len(_sieve) <= hi:
        size = max(hi + 1, 2 * len(_sieve))
        sieve = bytearray([1]) * size
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(size - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, size, p)))
        _sieve = sieve
    return _sieve


def _primes(lo: int, hi: int):
    """The primes p with lo <= p <= hi, ascending."""
    return compress(range(lo, hi + 1), memoryview(_sieve_to(hi))[lo:hi + 1])


def _factor_comb(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n as a product tree of its prime powers.

    The exponent of p is sum_j floor(n/p^j) - floor(k/p^j) - floor((n-k)/p^j)
    (Legendre); above sqrt(n) only j = 1 counts, and the exponent is 1
    exactly when k mod p > n mod p, a carry in adding k and n - k in base p.
    Those primes are tested in numpy, a block of a view of the sieve at a time.
    """
    r, nk = math.isqrt(n), n - k
    factors = []
    for p in _primes(2, r):
        e, a, b, c = 0, n, k, nk
        while a:
            a, b, c = a // p, b // p, c // p
            e += a - b - c
        if e:
            factors.append(p ** e)
    sieve = np.frombuffer(_sieve_to(n), np.uint8)
    # g primes below n multiply within int64, so they join the tree g at a
    # time. Arithmetic ufuncs only: a comparison, a boolean index or a
    # reduction would each add over 100 KB to peak RSS on first use
    g = 63 // n.bit_length()
    for lo in range(r + 1, n + 1, _SCAN_BLOCK):
        ps = np.flatnonzero(sieve[lo:min(lo + _SCAN_BLOCK, n + 1)])
        ps += lo
        # the sign bit of n mod p - k mod p marks the carry
        ps = ps[np.flatnonzero((n % ps - k % ps) >> 63)]
        whole = len(ps) - len(ps) % g
        prods = ps[:whole:g]
        for j in range(1, g):
            prods = prods * ps[j:whole:g]
        factors += prods.tolist() + ps[whole:].tolist()
    while len(factors) > 1:
        last = [factors.pop()] if len(factors) & 1 else []
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + last
    return factors[0] if factors else 1


def _comb(n: int, k: int) -> int:
    """C(n, k), 0 outside 0 <= k <= n, uncached."""
    if k < 0 or k > n:
        return 0
    low = min(k, n - k)
    if low >= FACTOR_COMB_MIN and FACTOR_COMB_RATIO * low >= n:
        return _factor_comb(n, k)
    return math.comb(n, k)


@lru_cache(maxsize=1 << 16)
def comb(n: int, k: int) -> int:
    return _comb(n, k)


def binom(n: int, k: int) -> int:
    """Binomial coefficient, cached only up to BINOM_CACHE_LIMIT."""
    if n <= BINOM_CACHE_LIMIT:
        return comb(n, k)
    return _comb(n, k)


def binom_row(n: int):
    """C(n, 0), ..., C(n, n) in turn, stepped by C(n, k+1) = C(n, k)(n-k)/(k+1)."""
    b = 1
    for k in range(n + 1):
        yield b
        b = b * (n - k) // (k + 1)


def floor_frac_mul(fr: Fraction, m: int) -> int:
    """floor(fr * m) without building an intermediate Fraction."""
    return (fr.numerator * m) // fr.denominator


def ceil_frac_mul(fr: Fraction, m: int) -> int:
    return -((-fr.numerator * m) // fr.denominator)


def dyadic_sqrt_upper(x: Fraction) -> Fraction:
    """Smallest multiple of 2**-DYADIC_BITS whose square is >= x (x >= 0)."""
    if x < 0:
        raise ValueError("sqrt of negative")
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    # smallest integer t with t*t*den >= num << (2*DYADIC_BITS)
    target = num << (2 * DYADIC_BITS)
    s = math.isqrt(target // den)
    if s * s * den < target:
        s += 1
    return Fraction(s, 1 << DYADIC_BITS)


def dyadic_sqrt_lower(x: Fraction) -> Fraction:
    """Largest multiple of 2**-DYADIC_BITS whose square is <= x (x >= 0)."""
    if x < 0:
        raise ValueError("sqrt of negative")
    num, den = x.numerator, x.denominator
    s = math.isqrt((num << (2 * DYADIC_BITS)) // den)
    return Fraction(s, 1 << DYADIC_BITS)


def exp_neg_upper(t: Fraction) -> Fraction:
    """Dyadic upper bound on exp(-t) for t >= 0, clamped to (0, 1].

    Argument reduction t = u * 2**s with u <= 1/2, an exact Taylor lower
    bound for exp(u), a ceiling reciprocal, then s ceiling squarings. Every
    rounding step goes up, so the result always dominates exp(-t). Very
    large t underflows to 2**-DYADIC_BITS, which is still a valid upper bound.
    """
    if t < 0:
        raise ValueError("negative argument")
    if t == 0:
        return Fraction(1)
    s = 0
    u = t
    while u > Fraction(1, 2):
        u /= 2
        s += 1
    # exact partial Taylor sum: strictly below exp(u) for u > 0
    term = Fraction(1)
    total = Fraction(1)
    for j in range(1, 41):
        term = term * u / j
        total += term
    work = DYADIC_BITS + 80
    one = 1 << work
    # X >= 2**work * exp(-u), then square up s times
    x = -((-one * total.denominator) // total.numerator)
    for _ in range(s):
        x = -((-(x * x)) // one)
    shift = work - DYADIC_BITS
    out = -((-x) // (1 << shift))
    out = max(out, 1)
    return min(Fraction(out, 1 << DYADIC_BITS), Fraction(1))


def rational_sin(x: Fraction) -> Fraction:
    """Dyadic approximation of sin(x) within 2**-SIN_BITS, for 0 <= x <= 1.

    Alternating Taylor series, truncated once the next term drops below
    2**-(SIN_BITS+8); the partial sum is then floor-rounded to SIN_BITS+4
    fractional digits. Total error stays under 2**-SIN_BITS.
    """
    if not 0 <= x <= 1:
        raise ValueError("argument outside [0, 1]")
    cutoff = Fraction(1, 1 << (SIN_BITS + 8))
    term = x
    total = Fraction(0)
    j = 1
    sign = 1
    while term > cutoff:
        total += sign * term
        term = term * x * x / ((j + 1) * (j + 2))
        j += 2
        sign = -sign
    scale = 1 << (SIN_BITS + 4)
    return Fraction((total.numerator * scale) // total.denominator, scale)


# --- exact polynomials ---------------------------------------------------
# Polynomials are coefficient tuples, low degree first, exact rationals.


def poly_norm(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return poly_norm(out)


def poly_sub(a, b) -> tuple:
    return poly_add(a, tuple(-v for v in b))


def poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return poly_norm(out)


def poly_eval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def bernstein_sums(rows, p) -> list[Fraction]:
    """sum_k w[k] p**k (1-p)**(n-k) exactly, n = len(w) - 1, for each row w.

    Weights are ints or Fractions and the rows have one length. p is any
    rational, the endpoints 0 and 1 included. With p = a/d every row is
    scaled to integers and taken through one Horner pass,
    U_k = (d-a) U_(k-1) + w[k] a**k, that ends with U_n = d**n times the
    sum; the one division by d**n comes last.
    """
    p = Fraction(p)
    a, d = p.numerator, p.denominator
    c = d - a
    # ints carry .numerator and .denominator too, so one rule scales both
    scales = [math.lcm(*(w.denominator for w in row)) for row in rows]
    ints = [row if s == 1 else [w.numerator * (s // w.denominator) for w in row]
            for row, s in zip(rows, scales)]
    acc = [0] * len(ints)
    ak = 1
    for ws in zip(*ints):
        acc = [c * u + w * ak for u, w in zip(acc, ws)]
        ak *= a
    dn = d ** (len(ints[0]) - 1)
    return [Fraction(u, dn * s) for u, s in zip(acc, scales)]


def bernstein_coeffs(a, max_degree: int):
    """Bernstein coefficients of a in [0, 1], at the least degree <= max_degree.

    At degree n, b_k = sum_j a_j C(k, j) / C(n, j), and a(p) is
    sum_k b_k C(n, k) p**k (1-p)**(n-k). Returns None when no degree up to
    max_degree has every b_k in [0, 1]. Since min b_k <= a <= max b_k on
    [0, 1] at every degree, a polynomial leaving [0, 1] at an endpoint is
    refused at once.
    """
    a = poly_norm(a)
    if not (0 <= poly_eval(a, Fraction(0)) <= 1 and 0 <= poly_eval(a, Fraction(1)) <= 1):
        return None
    for n in range(max(len(a) - 1, 0), max_degree + 1):
        b = tuple(sum((a[j] * Fraction(comb(k, j), comb(n, j))
                       for j in range(min(k, len(a) - 1) + 1)), Fraction(0))
                  for k in range(n + 1))
        if all(0 <= v <= 1 for v in b):
            return b
    return None


def bernstein_poly(b) -> tuple:
    """Monomial coefficients of sum_k b_k C(n, k) p**k (1-p)**(n-k), n = len(b) - 1.

    The inverse of bernstein_coeffs: a_j = C(n, j) sum_k (-1)**(j-k) C(j, k) b_k.
    """
    n = len(b) - 1
    return poly_norm(tuple(
        comb(n, j) * sum((b[k] * (-1) ** (j - k) * comb(j, k) for k in range(j + 1)), Fraction(0))
        for j in range(n + 1)))
