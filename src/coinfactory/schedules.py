"""Concrete envelope schedule constructors.

Four families. The doubling family tracks a capped-linear target with two
hinge correction terms whose coefficients are deliberately twice their
minimal admissible values; the smooth family tracks any Lipschitz or
twice-differentiable target with a shrinking symmetric margin; the
monomial family is exact for p**j and needs no margin at all; and the
continuous family turns Bernstein approximants of an arbitrary continuous
target into nested envelopes by searching shift exponents that clear every
polynomial coefficient.

All schedule arithmetic is exact. Irrational quantities enter only through
one-sided dyadic surrogates, so every envelope inequality that matters can
be (and is) re-checked in integer arithmetic by validate_schedule.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .engine import EnvelopeSchedule
from .errors import ExponentNotFound, InvalidParams, MarginViolated
from .numerics import bernstein_sums, binom, binom_row, dyadic_sqrt_upper, exp_neg_upper


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


# --- doubling family ------------------------------------------------------


@dataclass
class DoublingParams:
    """Margin eps; the hinge coefficients C1, C2 and first checkpoint n0 follow.

    C1 and C2 are exactly twice their minimal admissible values,
    (2+sqrt(2))/eps and 72/(1-exp(-2 eps^2)), rounded outward through
    dyadic surrogates. n0 is the first power of two where the upper
    envelope fits below 1 for every k.
    """

    eps: Fraction
    C1: Fraction = field(init=False)
    C2: Fraction = field(init=False)
    n0: int = field(init=False)
    _exp_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _beta_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.eps = Fraction(self.eps)
        if not 0 < self.eps < Fraction(1, 8):
            raise InvalidParams("eps must lie strictly between 0 and 1/8")
        exp_up = exp_neg_upper(2 * self.eps * self.eps)
        if exp_up >= 1:
            raise InvalidParams("eps too small: exp surrogate saturates at 1")
        self.C1 = (4 + 2 * dyadic_sqrt_upper(Fraction(2))) / self.eps
        self.C2 = Fraction(144) / (1 - exp_up)
        self.n0 = self._search_n0()

    def sqrt_surrogate(self, n: int) -> Fraction:
        """Dyadic upper bound on sqrt(2/n); monotone decreasing in n.

        Not cached: beta_factors, its one library caller, caches per n."""
        return dyadic_sqrt_upper(Fraction(2, n))

    def exp_surrogate(self, n: int) -> Fraction:
        """Dyadic upper bound on exp(-2 eps^2 n) at power-of-two n.

        A running minimum along the checkpoint ladder enforces the
        monotonicity invariant that the raw per-point bounds do not
        guarantee; the minimum of valid upper bounds is still valid.
        """
        if not _is_pow2(n):
            raise InvalidParams("exp surrogate is defined on powers of two")
        if n not in self._exp_cache:
            best = None
            m = 1
            while m <= n:
                if m not in self._exp_cache:
                    raw = exp_neg_upper(2 * self.eps * self.eps * m)
                    cand = raw if best is None else min(best, raw)
                    self._exp_cache[m] = cand
                best = self._exp_cache[m]
                m <<= 1
        return self._exp_cache[n]

    def beta_factors(self, n: int) -> tuple[int, int, int, int]:
        """Integer factors (fa, f1, f2, den) of beta at checkpoint n.

        With eps = e/E, beta = (a fa + h1 f1 + h2 f2) / den, where
        a = min(2kE, (E - 2e) n) is alpha's numerator over nE and
        h1 = 2kE - (E - 6e) n and h2 = 9k - n are the hinges' numerators
        over 2nE and 9n, each taken only where positive. With
        C1 sqrt_surrogate(n) = P1/Q1 and C2 exp_surrogate(n) = P2/Q2,
        den = 18 n E Q1 Q2.
        """
        hit = self._beta_cache.get(n)
        if hit is None:
            c1 = self.C1 * self.sqrt_surrogate(n)
            c2 = self.C2 * self.exp_surrogate(n)
            p1, q1, p2, q2 = c1.numerator, c1.denominator, c2.numerator, c2.denominator
            big_e = self.eps.denominator
            hit = self._beta_cache[n] = (18 * q1 * q2, 9 * p1 * q2, 2 * big_e * p2 * q1,
                                         18 * n * big_e * q1 * q2)
        return hit

    def _search_n0(self) -> int:
        n = 1
        while True:
            _, beta = alpha_beta_doubling(self, n, n)
            if beta <= 1:
                return n
            if n > 1 << 40:
                raise InvalidParams("no admissible first checkpoint below 2**40")
            n <<= 1


def alpha_beta_doubling(params: DoublingParams, n: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact rational envelope pair at one (n, k).

    alpha = min(2k/n, 1-2eps). beta adds two hinge corrections, each a
    coefficient times the positive part of k/n past a threshold, weighted
    by the sqrt and exp surrogates. Summed in integers over the common
    denominator of DoublingParams.beta_factors.
    """
    if not _is_pow2(n):
        raise ValueError("n must be a positive power of two")
    if not 0 <= k <= n:
        raise ValueError("k outside [0, n]")
    e, big_e = params.eps.numerator, params.eps.denominator
    fa, f1, f2, den = params.beta_factors(n)
    a = min(2 * k * big_e, (big_e - 2 * e) * n)
    num = a * fa
    h1 = 2 * k * big_e - (big_e - 6 * e) * n
    if h1 > 0:
        num += h1 * f1
    h2 = 9 * k - n
    if h2 > 0:
        num += h2 * f2
    return Fraction(a, n * big_e), Fraction(num, den)


def doubling_schedule(params: DoublingParams) -> EnvelopeSchedule:
    """Power-of-two checkpoints, idle below n0, envelope counts above.

    Above n0 the upper envelope is at most 1 by the definition of n0, so
    counts always satisfy 0 <= count_a <= count_b <= binom.
    """
    return _doubling_envelope(params, "doubling", params.n0, {})


def doubling_raw_schedule(params: DoublingParams) -> EnvelopeSchedule:
    """Doubling envelope formulas applied at every checkpoint, no idle phase.

    Below n0 the upper counts exceed binom(n, k), so this variant fails
    the bounds class by construction; it exists to let the two
    convolution-consistency inequalities be verified on their own at
    small n, where the real schedule would still be idle.
    """
    return _doubling_envelope(params, "doubling-raw", 0, {"variant": "raw"})


def _doubling_envelope(params: DoublingParams, name: str, idle_below: int,
                       variant: dict) -> EnvelopeSchedule:
    return EnvelopeSchedule(
        name,
        {"eps": params.eps, "C1": params.C1, "C2": params.C2, "n0": params.n0},
        lambda j: 1 << j,
        ab_fn=lambda n, k: alpha_beta_doubling(params, n, k),
        idle_below=idle_below,
        # beta <= 1 from n0 on, where it falls with n at each k/n, and
        # alpha = min(2k/n, 1 - 2 eps); below n0 the raw variant's beta
        # exceeds 1
        unit_from=params.n0,
        metadata_extra={
            "n0": params.n0,
            **variant,
            "constants": {"C1": str(params.C1), "C2": str(params.C2)},
        },
    )


# --- smooth (Lipschitz / twice-differentiable) family ---------------------

MODE_LIPSCHITZ = "lipschitz"
MODE_C2 = "twice-differentiable"

# the smooth and continuous families check their targets at j/_GRID
_GRID = 1024


@dataclass
class SmoothnessParams:
    """Target f with smoothness constant C and margin eps < f < 1-eps.

    delta(n) is the symmetric envelope half-width at checkpoint n:
    (1+sqrt(2))*C/sqrt(n) rounded up to dyadic in Lipschitz mode (computed
    as C*(sqrt(1/n)+sqrt(2/n)), an exact identity), or C/(2n) in
    twice-differentiable mode.
    """

    target: Callable[[Fraction], Fraction]
    mode: str
    C: Fraction
    eps: Fraction

    def __post_init__(self):
        if self.mode not in (MODE_LIPSCHITZ, MODE_C2):
            raise InvalidParams(f"unknown mode {self.mode!r}")
        self.C = Fraction(self.C)
        self.eps = Fraction(self.eps)
        if self.C <= 0:
            raise InvalidParams("C must be positive")
        if not 0 < self.eps < Fraction(1, 2):
            raise InvalidParams("eps must lie in (0, 1/2)")

    def delta(self, n: int) -> Fraction:
        if self.mode == MODE_LIPSCHITZ:
            return self.C * (
                dyadic_sqrt_upper(Fraction(1, n)) + dyadic_sqrt_upper(Fraction(2, n))
            )
        return self.C / (2 * n)


def smooth_schedule(params: SmoothnessParams) -> EnvelopeSchedule:
    for j in range(1, _GRID):
        v = Fraction(params.target(Fraction(j, _GRID)))
        if not params.eps < v < 1 - params.eps:
            raise InvalidParams(
                f"margin violated: f({j}/{_GRID}) = {v} outside ({params.eps}, {1 - params.eps})"
            )
    # one delta per checkpoint, not per cell of its row
    delta = cache(params.delta)
    first_active = 1
    while delta(first_active) >= params.eps:
        first_active <<= 1
        if first_active > 1 << 40:
            raise InvalidParams("delta never drops below eps")

    def ab(n: int, k: int) -> tuple[Fraction, Fraction]:
        fk = Fraction(params.target(Fraction(k, n)))
        d = delta(n)
        return max(Fraction(0), fk - d), min(Fraction(1), fk + d)

    return EnvelopeSchedule(
        f"smooth-{params.mode}",
        {"mode": params.mode, "C": params.C, "eps": params.eps},
        lambda j: 1 << j,
        ab_fn=ab,
        idle_below=first_active,
        metadata_extra={
            "first_active": first_active,
            "constants": {
                "C": str(params.C),
                "delta_formula": (
                    "C*(dyadic_sqrt_upper(1/n)+dyadic_sqrt_upper(2/n))"
                    if params.mode == MODE_LIPSCHITZ
                    else "C/(2n)"
                ),
            },
        },
    )


# --- exact monomial family -------------------------------------------------


def monomial_schedule(j: int) -> EnvelopeSchedule:
    """Exact schedule for p**j: both envelopes equal falling-factorial ratios.

    alpha = beta = perm(k, j) / perm(n, j), and alpha * binom(n, k) is the
    integer binom(n-j, k-j), so both counts are that number of length-n
    words with k ones whose first j tosses are all heads.
    """
    if j < 1:
        raise InvalidParams("exponent must be a positive integer")

    def ab(n: int, k: int) -> tuple[Fraction, Fraction]:
        a = Fraction(math.perm(k, j), math.perm(n, j))
        return a, a

    return EnvelopeSchedule(
        "monomial",
        {"exponent": j},
        lambda t: j << t,
        ab_fn=ab,
        metadata_extra={"first_active": j},
    )


def corrupt_monomial_fixture() -> EnvelopeSchedule:
    """Monomial p**2 schedule with one planted consistency defect.

    (2,1) is widened to (0, 1/2), counts (0,1), so some runs survive the
    first checkpoint, and (4,2) is set to (0, 1/6), counts (0,1), while the
    carried lower mass there is 1; any decision touching (4,2) must report
    an invalid schedule, and validation must flag exactly that cell.
    """
    base = monomial_schedule(2)
    overrides = {(2, 1): (Fraction(0), Fraction(1, 2)), (4, 2): (Fraction(0), Fraction(1, 6))}

    def ab(n: int, k: int) -> tuple[Fraction, Fraction]:
        return overrides.get((n, k)) or base.ab_values(n, k)

    return EnvelopeSchedule(
        "corrupt-monomial",
        {"exponent": 2},
        base.checkpoint,
        ab_fn=ab,
        metadata_extra={"planted_defect": "count_a(4,2) below carried lower mass"},
    )


# --- continuous-target family ----------------------------------------------


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous bivariate polynomial, coeffs[k] multiplying x^k y^(degree-k)."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient vector length must be degree+1")

    def convolve_ones(self) -> "HomogeneousPoly":
        """Multiply by (x + y): adjacent coefficient sums."""
        c = self.coeffs
        out = [c[0]]
        for i in range(1, len(c)):
            out.append(c[i] + c[i - 1])
        out.append(c[-1])
        return HomogeneousPoly(self.degree + 1, tuple(out))

    def shifted(self, s: int) -> "HomogeneousPoly":
        cur = self
        for _ in range(s):
            cur = cur.convolve_ones()
        return cur

    def minus(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return HomogeneousPoly(
            self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )


def polya_exponent(q: HomogeneousPoly, max_n: int) -> int:
    """Smallest n <= max_n with all coefficients of (x+y)^n q nonnegative."""
    cur = q
    for n in range(max_n + 1):
        if all(c >= 0 for c in cur.coeffs):
            return n
        cur = cur.convolve_ones()
    raise ExponentNotFound(f"no shift exponent up to {max_n} clears the coefficients")


# the count rounding slack (at most one per coefficient, summing to under
# (n+1)*max(p,1-p)**n) stays well below the offsets from this degree on
_MIN_DEGREE = 32
_MAX_DEGREE = 1 << 13
_MAX_SHIFT = 4096


@dataclass
class ContinuousParams:
    """Continuous target with per-level precision exponents.

    levels[t] = i means level t uses approximation offset 3*2**-i and must
    certify Bernstein error < 2**-i on the grid. degrees, shifts,
    grid_errors and certificate_hash are filled in by continuous_schedule.
    """

    target: Callable[[Fraction], Fraction]
    eps: Fraction
    levels: tuple
    degrees: Optional[tuple] = field(default=None, init=False)
    shifts: Optional[tuple] = field(default=None, init=False)
    grid_errors: Optional[tuple] = field(default=None, init=False)
    certificate_hash: Optional[str] = field(default=None, init=False)

    def __post_init__(self):
        self.eps = Fraction(self.eps)
        self.levels = tuple(int(i) for i in self.levels)
        if not self.levels:
            raise InvalidParams("at least one level required")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise InvalidParams("levels must be strictly increasing")
        for i in self.levels:
            if Fraction(1, 1 << i) >= self.eps / 4:
                raise InvalidParams(f"level {i}: 2**-{i} must be below eps/4")


def continuous_schedule(params: ContinuousParams) -> EnvelopeSchedule:
    """Envelope schedule for an arbitrary continuous target on a grid certificate.

    Per level: certify the Bernstein approximant of degree m within 2**-i
    on the grid, offset it down (up) by 3*2**-i for the lower (upper)
    family, then search one shift exponent per family making consecutive
    differences coefficient-nonnegative; the larger exponent is used for
    both families so checkpoints stay shared.
    """
    f = params.target
    eps = params.eps
    fgrid = {}
    for j in range(_GRID + 1):
        x = Fraction(j, _GRID)
        v = Fraction(f(x))
        if not eps <= v <= 1 - eps:
            raise MarginViolated(f"f({j}/{_GRID}) = {v} outside [{eps}, {1 - eps}]")
        fgrid[x] = v

    degrees = []
    lows = []
    highs = []
    errors = []
    for t, i in enumerate(params.levels):
        tol = Fraction(1, 1 << i)
        m = _MIN_DEGREE if t == 0 else 2 * degrees[-1]
        while True:
            if m > _MAX_DEGREE:
                raise InvalidParams(
                    f"level {i}: no degree up to {_MAX_DEGREE} meets 2**-{i} on the grid"
                )
            samples = [Fraction(f(Fraction(l, m))) for l in range(m + 1)]
            row = list(binom_row(m))
            weights = [s * b for s, b in zip(samples, row)]
            worst = Fraction(0)
            for x, fx in fgrid.items():
                err = abs(bernstein_sums([weights], x)[0] - fx)
                if err > worst:
                    worst = err
            if worst < tol:
                break
            m *= 2
        degrees.append(m)
        errors.append(worst)
        offset = 3 * tol
        lows.append(
            HomogeneousPoly(m, tuple((s - offset) * b for s, b in zip(samples, row)))
        )
        highs.append(
            HomogeneousPoly(m, tuple((s + offset) * b for s, b in zip(samples, row)))
        )

    shifts = []
    for t in range(len(degrees) - 1):
        dm = degrees[t + 1] - degrees[t]
        s_low = polya_exponent(lows[t + 1].minus(lows[t].shifted(dm)), _MAX_SHIFT)
        s_high = polya_exponent(highs[t].shifted(dm).minus(highs[t + 1]), _MAX_SHIFT)
        shifts.append(max(s_low, s_high))

    checkpoints = []
    acc = 0
    for t, m in enumerate(degrees):
        checkpoints.append(m + acc)
        if t < len(shifts):
            acc += shifts[t]

    # the shifted level polynomials' coefficients, clamped to [0, binom(n, k)]
    # and divided by it, are the envelope pair; the engine rounds them back
    coeff_rows = {}
    for t, n in enumerate(checkpoints):
        pad = n - degrees[t]
        coeff_rows[n] = (lows[t].shifted(pad).coeffs, highs[t].shifted(pad).coeffs)

    params.degrees = tuple(degrees)
    params.shifts = tuple(shifts)
    params.grid_errors = tuple(errors)
    cert = {
        "grid_denominator": _GRID,
        "levels": [
            {"i": i, "degree": m, "max_error": str(e)}
            for i, m, e in zip(params.levels, degrees, errors)
        ],
    }
    params.certificate_hash = hashlib.sha256(
        json.dumps(cert, sort_keys=True).encode("ascii")
    ).hexdigest()

    def checkpoint(t: int) -> Optional[int]:
        return checkpoints[t] if 0 <= t < len(checkpoints) else None

    def ab(n: int, k: int) -> tuple[Fraction, Fraction]:
        lo, hi = coeff_rows[n]
        b = binom(n, k)
        return Fraction(max(0, lo[k]), b), Fraction(min(b, hi[k]), b)

    return EnvelopeSchedule(
        "continuous",
        {"eps": eps, "levels": params.levels, "degrees": params.degrees, "shifts": params.shifts},
        checkpoint,
        ab_fn=ab,
        metadata_extra={
            "levels": list(params.levels),
            "degrees": list(params.degrees),
            "shifts": list(params.shifts),
            "grid_certificate": params.certificate_hash,
        },
    )
