"""Approximate probability doubling via an asymmetric random walk.

One bit per step: heads moves +1, tails -1. The run outputs 1 the moment
the partial sum is nonnegative and 0 if that never happens within the
step budget. Acceptance probability is the Bernstein polynomial of
min(2p, 1), so the output bias undershoots 2p by at most
2 exp(-2n(1/2-p)^2) for p < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coins import CoinSource
from .engine import OutcomeRecord
from .numerics import bernstein_sums, binom, binom_row, exp_neg_upper


@dataclass(frozen=True)
class WalkConfig:
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def approx_double_bit(config: WalkConfig, source: CoinSource) -> OutcomeRecord:
    start = source.tosses_consumed
    s = 0
    for _ in range(config.steps):
        s += 1 if source.next_bit() else -1
        if s >= 0:
            return OutcomeRecord(1, source.tosses_consumed - start)
    return OutcomeRecord(0, source.tosses_consumed - start)


def reflection_count(n: int, k: int) -> int:
    """Number of length-n walks with k up-steps whose running max is >= 0.

    min(2k/n, 1) * binom(n, k): all binom(n, k) paths qualify once k is at
    least n/2, and exactly 2*binom(n-1, k-1) do below that.
    """
    if not 0 <= k <= n:
        raise ValueError("k outside [0, n]")
    if 2 * k >= n:
        return binom(n, k)
    return 2 * binom(n - 1, k - 1)


def walk_bias_exact(n: int, p: Fraction) -> Fraction:
    """Exact acceptance probability of the n-step walk on a p-coin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    # reflection_count along the row, with 2 C(n-1, k-1) = 2 C(n, k) k / n
    counts = [b if 2 * k >= n else 2 * k * b // n for k, b in enumerate(binom_row(n))]
    return bernstein_sums([counts], p)[0]


def walk_error_bound(n: int, p: Fraction) -> Fraction:
    """Dyadic upper bound on 2 exp(-2n(1/2-p)^2), the undershoot of the bias.

    Sound side only: 2p - walk_bias_exact(n, p) lies in [0, bound].
    """
    p = Fraction(p)
    if p >= Fraction(1, 2):
        raise ValueError("bound applies to p < 1/2 only")
    gap = Fraction(1, 2) - p
    return 2 * exp_neg_upper(2 * n * gap * gap)
