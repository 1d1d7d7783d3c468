"""Envelope engine: implicit-ranking execution of envelope schedules.

A schedule supplies, for every checkpoint n and weight k, integer counts
(count_a, count_b) = (binom(n,k)*a, binom(n,k)*b). Words of a checkpoint
length are classified OutputOne / Continue / OutputZero by rank against
those counts, under one fixed total order of candidates: by prefix
one-count, then prefix rank among the surviving (Continue) words, then
suffix lexicographic rank. That order reproduces exactly the sets whose
sizes are the counts without materializing any word set.

A run never needs the rank itself, only where it falls against the two
counts. So it carries the rank as an integer interval: bounds on the
prefix weights are added as each level is reached, and each chunk
contributes the width of its binomial until its lexicographic rank is
read. A rank is read, oldest chunk first (it carries the largest
weight), only while the interval crosses a count; idle levels, where
every word continues, never read one. Every level whose binom(n, k)
reaches 2**128 ranks on certified bounds from 128-bit fixed-point walks
of a few hundred terms out from the terms' mode, all taken by the one
walker that also takes float-with-bound's pmf walk (_walk): an idle level
bounds its prefix weights, and a non-idle one in the unit class (0 <=
alpha <= beta <= 1 on the row it jumps from) also its carried mass, and
so da and db, weighing each term by that row's (alpha, beta) as
float-with-bound does, with no count or binomial of the row. The exact
sums, one pass over the level's terms for idle and non-idle levels
alike, are the fallback, built only when the bounds' error alone keeps
the interval crossing a count once every rank is read, or when
validate_schedule meets a consistency check that the bounds leave open.
A run refuses a level whose bounds refute a check; one they leave open
it takes on the exact sums if it builds them, and passes otherwise.

The counts and level sums a run memoizes depend on the schedule alone,
so each schedule owns one RankContext that all its runs share, and only
validate_schedule keeps a private one, whose rows end with the call. The
rank state after a checkpoint is a function of the word's prefix up to
it. decide and the exhaustive oracle rank many words that share
prefixes, so they keep the state at each checkpoint of the last word
(rank_word) and start the next word from the deepest one it shares.

Every checkpoint below the first active one, n_a, is idle and never
decides, so simulate draws a run's first n_a bits in one chunk: the rank
loop would draw the same bits in the same order. It takes the word's
outcome at n_a from a memo of outcomes and rank states where n_a is at
most _MEMO_BITS; else, where the idle prefix ends at 132 bits or later
(_JUMP_FROM), from the block of words that share the prefix's weight,
on a prefix walk that stops once its bounds settle the block's side of
each count (_jump); and else, or where the block crosses a count, from
rank_word. The block test counts the prefix's ones in numpy and runs at
the block width's scale: the width is bracketed by the top 2 _W bits of
its two binomial factors, and the counts are cut to that scale, so it
forms no product or quotient of two numbers as wide as the binomials. A
run that continues at n_a resumes the rank loop from its rank state
there. The bits drawn and every decision are the rank loop's from the
start: brackets and bounds are sound wherever a walk stops.

Binomials up to BINOM_CACHE_LIMIT come from numerics' cache. Above it, a
level's total, a chunk's size and a walk's anchors come from the
context's row memo: a few exact binomials of each row, under a bit
budget, from which a nearby k is stepped in one multiply and one divide.
So the level's total and its chunk's size, and runs whose weights at a
large checkpoint lie close, share one factored binomial.
"""

from __future__ import annotations

import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .coins import CoinSource
from .errors import InvalidParams, InvalidSchedule, Undecided
from .numerics import (
    BINOM_CACHE_LIMIT,
    _comb,
    bernstein_sums,
    binom,
    binom_row,
    ceil_frac_mul,
    comb,
    floor_frac_mul,
)


class Decision(Enum):
    OutputOne = "one"
    OutputZero = "zero"
    Continue = "continue"


# looking up an Enum member costs about as much as a call, and the rank
# loop returns and tests a decision once per checkpoint
_ONE = Decision.OutputOne
_ZERO = Decision.OutputZero
_CONTINUE = Decision.Continue


@dataclass(frozen=True)
class OutcomeRecord:
    bit: int
    tosses: int


class EnvelopeSchedule:
    """Checkpoint sequence plus lazily evaluated integer envelope counts.

    ab_fn(n, k) returns the rational envelope pair (alpha, beta), and
    counts() rounds it against b = binom(n, k) here, in one place:
    count_a = floor(alpha*b), count_b = ceil(beta*b). The float-with-bound
    evaluator and the walked levels' sums (_LevelData._walk_sums) work
    from (alpha, beta) and rely on exactly this rounding to bound the
    difference from the counts. b is an optional
    precomputed binom(n, k), so row walks can thread incremental binomials
    instead of recomputing them. Checkpoints below idle_below are idle:
    (alpha, beta) = (0, 1), counts (0, binom(n,k)). Every run of the
    schedule ranks on its rank_context.

    unit_from declares that every row n >= unit_from is in the unit
    class, 0 <= alpha <= beta <= 1 at every k; it defaults to idle_below,
    every active row. Only a non-idle level from such a row ranks on
    bounds, and they are sound only if the declaration holds: its walk
    checks the weights it visits, and bounds the terms it skips by weights
    in [0, 1]. A schedule whose active rows can leave [0, 1], as
    doubling_raw_schedule's below n0 do, passes the first row from which
    they cannot; the levels from earlier rows are summed exactly.
    """

    def __init__(
        self,
        name: str,
        params: dict,
        checkpoint_fn: Callable[[int], Optional[int]],
        ab_fn=None,
        idle_below: int = 0,
        metadata_extra: Optional[dict] = None,
        unit_from: Optional[int] = None,
    ):
        self.name = name
        self.params = dict(params)
        self._checkpoint_fn = checkpoint_fn
        self._ab_fn = ab_fn
        self.idle_below = idle_below
        self.unit_from = idle_below if unit_from is None else unit_from
        self._metadata_extra = dict(metadata_extra or {})
        self.rank_context = RankContext(self)

    def checkpoint(self, j: int) -> Optional[int]:
        """n_j for 0-based index j, or None past the end of a finite schedule."""
        return self._checkpoint_fn(j)

    def checkpoints_upto(self, limit: int) -> list[int]:
        out = []
        j = 0
        while True:
            n = self.checkpoint(j)
            if n is None:
                return out
            # the first checkpoint past limit too, which RankContext reads
            if n <= (out[-1] if out else 0):
                raise InvalidParams(f"checkpoint {j} is {n}: checkpoints must increase from 1")
            if n > limit:
                return out
            out.append(n)
            j += 1

    def is_checkpoint(self, n: int) -> bool:
        pts = self.checkpoints_upto(n)
        return bool(pts) and pts[-1] == n

    def is_idle(self, n: int) -> bool:
        return n < self.idle_below

    def in_unit_class(self, n: int) -> bool:
        return n >= self.unit_from

    def counts(self, n: int, k: int, b: Optional[int] = None) -> tuple[int, int]:
        if self.is_idle(n):
            return 0, binom(n, k) if b is None else b
        if b is None:
            b = binom(n, k)
        alpha, beta = self._ab_fn(n, k)
        return floor_frac_mul(alpha, b), ceil_frac_mul(beta, b)

    def ab_values(self, n: int, k: int) -> tuple[Fraction, Fraction]:
        if self.is_idle(n):
            return Fraction(0), Fraction(1)
        return self._ab_fn(n, k)

    def metadata(self) -> dict:
        meta = {"type": self.name, "parameters": {}}
        for key, value in sorted(self.params.items()):
            meta["parameters"][key] = str(value)
        meta.update(self._metadata_extra)
        return meta


def word_lexrank(word: Sequence[int]) -> int:
    """0-based rank of word among equal-weight words, ascending lex (0 < 1).

    Combinatorial number system, one big multiply and divide per position.
    """
    n = len(word)
    rank = 0
    r = sum(word)
    c = binom(n - 1, r) if n > 0 else 1
    for pos, bit in enumerate(word):
        rem = n - pos - 1
        if bit:
            rank += c
            if rem > 0:
                c = c * r // rem
            r -= 1
        else:
            if rem > 0:
                c = c * (rem - r) // rem
    return rank


# a level's exact sums (_build) keep the gap's running sum every this many
# terms, at any size, so prefix_weight adds fewer than this many terms to one
_SNAPSHOT_STRIDE = 16
# fractional bits of the fixed-point term walks that bound a level's sums
_W = 128
# simulate tries the idle block test (_jump) only where the last idle
# checkpoint m has binom(m, m // 2) >= 2**_W, m >= 132. Below that, the
# ranks and walks it would skip are cheap, and its rank interval,
# binom(m, i) words wide, is too wide beside the gaps between da and db to
# decide most runs
_JUMP_FROM = 1
while not math.comb(_JUMP_FROM, _JUMP_FROM // 2) >> _W:
    _JUMP_FROM += 1
# simulate serves a first active checkpoint of at most this many bits from
# its context's word memo, which then holds at most 2**_MEMO_BITS words
_MEMO_BITS = 12


class _LevelData:
    """Convolution sums for one checkpoint jump m -> n at target weight k.

    With d = n - m, ta = sum_i binom(d, k - i) count_a(m, i) is the carried
    lower mass, total the same sum over count_b - count_a (the carried gap),
    prefix_weight(i) the gap's sum below i, and da = count_a(n, k) - ta,
    db = count_b(n, k) - ta. The first checkpoint is the jump from m = 0,
    whose empty prefix survives whole, so it is ranked as a jump from an
    idle level. b is binom(n, k) if the caller has it.

    Where binom(n, k) reaches 2**_W the level is bounded: runs and
    failed_checks work from (lo, err) bounds on its sums, and the exact
    sums are built only when one is read. Every bound comes from
    _walk_out, a fixed-point walk of the terms away from their mode. An
    idle level has ta = 0 and total = binom(n, k) exactly and bounds each
    prefix weight by a walk from it (_walk_bounds). A non-idle level whose
    row m is in the schedule's unit class bounds ta, total and every
    prefix weight by one walk out from the mode on each side, weighed by
    row m's (alpha, beta) (_walk_sums); da lies in [da_hi - ta_err,
    da_hi] and db in [db_hi - ta_err, db_hi]. Every other non-idle level is summed exactly
    when built, and its ta_err is 0. Exact sums and prefix weights, idle
    or not, come from one pass over the terms (_build).
    """

    __slots__ = ("m", "n", "d", "k", "bounded", "da_hi", "db_hi", "ta_err", "_ta", "_total",
                 "_ca", "_cb", "_snapshots", "_memo", "_bounds", "_ctx", "_ilo", "_ihi",
                 "_idle", "_t0", "_cum", "_cum_at", "_perr")

    def __init__(self, ctx: "RankContext", m: int, n: int, k: int, b: Optional[int] = None):
        self.m = m
        self.n = n
        self.d = n - m
        self.k = k
        self._ctx = ctx
        self._ilo = max(0, k - self.d)
        self._ihi = min(m, k)
        schedule = ctx.schedule
        self._idle = m == 0 or schedule.is_idle(m)
        self._snapshots = self._ta = self._total = None
        self._memo = {}
        self._bounds = {}
        if b is None:
            b = ctx.binom(n, k)
        self._ca, self._cb = ctx.counts(n, k, b)
        self.bounded = b >> _W > 0
        sums = None
        if self._idle:
            # all prefixes survive with gap = binom(m, i); the Vandermonde
            # total binom(n, k) is also the b that counts(n, k) takes
            self._ta, self._total = 0, b
        elif self.bounded and schedule.in_unit_class(m):
            sums = self._walk_sums()
        if sums is None:
            self.bounded = self.bounded and self._idle
            sums = self.ta, 0
        ta_lo, self.ta_err = sums
        self.da_hi = self._ca - ta_lo
        self.db_hi = self._cb - ta_lo

    @property
    def ta(self) -> int:
        if self._ta is None:
            self._build()
        return self._ta

    @property
    def total(self) -> int:
        if self._total is None:
            self._build()
        return self._total

    @property
    def da(self) -> int:
        return self._ca - self.ta

    @property
    def db(self) -> int:
        return self._cb - self.ta

    def _build(self):
        # the exact sums, with the gap's running sum kept every
        # _SNAPSHOT_STRIDE terms for prefix_weight; an idle row's counts are
        # (0, binom(m, i)), so an idle level's sums are 0 and binom(n, k)
        d, k, ilo = self.d, self.k, self._ilo
        ta = total = 0
        snapshots = {}
        for i, cval, ca, gap in self._terms(ilo, self._ihi + 1, _comb(d, k - ilo)):
            if (i - ilo) % _SNAPSHOT_STRIDE == 0:
                snapshots[i] = (total, cval)
            ta += cval * ca
            total += gap
        # set only once whole, so prefix_weight finds a snapshot at every stride
        self._ta, self._total, self._snapshots = ta, total, snapshots

    def failed_checks(self, settle: bool = True):
        """(kind, lhs, rhs, message) for each level check that fails, in order:
        lower, count_a(n, k) = ta + da >= ta; upper, count_b(n, k) = ta + db
        <= ta + total; order, da <= db.

        A check that the bounds settle takes no exact sum. One they leave
        open, where a count meets the carried mass to within the bounds'
        error, is taken on the exact sums if settle is true and passed
        otherwise. If settle is true, lhs and rhs are exact; if not, a
        failed consistency check's rhs is the bound on the carried mass
        that refutes it, and no exact sum is built.
        """
        ca, cb = self._ca, self._cb
        at = "" if settle or not self.ta_err else "at least "
        if self.da_hi < 0 or self.da_hi < self.ta_err and settle and self.da < 0:
            # ta_lo = ca - da_hi
            ta = self.ta if settle else ca - self.da_hi
            yield ("lower-consistency", ca, ta,
                   f"lower consistency: count_a below carried mass by {at}{ta - ca}")
        tot_lo, tot_err = self.prefix_bounds(self._ihi + 1)
        over = self.db_hi - tot_lo
        if over > self.ta_err + tot_err or over > 0 and settle and self.db > self.total:
            carried = self.ta + self.total if settle else cb - over + self.ta_err + tot_err
            yield ("upper-consistency", cb, carried,
                   f"upper consistency: count_b exceeds carried mass by {at}{cb - carried}")
        if ca > cb:
            yield "order", ca, cb, f"count_a {ca} above count_b {cb}"

    def settled_d(self) -> tuple[int, int]:
        """(da, db) from the exact sums, once the consistency checks that
        the bounds left open are taken on them: InvalidSchedule if one fails."""
        if self.ta_err:
            for _, _, _, message in self.failed_checks():
                raise InvalidSchedule(self.n, self.k, message)
        return self.da, self.db

    def prefix_weight(self, i: int) -> int:
        """Candidates of weight k whose surviving prefix has fewer than i ones."""
        if i <= self._ilo:
            return 0
        if i > self._ihi:
            return self.total
        if i in self._memo:
            return self._memo[i]
        if self._snapshots is None:
            self._build()
        base = i - (i - self._ilo) % _SNAPSHOT_STRIDE
        cum, cval = self._snapshots[base]
        for _, cval, _, gap in self._terms(base, i, cval):
            cum += gap
        self._memo[i] = cum
        return cum

    def _terms(self, start: int, stop: int, cval: int):
        """(i, c, count_a(m, i), c (count_b - count_a)(m, i)) for start <= i < stop,
        c = binom(d, k - i): the count that c weights in the carried mass,
        and the gap's term.

        cval is binom(d, k - start), threaded along i. An idle row's counts
        are (0, binom(m, i)), so its gap's terms t(i) = binom(m, i) c step
        by the ratio (m - i)(k - i) / ((i + 1)(d - k + i + 1)), big by
        small. Elsewhere only a count not yet memoized needs binom(m, i);
        misses come in runs, so it is stepped from the previous miss. Like
        cval's first value, a binom(m, i) taken afresh comes from
        numerics._comb, out of the binom cache: an exact build visits whole
        rows, which the cache would pin.
        """
        ctx, m, d, k = self._ctx, self.m, self.d, self.k
        if self._idle:
            t = cval * _comb(m, start)
            for i in range(start, stop):
                yield i, cval, 0, t
                t = t * ((m - i) * (k - i)) // ((i + 1) * (d - k + i + 1))
                cval = cval * (k - i) // (d - k + i + 1)
            return
        memo, last = ctx._counts_memo, None
        for i in range(start, stop):
            hit = memo.get((m, i))
            if hit is None:
                bval = bval * (m - i + 1) // i if last == i - 1 else _comb(m, i)
                last = i
                hit = ctx.counts(m, i, bval)
            ca, cb = hit
            yield i, cval, ca, cval * (cb - ca)
            cval = cval * (k - i) // (d - k + i + 1)

    def prefix_bounds(self, i: int, t: Optional[int | tuple] = None) -> tuple[int, int]:
        """(lo, err) with lo <= prefix_weight(i) <= lo + err.

        A bounded idle level bounds the weight by a term walk from i
        (_walk_bounds). Given t = binom(m, i) binom(d, k - i), the width of
        the block of words that a run jumping an idle prefix to this level
        ranks in, exact or as _jump's bracket (lo, hi, s), the walk may
        stop as soon as its bounds settle that jump. A bounded non-idle
        level reads the weight off the sums of its walk (_walk_sums), past
        ihi too, where it bounds total. Elsewhere, at i <= ilo (weight 0)
        and once the exact weight is memoized, err is 0.
        """
        if self.bounded and self._ilo < i and i not in self._memo:
            if not self._idle:
                j = min(max(i - self._cum_at, 0), len(self._cum) - 1)
                return (self._t0 * self._cum[j]) >> _W, self._perr
            if i <= self._ihi:
                hit = self._bounds.get(i)
                return self._walk_bounds(i, t) if hit is None else hit
        return self.prefix_weight(i), 0

    def _walk_sums(self) -> Optional[tuple[int, int]]:
        """(lo, err) bounding ta, from one walk over the terms of a non-idle level.

        _walk_out carries each side's terms t(i) relative to the exact t0
        at the mode, up to ihi and, mirrored, down to ilo. As
        float-with-bound weights its pmf, each term is weighted by alpha
        and beta - alpha of ab_values(m, i) in _W fractional bits, rounded
        down and memoized on the context, so no binom(m, i) or count of row
        m is formed. count_a(m, i) lies in (alpha b - 1, alpha b] and
        count_b - count_a in [(beta - alpha) b, (beta - alpha) b + 2), b =
        binom(m, i), so ta lies less than R = sum binom(d, k - i) over the
        visited i below its alpha-sum, and the gap less than 2 R above its
        own; R is bounded by the visited width times the largest such
        binomial. In the unit class the terms a side skips have weights in
        [0, 1]. Keeps t0, the gap's lower running sums (_cum, from i =
        _cum_at) and one error bound for every prefix weight (_perr).
        Returns None, for the exact sums, if a pair it visits lies outside
        0 <= alpha <= beta <= 1.
        """
        ctx, m, d, k = self._ctx, self.m, self.d, self.k
        mode = min(max((k + 1) * (m + 1) // (self.n + 2), self._ilo), self._ihi)
        # a run reaching this level has often taken both binomials, as the
        # last level's total or as chunk sizes: up to BINOM_CACHE_LIMIT they
        # are cached, and above it the context's row memo steps from them
        t0 = ctx.binom(m, mode) * ctx.binom(d, k - mode)
        one = 1 << _W
        row, ab = ctx._ratios[m], ctx.schedule.ab_values
        ta_lo = tail = slack = 0
        up, down = [], []
        for gaps, step, walk in ((up, 1, (m, d, k, mode)), (down, -1, (d, m, k, k - mode))):
            # the carried terms of this side, tls[s] at i = mode + step * s
            tls, side_tail = _walk_out(*walk)
            tail += side_tail
            # the upper ends exceed the lower, s steps out, by at most
            # (tl + s)(w + 1) - tl w <= tl + (one + 1) s, w <= one, in
            # 2 * _W fractional bits
            s = len(tls)
            slack += s * one + (one + 1) * s * (s - 1) // 2
            # the up side takes the mode's term, the down side starts past it
            for s in range(step < 0, len(tls)):
                i = mode + step * s
                w = row.get(i)
                if w is None:
                    alpha, beta = ab(m, i)
                    if not 0 <= alpha <= beta <= 1:
                        return None
                    w = row[i] = floor_frac_mul(alpha, one), floor_frac_mul(beta - alpha, one)
                ra, rg = w
                ta_lo += tls[s] * ra
                gaps.append(tls[s] * rg)
        down.reverse()
        self._cum_at = mode - len(down)
        cum, total = [0], 0
        for g in down + up:
            total += g
            cum.append(total >> _W)
        self._t0, self._cum = t0, cum
        # binom(d, j) over the visited j = k - i peaks at the j nearest d / 2
        jlo, jhi = k - (mode + len(up) - 1), k - self._cum_at
        r = (jhi - jlo + 1) * ctx.binom(d, min(max(d // 2, jlo), jhi))
        # a running sum also loses under one ulp to its shift
        self._perr = -(-t0 * (1 + (-(-slack >> _W)) + tail) >> _W) + 1 + 2 * r
        return ((t0 * ta_lo) >> 2 * _W) - r, -(-t0 * (slack + (tail << _W)) >> 2 * _W) + 1 + r

    def _walk_bounds(self, i: int, t: Optional[int | tuple] = None) -> tuple[int, int]:
        """prefix_bounds(i) of a bounded idle level, from one term walk.

        t(i') = binom(m, i') binom(d, k - i'). The walk starts at t(i) and
        moves away from the mode: above it (i past the mode) up, its sum S
        of the terms from t(i) up being total minus the prefix; at or below
        it, mirrored, down, S being the prefix plus t(i), the walk's first
        term, exactly 2**_W in its units. S lies in [t L, t U] / 2**_W, L the walk's lower
        sum and U that plus its rounding and tail. A run reaching this
        level has taken binom(m, i) (the last level's total) and binom(d, k
        - i) (this chunk's size), so t(i) costs no new binomial up to
        BINOM_CACHE_LIMIT, and above it the context's row memo keeps both.

        A run that jumps an idle prefix to this level passes t(i), exact or
        as a bracket (lo, hi, s) with lo 2**s <= t(i) <= hi 2**s (_jump's),
        which is the walk's own anchor. Its rank lies in [P(i), P(i) +
        t(i)), and it decides One if P(i) + hi 2**s <= da_hi - ta_err, Zero
        if P(i) >= db_hi. Both thresholds are cut to the bracket's scale,
        2**s, and put in the walk's units by a division of small integers,
        so the walk can stop once L or U clears one (_walk_out), most often
        within a few terms of i. Its bounds are sound, at the bracket's
        scale, and settle the jump as _jump tests them, and are not kept. A
        walk that settles nothing runs on to _walk_out's one-ulp stop, as
        when no t is given, and its bounds are kept for the rank loop that
        ranks the run's word (rank_word).
        """
        m, d, k, ctx = self.m, self.d, self.k, self._ctx
        settle = t is not None
        if not settle:
            t = ctx.binom(m, i) * ctx.binom(d, k - i)
        tlo, thi, s = (t, t, 0) if t.__class__ is int else t
        # the jump decides One once P(i) <= one, Zero once P(i) >= zero
        one, zero = self.da_hi - self.ta_err - (thi << s), self.db_hi
        above = i > (k + 1) * (m + 1) // (self.n + 2)
        if above:
            # P(i) = total - S: settled once S reaches reach or falls to fall
            walk, first = (m, d, k, i), 0
            reach, fall = self.total - one, self.total - zero
        else:
            # P(i) = S - t(i): the goals and sums leave out the first term
            walk, first = (d, m, k, k - i), 1 << _W
            reach, fall = zero, one
        goal = ()
        if settle:
            # S's bounds are floor(tlo L / 2**_W) and ceil(thi U / 2**_W) at
            # scale 2**s: S >= reach iff L >= low, S <= fall iff U <= high
            reach, fall = -(-reach >> s), fall >> s
            goal = -((-reach << _W) // tlo) + first, (fall << _W) // thi + first
        terms, tail = _walk_out(*walk, *goal)
        lo = sum(terms)
        if tail is None:
            # stopped on its lower sum: S is bounded above only by total
            hi, settled = self.total, True
        else:
            # terms[c] is less than c ulps low, so their sum under c(c - 1)/2 ulps
            c = len(terms)
            up = lo + c * (c - 1) // 2 + tail
            hi = -((-thi * (up - first)) >> _W) << s
            settled = settle and up <= goal[1]
        lo = (tlo * (lo - first)) >> _W << s
        bounds = (self.total - hi if above else lo), hi - lo
        if not settled:
            self._bounds[i] = bounds
        return bounds


def _walk(step: Callable[[int], tuple[int, int]], j: int, end: int, low: Optional[int] = None,
          high: Optional[int] = None) -> tuple[list[int], Optional[int]]:
    """(terms, tail): t(j + s) / t(j) for s = 0, 1, ... in _W fractional bits.

    t is a log-concave sequence of terms with t(i + 1) / t(i) = num / den,
    (num, den) = step(i), and every term past end is 0. j is at or past
    t's mode, so the step ratios are at most 1 and only fall. Each term is
    carried rounded down, so terms[s] is less than s ulps low. The walk
    stops at end, or where the terms left past the last one, tl, sum to at
    most (tl + s) r / (1 - r), r = num/den: once that is at most one ulp
    (for which tl < den is needed, and a cheap first test), or once tl is
    0, since past that point each further term's rounding costs more than
    the term adds. tail is that geometric bound, rounded up, in _W bits.

    _walk_bounds, settling a jump, also stops the walk early: with tail
    None once the terms' sum reaches low, and once that sum, plus its
    s(s - 1)/2 ulps of rounding and the tail past the last of its s terms,
    is at most high. Either sum bounds the true one on its side, and
    either stop may be given without the other.
    """
    tl = total = 1 << _W
    terms = [tl]
    if low is not None and total >= low:
        return terms, None
    while j < end:
        num, den = step(j)
        if num < den:
            s = len(terms)
            over = (tl + s - 1) * num
            if tl == 0 or tl < den and over <= den - num or high is not None and \
                    over <= (high - total - s * (s - 1) // 2) * (den - num):
                return terms, -(-over // (den - num))
        tl = tl * num // den
        j += 1
        terms.append(tl)
        total += tl
        if low is not None and total >= low:
            return terms, None
    return terms, 0


def _walk_out(m: int, d: int, k: int, j: int, low: Optional[int] = None,
              high: Optional[int] = None) -> tuple[list[int], Optional[int]]:
    """_walk of t(i) = binom(m, i) binom(d, k - i), n = m + d, from j up to
    min(m, k). t's mode is floor((k+1)(m+1)/(n+2)); swapping m and d mirrors
    t, so _walk_out(d, m, k, k - j) walks it down from j."""
    return _walk(lambda i: ((m - i) * (k - i), (i + 1) * (d - k + i + 1)), j, min(m, k), low, high)


# RankContext.binom keeps at most _ROW_BITS bits of binomials for each row
# above BINOM_CACHE_LIMIT, and at most _ROW_KEEP of them, as it searches a
# row's keys on every call
_ROW_BITS = 1 << 18
_ROW_KEEP = 16
# it steps a missed binom(n, k) from a kept binom(n, j) with |k - j| at most
# _STEP_MAX, in one multiply and one divide; at 2**15 and 2**17, 128 steps
# take 0.1-0.4 ms, under the factored binomial's 0.5-2 ms
_STEP_MAX = 128


# the rank state before the first checkpoint: (j, pos, ones, lo, err, width,
# unread, head, pending), as _rank_run names them
_START = (0, 0, 0, 0, 0, 1, (), 0, ())


class RankContext:
    """A schedule plus memo caches shared across runs.

    It memoizes the counts of rows up to BINOM_CACHE_LIMIT, each row's
    walk weights (alpha, beta - alpha) in _W bits, the levels up to
    BINOM_CACHE_LIMIT and the last one built above it, and, for each row
    above it, at most _ROW_KEEP exact binomials of at most _ROW_BITS bits
    (32 KB) in all, the least recently used dropped first (binom). It
    also keeps the last word that rank_word ranked and that word's path:
    (checkpoint, rank state or decision) for each checkpoint it passed,
    from which the next word resumes. It works out once the head that
    every simulate run draws in one chunk: the idle checkpoints, and the
    first active one n_a after them. Where n_a is at most _MEMO_BITS,
    simulate's word memo maps each n_a-bit word it has met to one
    OutcomeRecord, shared by every run that draws it, if the word decides
    at n_a, or to the rank state after n_a if it continues: at most 2**n_a
    words, 4096 at the bound. A schedule owns one, its rank_context, for
    every run; the memos depend on the schedule alone, so no run sees what
    ran before. validate_schedule keeps a private one, or validating to
    2**14 would pin tens of MB on the schedule.
    """

    def __init__(self, schedule: EnvelopeSchedule):
        self.schedule = schedule
        self._counts_memo: dict = {}
        # {n: {k: binom(n, k)}} for rows above BINOM_CACHE_LIMIT, least
        # recently used first
        self._binoms: dict = defaultdict(dict)
        # {m: {i: (alpha, beta - alpha)}} of ab_values(m, i) in _W fractional
        # bits rounded down, for every m: the values are small
        self._ratios: dict = defaultdict(dict)
        self._levels: dict = {}
        # the key of the one level above BINOM_CACHE_LIMIT in _levels
        self._large_level = None
        self._word = b""
        self._path: list = [(0, _START)]
        # the idle checkpoints, and n_a, or None if a finite schedule has
        # no checkpoint past them
        self._idle_points = schedule.checkpoints_upto(schedule.idle_below - 1)
        self._head = first = schedule.checkpoint(len(self._idle_points))
        # n_a if at most _MEMO_BITS, and None otherwise; simulate's word
        # memo, its words one bit per byte
        self._first_active = first if first is not None and first <= _MEMO_BITS else None
        self._first_words: dict = {}

    def counts(self, n: int, k: int, b: Optional[int] = None) -> tuple[int, int]:
        key = (n, k)
        hit = self._counts_memo.get(key)
        if hit is None:
            hit = self.schedule.counts(n, k, b)
            # an idle row is (0, binom(n, k)), not worth pinning
            if n <= BINOM_CACHE_LIMIT and not self.schedule.is_idle(n):
                self._counts_memo[key] = hit
        return hit

    def binom(self, n: int, k: int) -> int:
        """binom(n, k); above BINOM_CACHE_LIMIT through the row memo."""
        if n <= BINOM_CACHE_LIMIT or not 0 <= k <= n:
            return binom(n, k)
        row = self._binoms[n]
        c = row.pop(k, None)
        if c is None:
            j = min(row, key=lambda j: abs(j - k), default=k + _STEP_MAX + 1)
            if abs(j - k) > _STEP_MAX:
                c = binom(n, k)
            # binom(n, k) / binom(n, j) = j! (n - j)! / (k! (n - k)!)
            elif j < k:
                c = row[j] * math.perm(n - j, k - j) // math.perm(k, k - j)
            else:
                c = row[j] * math.perm(j, j - k) // math.perm(n - k, j - k)
        row[k] = c
        while len(row) > _ROW_KEEP or sum(v.bit_length() for v in row.values()) > _ROW_BITS:
            del row[next(iter(row))]
        return c

    def level_data(self, j: int, m: int, n: int, k: int) -> _LevelData:
        key = (j, k)
        hit = self._levels.get(key)
        if hit is None:
            hit = _LevelData(self, m, n, k)
            # a check the bounds leave open would take the exact sums, which
            # the walk is there to avoid: at n0 -> 2 n0 of the doubling
            # schedule, whose count_a meets the carried mass exactly, they
            # take minutes. A run settles such checks where it takes the
            # exact sums (settled_d), and validate_schedule always does
            for _, _, _, message in hit.failed_checks(settle=False):
                raise InvalidSchedule(n, k, message)
            if n > BINOM_CACHE_LIMIT:
                # only the last level above the limit is kept: a run that
                # _jump leaves open reads its first active level again
                self._levels.pop(self._large_level, None)
                self._large_level = key
            self._levels[key] = hit
        return hit


def _rank_run(ctx: RankContext, draw: Callable[[int], Sequence[int]],
              limit: float, state: tuple = _START,
              path: Optional[list] = None) -> tuple[Decision, int]:
    """Rank the chunks up to successive checkpoints until one decides.

    draw(count) returns the next count bits as a chunk: bytes, one bit per
    byte (a generator's long draws through draw_chunk, and rank_word's
    words), or a list (short draws and tapes). The loop reads a chunk only
    through count(1), len, iteration and indexing, which both share.

    The run starts from state, a rank state after some checkpoint, and
    stops at the first decision that is not Continue, or with Continue
    when the next checkpoint would pass limit or a finite schedule has no
    next one. Returns the decision and the length ranked. If path is a
    list, the state after each checkpoint that continues is appended to it
    as (checkpoint, state).

    The rank r of the word at the current level is known to lie in
    [lo, lo + err + width): lo counts lower bounds on the prefix weights
    and the ranks already read, less upper bounds on the da of the levels
    passed; err bounds what those bounds leave out; and width is the
    product of the binomials of the chunks whose ranks are not yet read.
    The level's own da and db are known to within its ta_err. A chunk's
    rank is read, oldest chunk first, only while that interval crosses da
    or db. Should it still cross once every rank is read, the exact sums
    replace the bounds, and the checks the bounds left open are taken on
    them.
    """
    schedule = ctx.schedule
    j, pos, ones, lo, err, width, unread, head, pending = state
    # (chunk, binom(len(chunk), weight)) in draw order; unread[head:] are
    # the chunks whose ranks are not read
    unread = list(unread)
    # each level passed since err was last 0: (level whose bounds err
    # counts, or None, its prefix ones, prefix lower bound, size, da used)
    pending = list(pending)
    while True:
        n = schedule.checkpoint(j)
        if n is None or n > limit:
            return _CONTINUE, pos
        if n <= pos:
            raise InvalidParams(f"checkpoint {j} is {n}: checkpoints must increase from 1")
        chunk = draw(n - pos)
        new_ones = ones + chunk.count(1)
        data = ctx.level_data(j, pos, n, new_ones)
        # ctx.binom's own test, inlined: this runs at every checkpoint
        d = n - pos
        size = comb(d, new_ones - ones) if d <= BINOM_CACHE_LIMIT else ctx.binom(d, new_ones - ones)
        # r = prefix_weight + (r_prev - da_prev) * size + lexrank(chunk)
        plo, perr = data.prefix_bounds(ones)
        lo = plo + lo * size
        err = perr + err * size
        width *= size
        unread.append((chunk, size))
        i, ones, pos = ones, new_ones, n
        # da in [da - derr, da], db in [db - derr, db]
        da, db, derr = data.da_hi, data.db_hi, data.ta_err
        while True:
            hi = lo + err + width
            if hi <= da - derr:
                return _ONE, pos
            if lo >= db:
                return _ZERO, pos
            if da <= lo and hi <= db - derr:
                break
            if head == len(unread):
                # only the bounds keep the interval open: fold in the exact
                # sums of each level passed, scaled by the sizes after it,
                # and take this level's
                corr = 0
                for level, li, bound, level_size, dused in pending:
                    corr *= level_size
                    if level is not None:
                        corr += level.prefix_weight(li) - bound + dused - level.settled_d()[0]
                lo += corr * size
                if perr:
                    lo += data.prefix_weight(i) - plo
                if derr:
                    (da, db), derr = data.settled_d(), 0
                err = 0
                pending.clear()
                continue
            # the oldest unread chunk carries the largest weight
            old, old_size = unread[head]
            head += 1
            width //= old_size
            lo += word_lexrank(old) * width
        lo -= da
        err += derr
        j += 1
        if err:
            pending.append((data if perr or derr else None, i, plo, size, da))
        if path is not None:
            path.append((pos, (j, pos, ones, lo, err, width, tuple(unread), head, tuple(pending))))


def rank_word(ctx: RankContext, word: bytes) -> tuple[Decision, int]:
    """Rank word, one bit per byte, up to its last checkpoint.

    Returns what _rank_run returns for it. The run resumes from the
    deepest checkpoint whose prefix word shares with the last word ranked
    in ctx, so a word that extends a decided prefix takes that decision.
    """
    path, last = ctx._path, ctx._word
    # every checkpoint on the path is at most len(last), so a shared
    # prefix is also at most len(word)
    i = len(path) - 1
    while True:
        n, state = path[i]
        if word[:n] == last[:n]:
            break
        i -= 1
    del path[i + 1:]
    ctx._word = word
    if state.__class__ is Decision:
        return state, n
    # BytesIO.read hands out the successive chunks, one bit per byte
    decision, pos = _rank_run(ctx, io.BytesIO(word[n:]).read, len(word), state, path)
    if decision is not _CONTINUE:
        path.append((pos, decision))
    return decision, pos


def decide(ctx: RankContext, word: Sequence[int]) -> Decision:
    """Classify a word of 0s and 1s whose length is a checkpoint.

    A word extending an already-decided prefix inherits that decision.
    Successive words on one ctx share the rank state of their common
    checkpoint prefixes (see rank_word), so ranking all words of a length
    in order costs about one chunk per word.
    """
    word = bytes(list(word))
    if word.translate(None, b"\x00\x01"):
        raise ValueError("word bits must be 0 or 1")
    decision, pos = rank_word(ctx, word)
    if decision is _CONTINUE and (pos == 0 or pos < len(word)):
        raise ValueError(f"word length {len(word)} is not a checkpoint")
    return decision


def _jump(ctx: RankContext, word: bytes) -> Optional[Decision]:
    """The decision at the first active checkpoint n = len(word) if the idle
    block settles it, and None otherwise or if the idle prefix ends below
    _JUMP_FROM.

    All binom(m, i) words of weight i at the last idle checkpoint m survive,
    so at n, at weight k, the rank lies in [P(i), P(i) + t), t = binom(m,
    i) binom(n - m, k - i) and P(i) = prefix_weight(i), 0 at i = ilo. If
    that interval lies below da or at or above db, the word decides there,
    on prefix bounds whose walk stops once they settle that (_walk_bounds).
    The test runs at the scale of a bracket on t, the product of the top
    2 _W bits of each factor, rounded down and up, which stands in for t.
    Bracket and bounds are sound wherever the walk stops, so the decision
    is the rank loop's.
    """
    points = ctx._idle_points
    if not points or points[-1] < _JUMP_FROM:
        return None
    m, n = points[-1], len(word)
    bits = np.frombuffer(word, np.uint8)
    ones = int(np.count_nonzero(bits[:m]))
    k = ones + int(np.count_nonzero(bits[m:]))
    data = ctx.level_data(len(points), m, n, k)
    # t's bracket (lo, hi, s), lo 2**s <= t <= hi 2**s, from the top 2 _W
    # bits of each factor: the factors' full product is never formed
    x, y = ctx.binom(m, ones), ctx.binom(n - m, k - ones)
    sx, sy = max(x.bit_length() - 2 * _W, 0), max(y.bit_length() - 2 * _W, 0)
    x, y = x >> sx, y >> sy
    t = x * y, (x + (sx > 0)) * (y + (sy > 0)), sx + sy
    lo, err = data.prefix_bounds(ones, t)
    if lo + err + (t[1] << t[2]) <= data.da_hi - data.ta_err:
        return _ONE
    if lo >= data.db_hi:
        return _ZERO
    return None


def simulate(
    schedule: EnvelopeSchedule,
    source: CoinSource,
    *,
    max_tosses: Optional[int] = None,
) -> OutcomeRecord:
    """Draw to successive checkpoints until the schedule decides.

    Intermediate lengths never decide. Raises Undecided when max_tosses
    would be exceeded or a finite schedule runs out of checkpoints, and
    InvalidParams at a checkpoint that does not increase from 1. Runs on
    schedule.rank_context, whose memo serves every later run. Chunks come
    from source.draw_chunk.

    Every checkpoint below the first active one, n_a, is idle and never
    decides, so the run draws its first n_a bits in one chunk: the rank
    loop would draw the same bits, in the same order, to reach n_a, and a
    short tape is exhausted at the same toss. Under a max_tosses below
    n_a, or with no checkpoint past the idle ones, it draws in one chunk
    to the last idle checkpoint within max_tosses, where the rank loop
    stops undecided. The word's outcome at n_a comes from the context's
    memo where n_a is at most _MEMO_BITS (rank_word fills it on a miss),
    else from the idle block (_jump), and else from rank_word: the record
    returned if the word decides at n_a, or the rank state from which the
    rank loop draws on. Either way the run draws the same bits and takes
    the same decision as the rank loop from the start.
    """
    ctx = schedule.rank_context
    limit = math.inf if max_tosses is None else max_tosses
    n = ctx._head
    if n is None or n > limit:
        n = max((p for p in ctx._idle_points if p <= limit), default=0)
        if n:
            source.draw_chunk(n)
        raise Undecided(n)
    start = source.tosses_consumed
    word = bytes(source.draw_chunk(n))
    memo = ctx._first_active is not None
    hit = ctx._first_words.get(word) if memo else None
    if hit is None:
        decision = _jump(ctx, word)
        if decision is None:
            decision, _ = rank_word(ctx, word)
        hit = ctx._path[-1][1] if decision is _CONTINUE else \
            OutcomeRecord(int(decision is _ONE), n)
        if memo:
            ctx._first_words[word] = hit
    if hit.__class__ is OutcomeRecord:
        return hit
    decision, _ = _rank_run(ctx, source.draw_chunk, limit, hit)
    tosses = source.tosses_consumed - start
    if decision is _CONTINUE:
        raise Undecided(tosses)
    return OutcomeRecord(int(decision is _ONE), tosses)


@dataclass(frozen=True)
class EnvelopeValues:
    g: object
    h: object
    g_err: object
    h_err: object


def envelope_eval(
    schedule: EnvelopeSchedule, p: Fraction, n: int, mode: str = "exact"
) -> EnvelopeValues:
    """Evaluate the lower/upper envelope polynomials at bias p.

    exact mode returns Fractions with zero error. float-with-bound mode
    returns doubles with certified absolute error bounds. It walks the
    binomial weights out from the mode in _W-bit fixed point, relative to
    the mode's exact weight (_pmf_walk), and sums them against the
    schedule's rational envelope values; count rounding contributes at
    most sum_k p^k (1-p)^(n-k), which widens g down and h up. Only the
    final brackets become doubles: each value is the double nearest its
    bracket's midpoint, and each radius covers the bracket, rounded up.

    Each side of the walk stops once the weights past it sum to at most
    one ulp, so only a few thousand k are visited at n = 2**17. The
    weights it skips are bounded by a geometric tail, which is added to
    the upper ends of g and h. That is sound only when
    0 <= alpha <= beta <= 1 for every k, which holds for every schedule
    in the bounds class; doubling_raw_schedule below n0 is not in it. A
    visited pair outside that range raises InvalidSchedule.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    if not schedule.is_checkpoint(n):
        raise ValueError(f"{n} is not a checkpoint")
    if mode == "exact":
        return _eval_exact(schedule, p, n)
    if mode == "float-with-bound":
        return _eval_float(schedule, p, n)
    raise ValueError(f"unknown mode {mode!r}")


def _row(counts, n: int):
    """(k, binom(n, k), count_a, count_b) across row n from counts(n, k, b), b threaded."""
    for k, b in enumerate(binom_row(n)):
        ca, cb = counts(n, k, b)
        yield k, b, ca, cb


def _eval_exact(schedule: EnvelopeSchedule, p: Fraction, n: int) -> EnvelopeValues:
    cas, cbs = zip(*((ca, cb) for _, _, ca, cb in _row(schedule.counts, n)))
    g, h = bernstein_sums((cas, cbs), p)
    return EnvelopeValues(g, h, Fraction(0), Fraction(0))


def _eval_float(schedule: EnvelopeSchedule, p: Fraction, n: int) -> EnvelopeValues:
    a, d = p.numerator, p.denominator
    c = d - a
    k0 = (n + 1) * a // d
    # g and h sum floor(alpha t) and floor(beta t) over the walked weights
    # t, relative to the mode's in _W fractional bits. err bounds what both
    # miss: term s is under s ulps low and loses under one more to the
    # floor, and a side's skipped terms, with alpha and beta in [0, 1], add
    # at most its tail
    g = h = err = 0
    for step, walk in ((1, (n, a, c, k0)), (-1, (n, c, a, n - k0))):
        terms, tail = _pmf_walk(*walk)
        err += tail + len(terms) * (len(terms) + 1) // 2
        # the up side takes the mode's weight, the down side starts past it
        for s in range(step < 0, len(terms)):
            k = k0 + step * s
            alpha, beta = schedule.ab_values(n, k)
            if not 0 <= alpha <= beta <= 1:
                raise InvalidSchedule(n, k, f"envelope pair ({alpha}, {beta}) "
                                            "outside 0 <= alpha <= beta <= 1")
            g += floor_frac_mul(alpha, terms[s])
            h += floor_frac_mul(beta, terms[s])
    dn = d ** n
    # the mode's weight binom(n, k0) a**k0 c**(n - k0) / d**n in _W bits,
    # rounded down, so w0 + 1 bounds it above
    w0 = (binom(n, k0) * a ** k0 * c ** (n - k0) << _W) // dn
    # count_a = floor(alpha * binom) lies in [alpha * binom - 1, alpha * binom]
    # and count_b in [beta * binom, beta * binom + 1]: g widens down by the
    # slack and h up. The brackets are in 2 * _W fractional bits
    slack = _rounding_slack(n, a, c, dn) << _W
    g, g_err = _nearest_double(g * w0 - slack, (g + err) * (w0 + 1), 2 * _W)
    h, h_err = _nearest_double(h * w0, (h + err) * (w0 + 1) + slack, 2 * _W)
    return EnvelopeValues(g, h, g_err, h_err)


def _pmf_walk(n: int, a: int, c: int, j: int) -> tuple[list[int], int]:
    """_walk of w(i) = binom(n, i) a**i c**(n - i), the binomial pmf at p =
    a/(a + c) times (a + c)**n, from j up to n. w's mode is floor((n + 1) a
    / (a + c)); swapping a and c mirrors w, so _pmf_walk(n, c, a, n - j)
    walks it down from j."""
    return _walk(lambda i: ((n - i) * a, (i + 1) * c), j, n)


def _rounding_slack(n: int, a: int, c: int, dn: int) -> int:
    """sum_k p**k q**(n - k) rounded up in _W fractional bits, p = a/d, q = c/d, dn = d**n.

    The sum is (c**(n + 1) - a**(n + 1)) / ((c - a) d**n), or (n + 1) / 2**n
    at p = 1/2.
    """
    total = n + 1 if a == c else (c ** (n + 1) - a ** (n + 1)) // (c - a)
    return -(-(total << _W) // dn)


def _nearest_double(lo: int, hi: int, bits: int) -> tuple[float, float]:
    """The double nearest the midpoint of [lo, hi] / 2**bits, and a radius
    about it covering the bracket, taken exactly and rounded up."""
    lo, hi = Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)
    mid = float((lo + hi) / 2)
    r = max(hi - Fraction(mid), Fraction(mid) - lo)
    rf = float(r)
    return mid, rf if rf >= r else math.nextafter(rf, math.inf)


@dataclass(frozen=True)
class Violation:
    kind: str  # bounds | lower-consistency | upper-consistency
    n: int
    k: int
    lhs: int
    rhs: int


@dataclass
class ValidationReport:
    max_checkpoint: int
    checked: list[int]
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_schedule(schedule: EnvelopeSchedule, max_checkpoint: int) -> ValidationReport:
    """Exact big-integer verification of bounds and consecutive consistency.

    Violations are report entries, never exceptions: all bounds ones
    first, then per cell lower before upper consistency. Each jump between
    consecutive checkpoints is checked on the level sums a run builds, so
    a jump from an idle level costs a Vandermonde total per cell and a
    walked one a term walk, with the exact sums only where the bounds
    leave a check open; the first checkpoint has only the bounds check.
    Raw (unclamped) envelope variants are held to the two convolution
    inequalities alone: their entries whose kind is not "bounds".
    """
    if max_checkpoint < 1:
        raise InvalidParams(f"max checkpoint {max_checkpoint} must be at least 1")
    points = schedule.checkpoints_upto(max_checkpoint)
    violations: list[Violation] = []
    ctx = RankContext(schedule)  # private: its row memo ends with this call
    for n in points:
        # memoizes the rows' counts, so the jumps below take no binomial for them
        for k, b, ca, cb in _row(ctx.counts, n):
            if not 0 <= ca <= cb <= b:
                violations.append(Violation("bounds", n, k, ca, cb))
    for m, n in zip(points, points[1:]):
        for k, b in enumerate(binom_row(n)):
            violations += [Violation(kind, n, k, lhs, rhs) for kind, lhs, rhs, _
                           in _LevelData(ctx, m, n, k, b).failed_checks() if kind != "order"]
    return ValidationReport(max_checkpoint, points, violations)


def dump_envelope_csv(schedule: EnvelopeSchedule, max_checkpoint: int, path) -> None:
    """CSV dump: comment line naming schedule and parameters, then n,k,count_a,count_b."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        params = json.dumps({k: str(v) for k, v in sorted(schedule.params.items())})
        fh.write(f"# schedule={schedule.name} params={params}\n")
        fh.write("n,k,count_a,count_b\n")
        for n in schedule.checkpoints_upto(max_checkpoint):
            for k, _, ca, cb in _row(schedule.counts, n):
                fh.write(f"{n},{k},{ca},{cb}\n")
