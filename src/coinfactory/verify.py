"""Ground-truth machinery: exhaustive oracles, Monte Carlo, tail profiling.

Everything here is allowed to be slow and literal. The oracle walks the
target's read tree: it runs the target on tapes in lexicographic order
and credits each run's result to every tape that shares the bits the run
read, so its accept/undecided masses are exact rationals that an engine
or plan implementation can be compared against bit for bit. An envelope
schedule is ranked rather than run, each tape resuming from the rank
state of the deepest checkpoint it shares with the tape before it.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .coins import CoinSource, GeneratorSource, TapeSource, _replica_seeds
from .combinators import FactoryPlan, plan_hash, run_plan
from .engine import Decision, EnvelopeSchedule, rank_word, simulate
from .errors import (
    DepthTooLarge,
    InsufficientTail,
    InvalidParams,
    SourceExhausted,
    Undecided,
)
from .numerics import bernstein_sums, binom, binom_row, dyadic_sqrt_upper
from .walk import WalkConfig, approx_double_bit

MAX_ORACLE_DEPTH = 20

Target = Union[FactoryPlan, EnvelopeSchedule, WalkConfig, Callable[[CoinSource], object]]


@dataclass(frozen=True)
class HypergeomSpec:
    """Sampling n from a population of 2n with k marked items."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("population parameter n must be positive")
        if not 0 <= self.k <= 2 * self.n:
            raise InvalidParams(f"k = {self.k} outside [0, {2 * self.n}]")


@dataclass(frozen=True)
class SimulationReport:
    plan_hash: str
    p: Fraction
    runs: int
    successes: int
    undecided: int
    estimate: Fraction
    wilson_lo: Fraction
    wilson_hi: Fraction
    toss_mean: Fraction
    toss_max: int
    toss_q50: int
    toss_q90: int
    toss_q99: int
    tail_curve: tuple
    seed: int


@dataclass(frozen=True)
class TailFit:
    rho_hat: Fraction
    c_hat: Fraction
    window: tuple
    residual: Fraction


@dataclass(frozen=True)
class FeasibilityResult:
    n: Optional[int]
    worst_p: Optional[Fraction]
    message: str

    @property
    def ok(self) -> bool:
        return self.n is not None


# --- exhaustive tape oracle --------------------------------------------------


def oracle_enumerate(target: Target, depth: int, p) -> tuple[Fraction, Fraction]:
    """Exact accept and undecided masses of the target over depth-bit tapes.

    Premise: a run's result is a function of the bits it drew, so the
    unread suffix integrates out. Tapes are visited in lexicographic order;
    a run that read r bits decides all 2^(depth - r) tapes sharing those
    bits, which weigh p^ones q^(r - ones) together, and the next run starts
    past that prefix. So the target runs once per leaf of its read tree.
    A tape that raises an exhaustion before deciding counts as undecided;
    it was read to its end, so nothing is skipped there. An envelope
    schedule is ranked on its rank_context: each leaf resumes from the
    deepest checkpoint it shares with the last word ranked there, by this
    call or an earlier one (see engine.rank_word), and a word that
    continues at the last checkpoint at or below depth credits its r-bit
    prefix as undecided, the mass its tapes' exhaustion would credit.
    """
    if depth > MAX_ORACLE_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds the oracle cap {MAX_ORACLE_DEPTH}")
    if depth < 1:
        raise InvalidParams("depth must be at least 1")
    p = Fraction(p)
    if not 0 < p < 1:
        raise InvalidParams("p must lie strictly inside (0, 1)")
    run = _tape_runner(target, depth)
    a, b = p.numerator, p.denominator
    c = b - a
    pa = [a ** i for i in range(depth + 1)]
    qa = [c ** i for i in range(depth + 1)]
    ba = [b ** i for i in range(depth + 1)]
    mass = {1: 0, None: 0}  # accept and undecided numerators over b^depth
    m = 0
    while m < 1 << depth:
        bit, r = run(format(m, f"0{depth}b").encode().translate(_BITS))
        prefix = m >> (depth - r)
        if prefix << (depth - r) != m:
            raise InvalidParams(
                f"target read {r} bits on tape {m:0{depth}b}, a prefix already "
                f"credited: its result is not a function of the bits it drew")
        if bit in mass:
            ones = prefix.bit_count()
            mass[bit] += pa[ones] * qa[r - ones] * ba[depth - r]
        m = (prefix + 1) << (depth - r)
    return Fraction(mass[1], ba[depth]), Fraction(mass[None], ba[depth])


# ASCII "0" and "1" to the bytes 0 and 1, one bit per byte
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DECISION_BITS = {Decision.OutputOne: 1, Decision.OutputZero: 0}


def _tape_runner(target: Target, depth: int):
    """run(bits) -> (result bit or None if undecided, bits read) on one tape."""
    if isinstance(target, EnvelopeSchedule):
        ctx = target.rank_context

        def rank(bits: bytes):
            decision, pos = rank_word(ctx, bits)
            return _DECISION_BITS.get(decision), pos

        return rank
    replica = _replica_runner(target, None)

    def run(bits: bytes):
        tape = TapeSource(bits)
        try:
            bit = replica(tape).bit
        except (SourceExhausted, Undecided):
            bit = None
        return bit, tape.position

    return run


# --- distribution utilities --------------------------------------------------


def hypergeom_pmf(spec: HypergeomSpec, i: int) -> Fraction:
    """P(X = i) for X counting marked items in the sample; 0 off support."""
    n, k = spec.n, spec.k
    if i < 0 or i > n or k - i < 0 or k - i > n:
        return Fraction(0)
    return Fraction(binom(n, i) * binom(n, k - i), binom(2 * n, k))


def bernstein_eval(f: Callable[[Fraction], object], n: int, x) -> Fraction:
    """Degree-n Bernstein polynomial of f at x, exact."""
    if n < 1:
        raise InvalidParams("degree must be at least 1")
    # integer weights over the common denominator s of the samples, so the
    # big binomials never enter Fraction products
    samples = [Fraction(f(Fraction(k, n))) for k in range(n + 1)]
    s = math.lcm(*(v.denominator for v in samples))
    weights = [v.numerator * (s // v.denominator) * b for v, b in zip(samples, binom_row(n))]
    return bernstein_sums([weights], x)[0] / s


def feasibility_check(f: Callable[[Fraction], object], grid: Sequence,
                      n_max: int) -> FeasibilityResult:
    """Smallest exponent n with min(f, 1-f) >= min(p, 1-p)**n on the grid."""
    points = [Fraction(p) for p in grid]
    vals = []
    for p in points:
        v = Fraction(f(p))
        if not 0 <= v <= 1:
            raise InvalidParams(f"f({p}) = {v} outside [0, 1]")
        vals.append(min(v, 1 - v))
    for n in range(1, n_max + 1):
        ok = True
        for p, v in zip(points, vals):
            if v < min(p, 1 - p) ** n:
                ok = False
                break
        if ok:
            return FeasibilityResult(n, None, f"holds on the grid at n = {n}")
    worst_p = None
    worst_gap = None
    for p, v in zip(points, vals):
        gap = min(p, 1 - p) ** n_max - v
        if gap > 0 and (worst_gap is None or gap > worst_gap):
            worst_gap = gap
            worst_p = p
    return FeasibilityResult(
        None,
        worst_p,
        f"fails up to n = {n_max}; worst point p = {worst_p} has "
        f"min(f, 1-f) short by {worst_gap}",
    )


# --- Monte Carlo harness ------------------------------------------------------


def _target_hash(target: Target) -> str:
    if isinstance(target, FactoryPlan):
        return plan_hash(target)
    if isinstance(target, EnvelopeSchedule):
        blob = json.dumps(target.metadata(), sort_keys=True, separators=(",", ":"))
        return "schedule-" + hashlib.sha256(blob.encode("ascii")).hexdigest()
    if isinstance(target, WalkConfig):
        return f"walk-{target.steps}"
    return f"callable-{getattr(target, '__name__', 'anonymous')}"


def _replica_runner(target: Target, max_tosses: Optional[int]):
    if isinstance(target, EnvelopeSchedule):
        return lambda src: simulate(target, src, max_tosses=max_tosses)
    if max_tosses is not None:
        raise InvalidParams(f"max_tosses applies only to envelope schedules, "
                            f"not to a {type(target).__name__} target")
    if isinstance(target, FactoryPlan):
        return lambda src: run_plan(target, src)
    if isinstance(target, WalkConfig):
        return lambda src: approx_double_bit(target, src)
    if callable(target):
        return target
    raise InvalidParams(f"cannot simulate target of type {type(target).__name__}")


def monte_carlo(target: Target, p, runs: int, seed: int, *,
                max_tosses: Optional[int] = None, undecided: str = "error",
                tail_points: Optional[Sequence[int]] = None) -> SimulationReport:
    """Independent replicas on index-forked sources; deterministic by seed.

    Replica i draws from a fresh generator keyed by mix_seed(seed, i), so
    the report is identical however the replicas are scheduled; the
    replicas' seeds are hashed a chunk at a time, which leaves every
    stream as GeneratorSource(mix_seed(seed, i), p) gives it. With
    undecided="midpoint" a capped run scores 1/2, the midpoint of the
    still-possible outputs; the exact envelope bracket then makes the
    estimator's bias the bracket asymmetry, which is negligible for the
    capped targets used here. seed must lie in [0, 2**64): mix_seed reduces
    its seed mod 2**64, so a seed outside that range would name the stream
    of another while the report recorded its own.
    """
    if runs < 1:
        raise InvalidParams("runs must be at least 1")
    if not 0 <= seed < 1 << 64:
        raise InvalidParams(f"seed = {seed} must lie in [0, 2**64)")
    if undecided not in ("error", "midpoint"):
        raise InvalidParams("undecided policy must be 'error' or 'midpoint'")
    if max_tosses is not None and max_tosses < 1:
        raise InvalidParams(f"max_tosses = {max_tosses} must be at least 1")
    p = Fraction(p)
    if not 0 < p < 1:
        raise InvalidParams(f"p = {p} must lie strictly inside (0, 1)")
    run = _replica_runner(target, max_tosses)
    successes = 0
    n_undec = 0
    tosses = [0] * runs
    for i, key in enumerate(_replica_seeds(seed, runs)):
        src = GeneratorSource(key, p)
        try:
            rec = run(src)
            successes += rec.bit
            tosses[i] = rec.tosses
        except Undecided as u:
            if undecided == "error":
                raise
            n_undec += 1
            tosses[i] = u.tosses

    estimate = Fraction(2 * successes + n_undec, 2 * runs)
    lo, hi = _wilson_997(estimate, runs)
    ordered = sorted(tosses)
    mean = Fraction(sum(tosses), runs)
    if tail_points is None:
        pts = []
        b = 1
        while b <= ordered[-1]:
            pts.append(b)
            b *= 2
    else:
        pts = sorted(set(int(x) for x in tail_points))
    curve = [(n, Fraction(runs - bisect_right(ordered, n), runs)) for n in pts]
    return SimulationReport(
        plan_hash=_target_hash(target),
        p=p,
        runs=runs,
        successes=successes,
        undecided=n_undec,
        estimate=estimate,
        wilson_lo=lo,
        wilson_hi=hi,
        toss_mean=mean,
        toss_max=ordered[-1],
        toss_q50=_quantile(ordered, Fraction(1, 2)),
        toss_q90=_quantile(ordered, Fraction(9, 10)),
        toss_q99=_quantile(ordered, Fraction(99, 100)),
        tail_curve=tuple(curve),
        seed=seed,
    )


def _quantile(ordered: list, q: Fraction) -> int:
    idx = math.ceil(q * len(ordered)) - 1
    return ordered[max(0, idx)]


def _wilson_997(p_hat: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Wilson score interval at z = 3, widened outward by the dyadic sqrt."""
    z2 = 9
    denom = 1 + Fraction(z2, n)
    center = (p_hat + Fraction(z2, 2 * n)) / denom
    rad2 = z2 * (p_hat * (1 - p_hat) / n + Fraction(z2, 4 * n * n))
    half = dyadic_sqrt_upper(rad2) / denom
    return max(Fraction(0), center - half), min(Fraction(1), center + half)


# --- tail profiling -----------------------------------------------------------


def tail_profile(report: SimulationReport) -> TailFit:
    """Least-squares geometric fit of the empirical tail.

    Drops the idle plateau (leading tail values equal to 1) and all zero
    entries; fits log P(N>n) linearly in n. Diagnostic only, so float
    logs are fine; results are returned as exact-valued fractions of the
    computed floats.
    """
    curve = list(report.tail_curve)
    while curve and curve[0][1] == 1:
        curve.pop(0)
    curve = [(n, v) for n, v in curve if v > 0]
    if len(curve) < 3:
        raise InsufficientTail(f"only {len(curve)} usable tail points")
    xs = [n for n, _ in curve]
    ys = [math.log(float(v)) for _, v in curve]
    m = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = m * sxx - sx * sx
    if det == 0:
        raise InsufficientTail("degenerate fit window")
    slope = (m * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    if slope >= 0:
        raise InsufficientTail("tail does not decay over the fit window")
    resid = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / m
    return TailFit(
        rho_hat=Fraction(math.exp(slope)),
        c_hat=Fraction(math.exp(intercept)),
        window=(xs[0], xs[-1]),
        residual=Fraction(resid),
    )


# --- serialization ------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def report_to_json(report: SimulationReport) -> dict:
    return {
        "plan_hash": report.plan_hash,
        "p": _frac_str(report.p),
        "runs": report.runs,
        "successes": report.successes,
        "undecided": report.undecided,
        "estimate": _frac_str(report.estimate),
        "wilson_997": [_frac_str(report.wilson_lo), _frac_str(report.wilson_hi)],
        "tosses": {
            "mean": _frac_str(report.toss_mean),
            "max": report.toss_max,
            "q50": report.toss_q50,
            "q90": report.toss_q90,
            "q99": report.toss_q99,
        },
        "tail_curve": [[n, _frac_str(v)] for n, v in report.tail_curve],
        "seed": report.seed,
    }


def save_report(report: SimulationReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report_to_json(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_from_json(doc: dict) -> SimulationReport:
    try:
        lo, hi = doc["wilson_997"]
        t = doc["tosses"]
        return SimulationReport(
            plan_hash=doc["plan_hash"],
            p=Fraction(doc["p"]),
            runs=doc["runs"],
            successes=doc["successes"],
            undecided=doc.get("undecided", 0),
            estimate=Fraction(doc["estimate"]),
            wilson_lo=Fraction(lo),
            wilson_hi=Fraction(hi),
            toss_mean=Fraction(t["mean"]),
            toss_max=t["max"],
            toss_q50=t["q50"],
            toss_q90=t["q90"],
            toss_q99=t["q99"],
            tail_curve=tuple((n, Fraction(v)) for n, v in doc["tail_curve"]),
            seed=doc["seed"],
        )
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InvalidParams(f"malformed report: {e!r}") from e
