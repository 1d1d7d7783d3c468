"""Factory plans: an algebra of exact coin transformations.

A plan is an immutable tree. Leaves draw coin bits (Identity), emit
rational constants from fair bits (Const), toss a polynomial in p given
by its Bernstein coefficients in [0, 1] (Bernstein: n raw tosses, then
the constant coin of the count of ones), or run an envelope schedule
(Envelope). Interior nodes combine children: logical AND for products,
a fair-bit select for averages, complement, and a probability doubler
that feeds its child's outputs to either the exact envelope engine or
the approximate walk. Sums, differences, scalar multiples and power
series are derived forms that expand into those primitives; the derived
node kinds keep their own identity for serialization but execute through
a hidden expansion built at construction time. A quotient f/g runs as a
Bernoulli race between f and a Bernstein coin for g - f whenever that
difference is a polynomial with a Bernstein form in [0, 1]; otherwise it
too expands into a rescaling chain.

Every node carries a certified domain and a range interval propagated by
interval arithmetic; constructors refuse to build nodes whose margin
preconditions fail on those intervals. Range intervals always describe
the exact-backend semantics; the one-sided bias of an approximate walk
backend is tracked separately (see plan_bias_interval) so that a margin
check can never be satisfied by an approximation error. Each kind's rules
(run, bias interval, polynomial, load) sit in one entry of _KINDS.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .coins import CoinSource
from .engine import OutcomeRecord, simulate
from .errors import (
    BackendRequired,
    DivergenceRisk,
    InvalidParams,
    MarginViolated,
)
from .numerics import (
    bernstein_coeffs,
    bernstein_poly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_norm,
    poly_sub,
)
from .schedules import DoublingParams, doubling_schedule, monomial_schedule
from .walk import WalkConfig, approx_double_bit, walk_error_bound


@dataclass(frozen=True)
class PlanBounds:
    lo: Fraction
    hi: Fraction
    source: str = "propagated"  # declared | propagated

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise InvalidParams(f"empty interval [{self.lo}, {self.hi}]")
        if self.source not in ("declared", "propagated"):
            raise InvalidParams(f"unknown bounds source {self.source!r}")


def bounds(lo, hi, source: str = "declared") -> PlanBounds:
    return PlanBounds(Fraction(lo), Fraction(hi), source)


UNIVERSAL = PlanBounds(Fraction(0), Fraction(1), "declared")


@dataclass(frozen=True)
class FactoryPlan:
    """One node of a plan tree.

    data holds the node's exact parameters as sorted (name, value) pairs;
    _cache holds derived executors and integer parameters and never takes
    part in equality, hashing, or serialization.
    """

    kind: str
    domain: PlanBounds
    range_iv: PlanBounds
    children: tuple = ()
    data: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False, hash=False, compare=False)

    def get(self, name: str):
        for key, value in self.data:
            if key == name:
                return value
        raise KeyError(name)


def with_range(plan: FactoryPlan, lo, hi) -> FactoryPlan:
    """Same plan with a caller-certified range interval.

    Used by compilers that can prove sharper bounds than the constructors'
    interval propagation; the replacement is marked "declared".
    """
    out = FactoryPlan(plan.kind, plan.domain,
                      PlanBounds(Fraction(lo), Fraction(hi), "declared"),
                      plan.children, plan.data)
    out._cache.update(plan._cache)
    return out


def _intersect(*plans: FactoryPlan) -> PlanBounds:
    lo = max(p.domain.lo for p in plans)
    hi = min(p.domain.hi for p in plans)
    if lo > hi:
        raise InvalidParams("children have disjoint certified domains")
    return PlanBounds(lo, hi, "propagated")


def _range(lo: Fraction, hi: Fraction) -> PlanBounds:
    lo = max(Fraction(0), lo)
    hi = min(Fraction(1), hi)
    return PlanBounds(lo, hi, "propagated")


# --- leaf constructors ------------------------------------------------------


def identity_plan(domain: PlanBounds = UNIVERSAL) -> FactoryPlan:
    return FactoryPlan("identity", domain, PlanBounds(domain.lo, domain.hi, "propagated"))


def constant_plan(c, domain: PlanBounds = UNIVERSAL) -> FactoryPlan:
    """Coin of exactly bias c from fair bits.

    Fair bits come from von Neumann pairs; the index m of the first fair 1
    is geometric(1/2), and emitting binary digit m of c, the only one a
    run computes, lands on bias sum(c_m 2**-m) = c.
    """
    c = Fraction(c)
    if not 0 <= c <= 1:
        raise InvalidParams("constant must lie in [0, 1]")
    plan = FactoryPlan("const", domain, PlanBounds(c, c, "propagated"), data=(("c", c),))
    plan._cache["ratio"] = (c.numerator, c.denominator)
    return plan


# Highest degree of a Bernstein coin, in a race or a compiled polynomial;
# each toss of the coin costs `degree` raw tosses plus one constant coin.
BERNSTEIN_MAX_DEGREE = 64


def bernstein_plan(coeffs, domain: PlanBounds = UNIVERSAL) -> FactoryPlan:
    """Coin of bias sum_k b_k C(n, k) p**k (1-p)**(n-k), every b_k in [0, 1].

    A run makes n raw tosses and, seeing k ones, tosses the constant coin
    b_k (Keane & O'Brien 1994; Goyal & Sigman 2012). The bias is exact and
    lies between the least and the greatest b_k.
    """
    b = tuple(Fraction(v) for v in coeffs)
    if not b:
        raise InvalidParams("a Bernstein coin needs at least one coefficient")
    if len(b) - 1 > BERNSTEIN_MAX_DEGREE:
        raise InvalidParams(f"Bernstein degree {len(b) - 1} exceeds {BERNSTEIN_MAX_DEGREE}")
    if not all(0 <= v <= 1 for v in b):
        raise InvalidParams("Bernstein coefficients must lie in [0, 1]")
    plan = FactoryPlan("bernstein", domain, PlanBounds(min(b), max(b), "propagated"),
                       data=(("b", b),))
    plan._cache["coins"] = tuple(constant_plan(v) for v in b)
    plan._cache["poly"] = bernstein_poly(b)
    return plan


# --- structural combinators -------------------------------------------------


def _combine(kind: str, domain: PlanBounds, *children: FactoryPlan) -> FactoryPlan:
    # the range is the kind's bias rule applied to the children's ranges
    lo, hi = _KINDS[kind].bias(None, None, [(c.range_iv.lo, c.range_iv.hi) for c in children])
    return FactoryPlan(kind, domain, _range(lo, hi), children=children)


def complement(child: FactoryPlan) -> FactoryPlan:
    return _combine("complement", child.domain, child)


def product(left: FactoryPlan, right: FactoryPlan) -> FactoryPlan:
    return _combine("product", _intersect(left, right), left, right)


def average(left: FactoryPlan, right: FactoryPlan) -> FactoryPlan:
    return _combine("average", _intersect(left, right), left, right)


def double_plan(child: FactoryPlan, eps_prime, backend=None) -> FactoryPlan:
    """Doubler node: output bias 2q for a child of bias q <= 1/2 - 4*eps_prime.

    The margin keeps the child inside the region where the doubling
    envelope's cap 1-2*eps_prime never binds and its tail bound is
    uniform. backend is ("exact",) or ("approx", walk_steps); with the
    approx backend the true bias undershoots 2q by at most
    2*exp(-2*steps*(1/2-q)**2), recorded in the node data.
    """
    eps_prime = Fraction(eps_prime)
    if not 0 < eps_prime < Fraction(1, 8):
        raise InvalidParams("eps_prime must lie in (0, 1/8)")
    q_hi = child.range_iv.hi
    if q_hi > Fraction(1, 2) - 4 * eps_prime:
        raise MarginViolated(
            f"child range upper bound {q_hi} exceeds 1/2 - 4*eps' = {Fraction(1, 2) - 4 * eps_prime}"
        )
    backend = _check_backend(backend)
    if backend == ("exact",):
        # search the doubling schedule now, so a margin that admits no
        # first checkpoint is refused here and not at the first run
        try:
            _exact_backend(eps_prime)
        except InvalidParams as e:
            raise InvalidParams(f"exact doubler with eps' = {eps_prime}: {e}") from None
    data = [("eps_prime", eps_prime), ("backend", backend)]
    if backend is not None and backend[0] == "approx":
        data.append(("walk_bias_bound", walk_error_bound(backend[1], q_hi)))
    return FactoryPlan(
        "double",
        child.domain,
        _range(2 * child.range_iv.lo, 2 * q_hi),
        children=(child,),
        data=tuple(data),
    )


def _check_backend(backend):
    if backend is None:
        return None
    if backend[0] == "exact" and len(backend) == 1:
        return ("exact",)
    if backend[0] == "approx" and len(backend) == 2 and int(backend[1]) >= 1:
        return ("approx", int(backend[1]))
    raise InvalidParams(
        f"backend must be ('exact',) or ('approx', steps) with steps >= 1: {backend!r}")


def sum_plan(f: FactoryPlan, g: FactoryPlan, eps, backend=None) -> FactoryPlan:
    """f + g as Double(Average(f, g)) with eps' = eps/8.

    Requires the certified range of f+g inside [0, 1-eps]; the average
    then sits below 1/2 - 4*eps', exactly the doubler's margin.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidParams("eps must lie in (0, 1)")
    if f.range_iv.hi + g.range_iv.hi > 1 - eps:
        raise MarginViolated(
            f"certified sum range reaches {f.range_iv.hi + g.range_iv.hi} > 1 - eps = {1 - eps}"
        )
    return double_plan(average(f, g), eps / 8, backend)


def difference_plan(left: FactoryPlan, right: FactoryPlan, margin=None, backend=None) -> FactoryPlan:
    """f - g via 1 - ((1-f) + g); needs f - g >= margin > 0 certified."""
    if margin is None:
        margin = left.range_iv.lo - right.range_iv.hi
    margin = Fraction(margin)
    if margin <= 0 or left.range_iv.lo - right.range_iv.hi < margin:
        raise MarginViolated(
            f"certified difference lower bound {left.range_iv.lo - right.range_iv.hi} "
            f"does not clear margin {margin}"
        )
    impl = complement(sum_plan(complement(left), right, margin, backend))
    plan = FactoryPlan(
        "difference",
        _intersect(left, right),
        _range(margin, left.range_iv.hi - right.range_iv.lo),
        children=(left, right),
        data=(("margin", margin), ("backend", _check_backend(backend))),
    )
    plan._cache["impl"] = impl
    return plan


def scalar_mul_plan(a, child: FactoryPlan, margin=None, backend=None) -> FactoryPlan:
    """a*f for rational a > 0.

    a <= 1 is a plain thinning (AND with a constant coin). a > 1 writes
    a = 2**n * (a / 2**n) and chains n doubler stages; each stage's
    eps' is min(1/9, (1/2 - stage_hi)/4), positive because the certified
    final range stays strictly below 1.
    """
    a = Fraction(a)
    if a <= 0:
        raise InvalidParams("scalar must be positive")
    hi = a * child.range_iv.hi
    if margin is None:
        margin = max(Fraction(0), 1 - hi)
    margin = Fraction(margin)
    if hi > 1 - margin:
        raise MarginViolated(f"certified range of a*f reaches {hi} > 1 - margin")
    if a > 1:
        if hi >= 1:
            raise MarginViolated("a*f must stay strictly below 1 to chain doublers")
        stages = 0
        while (1 << stages) < a:
            stages += 1
        impl = product(constant_plan(a / (1 << stages)), child)
        for _ in range(stages):
            stage_hi = impl.range_iv.hi
            eps_prime = min(Fraction(1, 9), (Fraction(1, 2) - stage_hi) / 4)
            impl = double_plan(impl, eps_prime, backend)
    elif a == 1:
        impl = child
    else:
        impl = product(constant_plan(a), child)
    plan = FactoryPlan(
        "scalar_mul",
        child.domain,
        _range(a * child.range_iv.lo, hi),
        children=(child,),
        data=(("a", a), ("margin", margin), ("backend", _check_backend(backend))),
    )
    plan._cache["impl"] = impl
    return plan


# --- power series -----------------------------------------------------------


@dataclass(frozen=True)
class ConstantCoeffs:
    """All series coefficients equal to one rational value."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise InvalidParams("coefficients must be nonnegative")

    def coeff(self, n: int) -> Fraction:
        return self.value

    def sum_bounds(self, x: Fraction) -> tuple[Fraction, Fraction]:
        # geometric series, closed form
        if x >= 1:
            raise DivergenceRisk("constant series diverges at arguments >= 1")
        s = self.value / (1 - x)
        return s, s


@dataclass(frozen=True)
class CallbackCoeffs:
    """Coefficient callback plus a geometric tail certificate.

    tail_ratio r certifies coeff(n+1)*t <= r*coeff(n)*t... i.e. the ratio
    of consecutive terms at argument t is at most r < 1 from tail_from on;
    partial sums then bracket the series value at any x <= t.
    """

    fn: Callable[[int], Fraction]
    t: Fraction
    tail_ratio: Fraction
    tail_from: int

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "tail_ratio", Fraction(self.tail_ratio))
        if not 0 <= self.tail_ratio < 1:
            raise DivergenceRisk("tail ratio certificate must lie in [0, 1)")
        if self.tail_from < 0:
            raise InvalidParams("tail_from must be nonnegative")

    def coeff(self, n: int) -> Fraction:
        v = Fraction(self.fn(n))
        if v < 0:
            raise InvalidParams(f"coefficient a_{n} = {v} is negative")
        return v

    def sum_bounds(self, x: Fraction) -> tuple[Fraction, Fraction]:
        if x > self.t:
            raise DivergenceRisk("argument outside the certified radius")
        partial = Fraction(0)
        for n in range(self.tail_from + 1):
            partial += self.coeff(n) * x ** n
        # ratio at x is at most tail_ratio * x/t <= tail_ratio
        last = self.coeff(self.tail_from) * x ** self.tail_from
        tail = last * self.tail_ratio / (1 - self.tail_ratio)
        return partial, partial + tail


def series_plan(coeffs, t, eps, domain: Optional[PlanBounds] = None,
                child: Optional[FactoryPlan] = None, backend=None) -> FactoryPlan:
    """Power series sum(a_n q**n) of a coin q, for nonnegative a_n.

    Samples a geometric level N with P(N=n) = ((t-eps)/t)**n * (eps/t),
    ANDs N runs of the child thinned by 1/(t-eps) with one constant coin
    a_N * t**N, which accepts with probability (eps/t) * f(q); the final
    rescale by t/eps is the returned node's parent ScalarMul.
    """
    if child is None:
        child = identity_plan(domain if domain is not None else UNIVERSAL)
    core = _series_core(child, coeffs, t, eps, backend)
    return scalar_mul_plan(core.get("t") / core.get("eps"), core, backend=backend)


def _series_core(child: FactoryPlan, coeffs, t, eps, backend) -> FactoryPlan:
    """The series_nonneg node, of bias (eps/t) * f(q), before its rescale."""
    t = Fraction(t)
    eps = Fraction(eps)
    if not 0 < eps < t < 1:
        raise InvalidParams("need 0 < eps < t < 1")
    if child.range_iv.hi > t - 2 * eps:
        raise MarginViolated(
            f"series argument range reaches {child.range_iv.hi} > t - 2*eps = {t - 2 * eps}"
        )
    _, f_at_t = coeffs.sum_bounds(t)
    if f_at_t >= 1:
        raise DivergenceRisk(f"certified series value at t is {f_at_t} >= 1")
    f_lo, _ = coeffs.sum_bounds(child.range_iv.lo)
    _, f_hi = coeffs.sum_bounds(child.range_iv.hi)
    core = FactoryPlan(
        "series_nonneg",
        child.domain,
        _range(eps / t * f_lo, eps / t * f_hi),
        children=(child,),
        data=(("t", t), ("eps", eps), ("coeffs", coeffs),
              ("backend", _check_backend(backend))),
    )
    core._cache["trial"] = constant_plan(eps / t)
    core._cache["scaled_child"] = scalar_mul_plan(1 / (t - eps), child, backend=backend)
    core._cache["level_coins"] = {}
    return core


def series_general_plan(pos, neg, t, eps, M, domain: Optional[PlanBounds] = None,
                        backend=None) -> FactoryPlan:
    """Difference of two nonnegative series, f = g - h, with h bounded by M."""
    gp = series_plan(pos, t, eps, domain=domain, backend=backend)
    hp = series_plan(neg, t, eps, domain=domain, backend=backend)
    return _series_general(gp, hp, M, backend)


def _series_general(gp: FactoryPlan, hp: FactoryPlan, M, backend) -> FactoryPlan:
    M = Fraction(M)
    if hp.range_iv.hi > M:
        raise MarginViolated(f"negative part reaches {hp.range_iv.hi} > declared bound {M}")
    impl = difference_plan(gp, hp, backend=backend)
    plan = FactoryPlan(
        "series_general",
        impl.domain,
        impl.range_iv,
        children=(gp, hp),
        data=(("M", M), ("backend", _check_backend(backend))),
    )
    plan._cache["impl"] = impl
    return plan


def quotient_plan(f: FactoryPlan, g: FactoryPlan, eps, M, backend=None,
                  quot_range: Optional[tuple] = None) -> FactoryPlan:
    """f/g given certificates g >= eps, f/g <= 1 - eps, g <= M.

    Runs as a Bernoulli race (Dughmi, Hartline, Kleinberg & Niazadeh
    2017) of f against an h-coin, h = g - f: a fair bit picks a toss of f
    or of h; f showing 1 returns 1, h showing 1 returns 0, and otherwise
    the round repeats. The output bias is f/(f+h) = f/g, and each round
    stops with probability g/2 >= eps/2. h is the difference of the
    children's exact polynomials, run as a bernstein node kept in the
    node's cache, so it takes no part in the node's JSON or hash.

    When a child has no polynomial, or h has no Bernstein form in [0, 1]
    up to degree BERNSTEIN_MAX_DEGREE, the node runs through a rescaling chain
    instead: u = 1 - g/(2M) keeps u <= 1 - eps/(2M); the constant-
    coefficient series C/(1-u) with C = eps/(4M) realizes (eps/2)/g as a
    coin (its parameters t = 1 - 3C/2, eps_series = C/4 put the domain
    edge 1 - 2C exactly on u's certified maximum); AND with f and rescale
    by 2/eps. quot_range, when given, is a caller-certified sharp range of
    f/g; without it the conservative endpoint quotient is used.
    """
    eps = Fraction(eps)
    M = Fraction(M)
    if eps <= 0:
        raise InvalidParams("eps must be positive")
    if g.range_iv.lo < eps:
        raise MarginViolated(f"denominator range reaches {g.range_iv.lo} < eps = {eps}")
    if g.range_iv.hi > M:
        raise MarginViolated(f"denominator range reaches {g.range_iv.hi} > M = {M}")
    if quot_range is not None:
        quot_lo, quot_hi = Fraction(quot_range[0]), Fraction(quot_range[1])
    else:
        quot_lo = f.range_iv.lo / g.range_iv.hi
        quot_hi = f.range_iv.hi / g.range_iv.lo
    if quot_hi > 1 - eps:
        raise MarginViolated(
            f"certified quotient upper bound {quot_hi} exceeds 1 - eps = {1 - eps}"
        )
    plan = FactoryPlan(
        "quotient",
        _intersect(f, g),
        _range(quot_lo, quot_hi),
        children=(f, g),
        data=(("eps", eps), ("M", M), ("backend", _check_backend(backend))),
    )
    pf, pg = _plan_poly(f), _plan_poly(g)
    b = None
    if pf is not None and pg is not None:
        b = bernstein_coeffs(poly_sub(pg, pf), BERNSTEIN_MAX_DEGREE)
    if b is not None:
        plan._cache["h"] = bernstein_plan(b)
    else:
        plan._cache["impl"] = _quotient_chain(f, g, eps, M, backend, quot_lo, quot_hi)
    return plan


def _quotient_chain(f, g, eps, M, backend, quot_lo, quot_hi) -> FactoryPlan:
    C = eps / (4 * M)
    scale = Fraction(1, 2) / M
    if scale <= 1:
        g_scaled = product(constant_plan(scale), g)
    else:
        g_scaled = scalar_mul_plan(scale, g, backend=backend)
    u = complement(g_scaled)
    t_series = 1 - Fraction(3, 2) * C
    eps_series = C / 4
    psi = series_plan(ConstantCoeffs(C), t_series, eps_series, child=u, backend=backend)
    inner = product(f, psi)
    # inner's true bias is (eps/2) * f/g pointwise, so the certified
    # quotient range scales straight onto it; the naive product range can
    # reach past 1/2 and would wrongly block the final rescale
    inner = with_range(inner, eps / 2 * quot_lo, eps / 2 * quot_hi)
    return scalar_mul_plan(Fraction(2) / eps, inner, backend=backend)


# --- envelope leaf -----------------------------------------------------------


def envelope_plan(schedule, ref: Optional[str] = None,
                  domain: PlanBounds = UNIVERSAL) -> FactoryPlan:
    """Leaf that runs an envelope schedule on the raw source."""
    plan = FactoryPlan(
        "envelope",
        domain,
        PlanBounds(Fraction(0), Fraction(1), "propagated"),
        data=(("ref", ref if ref is not None else "opaque"),),
    )
    plan._cache["schedule"] = schedule
    return plan


def resolve_schedule_ref(ref: str):
    """Rebuild a schedule from its reference string, e.g. 'monomial:2'."""
    name, _, arg = ref.partition(":")
    if name == "monomial":
        return monomial_schedule(int(arg))
    if name == "double":
        return doubling_schedule(DoublingParams(Fraction(arg)))
    raise InvalidParams(f"unknown schedule reference {ref!r}")


# --- execution ---------------------------------------------------------------


def _von_neumann(source: CoinSource) -> int:
    while True:
        a = source.next_bit()
        b = source.next_bit()
        if a != b:
            return a


def von_neumann_bit(source: CoinSource) -> OutcomeRecord:
    """Fair bit from coin pairs: 10 -> 1, 01 -> 0, equal pairs discarded."""
    start = source.tosses_consumed
    bit = _von_neumann(source)
    return OutcomeRecord(bit, source.tosses_consumed - start)


class PlanSource(CoinSource):
    """Adapter presenting a plan's output stream as a coin source.

    Each next_bit is one complete run of the plan against the underlying
    raw source; toss accounting of the raw source is untouched, while this
    adapter's own counter counts produced bits.
    """

    kind = "plan-adapter"

    def __init__(self, plan: FactoryPlan, source: CoinSource):
        self.plan = plan
        self.source = source
        self.tosses_consumed = 0

    def next_bit(self) -> int:
        self.tosses_consumed += 1
        return _exec(self.plan, self.source)


_EXACT_BACKENDS: dict = {}


def _exact_backend(eps_prime: Fraction):
    if eps_prime not in _EXACT_BACKENDS:
        _EXACT_BACKENDS[eps_prime] = doubling_schedule(DoublingParams(eps_prime))
    return _EXACT_BACKENDS[eps_prime]


def _exec(plan: FactoryPlan, source: CoinSource) -> int:
    return _KINDS[plan.kind].run(plan, source)


def run_plan(plan: FactoryPlan, source: CoinSource) -> OutcomeRecord:
    """Execute the tree once; tosses is the raw source consumption."""
    start = source.tosses_consumed
    bit = _exec(plan, source)
    return OutcomeRecord(bit, source.tosses_consumed - start)


# --- exact bias intervals and polynomials --------------------------------------


def plan_bias_interval(plan: FactoryPlan, p: Fraction) -> tuple[Fraction, Fraction]:
    """Exact interval containing the plan's true output bias at coin bias p.

    Collapses to a point for purely exact plans; widens only through
    approx-backend doubler nodes, whose walk bias undershoot is bounded
    by 2*exp(-2*steps*(1/2-q)**2). A raced quotient maps its numerator's
    interval through f/(f+h) with its exact h-coin, so a walk in the
    denominator never widens it.
    """
    return _bias(plan, Fraction(p), {})


def _bias(plan: FactoryPlan, p: Fraction, known: dict) -> tuple[Fraction, Fraction]:
    # known maps id(node) to an interval already computed at this p
    if id(plan) in known:
        return known[id(plan)]
    impl = plan._cache.get("impl")
    if impl is not None:
        # an expanded node is its expansion, which holds the children
        return _bias(impl, p, known)
    kids = [_bias(c, p, known) for c in plan.children]
    return _KINDS[plan.kind].bias(plan, p, kids)


def _plan_poly(plan: FactoryPlan) -> Optional[tuple]:
    """Exact-backend bias of a plan as a polynomial in p, or None."""
    poly = _KINDS[plan.kind].poly
    if poly is None:
        return None
    kids = [_plan_poly(c) for c in plan.children]
    if any(k is None for k in kids):
        return None
    return poly(plan, kids)


# --- serialization -----------------------------------------------------------

_FORMAT = "coinfactory-plan"


def _encode_value(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, ConstantCoeffs):
        return {"kind": "constant", "value": _encode_value(v.value)}
    if isinstance(v, CallbackCoeffs):
        raise InvalidParams("callback coefficient streams are opaque and cannot be serialized")
    if isinstance(v, tuple):
        return [_encode_value(x) for x in v]
    if v is None or isinstance(v, (int, str)):
        return v
    raise InvalidParams(f"unserializable plan datum {v!r}")


def _bounds_to_json(b: PlanBounds) -> dict:
    return {"lo": _encode_value(b.lo), "hi": _encode_value(b.hi), "source": b.source}


def _node_to_json(plan: FactoryPlan) -> dict:
    return {
        "kind": plan.kind,
        "domain": _bounds_to_json(plan.domain),
        "range": _bounds_to_json(plan.range_iv),
        "data": {k: _encode_value(v) for k, v in plan.data},
        "children": [_node_to_json(c) for c in plan.children],
    }


def plan_hash(plan: FactoryPlan) -> str:
    blob = json.dumps(_node_to_json(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def plan_to_json(plan: FactoryPlan) -> dict:
    return {"format": _FORMAT, "version": 1, "hash": plan_hash(plan), "root": _node_to_json(plan)}


def save_plan(plan: FactoryPlan, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(plan_to_json(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bounds_from_json(d: dict) -> PlanBounds:
    return PlanBounds(Fraction(d["lo"]), Fraction(d["hi"]), d["source"])


def _node_from_json(d: dict) -> FactoryPlan:
    try:
        kind = _KINDS.get(d["kind"])
        if kind is None:
            raise InvalidParams(f"unknown plan kind {d['kind']!r}")
        kids = [_node_from_json(c) for c in d["children"]]
        stored = _bounds_from_json(d["range"])
        node = kind.load(kids, d["data"], _bounds_from_json(d["domain"]), stored)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InvalidParams(f"malformed plan node: {e!r}") from e
    # declared ranges are caller certificates, not derivable from the
    # children; reconstruction must restore them or parent margin checks
    # would re-run against the looser propagated bounds and fail
    if stored.source == "declared" and node.range_iv != stored:
        node = with_range(node, stored.lo, stored.hi)
    return node


def load_plan(path) -> FactoryPlan:
    """Rebuild a saved plan through its constructors and check its hash."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise InvalidParams(f"not a plan file: {path}") from e
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise InvalidParams(f"not a plan file: {path}")
    plan = _node_from_json(doc.get("root"))
    if plan_hash(plan) != doc.get("hash"):
        raise InvalidParams(f"stored hash does not match the rebuilt plan: {path}")
    return plan


# --- the node kinds ------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """Every rule of one node kind.

    run(plan, source) draws one bit. bias(plan, p, kid_intervals) is the
    node's exact bias interval at p; None for kinds that always expand and
    are bounded through _cache["impl"]. poly(plan, kid_polys) is the exact
    bias as a polynomial in p, or None. load(kids, data, domain, stored_range)
    rebuilds the node through its constructor, so its checks run on load.
    """

    run: Callable
    bias: Optional[Callable]
    poly: Optional[Callable]
    load: Callable


def _run_const(plan: FactoryPlan, source: CoinSource) -> int:
    num, den = plan._cache["ratio"]
    m = 1
    while _von_neumann(source) == 0:
        m += 1
    if num == den:
        return 1  # c = 1 is read as 0.111...
    return (num << m) // den & 1


def _run_double(plan: FactoryPlan, source: CoinSource) -> int:
    backend = plan.get("backend")
    if backend is None:
        raise BackendRequired("double node executed without a backend")
    feed = PlanSource(plan.children[0], source)
    if backend[0] == "approx":
        return approx_double_bit(WalkConfig(backend[1]), feed).bit
    return simulate(_exact_backend(plan.get("eps_prime")), feed).bit


def _bias_double(plan: FactoryPlan, p: Fraction, kids: list) -> tuple:
    (qlo, qhi), = kids
    backend = plan.get("backend")
    if backend is not None and backend[0] == "approx":
        try:
            undershoot = walk_error_bound(backend[1], qhi)
        except ValueError:
            raise InvalidParams(f"walk doubling bound needs its child's bias below 1/2; "
                                f"at p = {p} the child's bias reaches {qhi}") from None
        return max(Fraction(0), 2 * qlo - undershoot), min(2 * qhi, Fraction(1))
    cap = 1 - 2 * plan.get("eps_prime")
    return min(2 * qlo, cap), min(2 * qhi, cap)


def _run_series(plan: FactoryPlan, source: CoinSource) -> int:
    t = plan.get("t")
    level = 0
    while _exec(plan._cache["trial"], source) == 0:
        level += 1
    out = 1
    scaled = plan._cache["scaled_child"]
    for _ in range(level):
        out &= _exec(scaled, source)
    coins = plan._cache["level_coins"]
    if level not in coins:
        c = plan.get("coeffs").coeff(level) * t ** level
        if c > 1:
            raise DivergenceRisk(f"coefficient coin a_{level} * t**{level} = {c} exceeds 1")
        coins[level] = constant_plan(c)
    out &= _exec(coins[level], source)
    return out


def _bias_series(plan: FactoryPlan, p: Fraction, kids: list) -> tuple:
    t = plan.get("t")
    eps = plan.get("eps")
    coeffs = plan.get("coeffs")
    # exact-backend series acceptance is (eps/t) * f(q) exactly; with an
    # approx backend the thinned child bias interval widens instead
    slo, shi = _bias(plan._cache["scaled_child"], p, {id(plan.children[0]): kids[0]})
    flo = coeffs.sum_bounds((t - eps) * slo)[0]
    fhi = coeffs.sum_bounds((t - eps) * shi)[1]
    return eps / t * flo, eps / t * fhi


def _load_series(kids: list, data: dict, domain: PlanBounds, stored: PlanBounds) -> FactoryPlan:
    spec = data["coeffs"]
    if not (isinstance(spec, dict) and spec.get("kind") == "constant"):
        raise InvalidParams("only constant coefficient streams can be loaded")
    return _series_core(*kids, coeffs=ConstantCoeffs(Fraction(spec["value"])),
                        t=Fraction(data["t"]), eps=Fraction(data["eps"]), backend=data["backend"])


def _run_bernstein(plan: FactoryPlan, source: CoinSource) -> int:
    coins = plan._cache["coins"]
    ones = 0
    for _ in range(len(coins) - 1):
        ones += source.next_bit()
    return _exec(coins[ones], source)


def _run_quotient(plan: FactoryPlan, source: CoinSource) -> int:
    h = plan._cache.get("h")
    if h is None:
        return _exec(plan._cache["impl"], source)
    f = plan.children[0]
    while True:
        if _von_neumann(source):
            if _exec(f, source):
                return 1
        elif _exec(h, source):
            return 0


def _bias_race(plan: FactoryPlan, p: Fraction, kids: list) -> tuple:
    # the h-coin is exact and the race's bias f/(f+h) grows with f
    flo, fhi = kids[0]
    h, _ = _bias(plan._cache["h"], p, {})
    if flo + h == 0:
        # neither coin can show 1 at this p (outside the certified domain)
        return Fraction(0), Fraction(1)
    return flo / (flo + h), fhi / (fhi + h)


def _run_envelope(plan: FactoryPlan, source: CoinSource) -> int:
    return simulate(plan._cache["schedule"], source).bit


def _load_envelope(kids: list, data: dict, domain: PlanBounds, stored: PlanBounds) -> FactoryPlan:
    ref = data["ref"]
    if ref in (None, "opaque"):
        raise InvalidParams("opaque envelope nodes cannot be reloaded")
    return envelope_plan(resolve_schedule_ref(ref), ref=ref, domain=domain)


def _run_impl(plan: FactoryPlan, source: CoinSource) -> int:
    return _exec(plan._cache["impl"], source)


# each entry lists run, bias, poly and load in that order
_KINDS: dict[str, _Kind] = {
    "identity": _Kind(
        lambda plan, source: source.next_bit(),
        lambda plan, p, kids: (p, p),
        lambda plan, kids: (Fraction(0), Fraction(1)),
        lambda kids, data, domain, stored: identity_plan(domain)),
    "const": _Kind(
        _run_const,
        lambda plan, p, kids: (plan.get("c"), plan.get("c")),
        lambda plan, kids: poly_norm((plan.get("c"),)),
        lambda kids, data, domain, stored: constant_plan(Fraction(data["c"]), domain)),
    "bernstein": _Kind(
        _run_bernstein,
        lambda plan, p, kids: (poly_eval(plan._cache["poly"], p),) * 2,
        lambda plan, kids: plan._cache["poly"],
        lambda kids, data, domain, stored: bernstein_plan(
            [Fraction(v) for v in data["b"]], domain)),
    "complement": _Kind(
        lambda plan, source: 1 - _exec(plan.children[0], source),
        lambda plan, p, kids: (1 - kids[0][1], 1 - kids[0][0]),
        lambda plan, kids: poly_sub((Fraction(1),), kids[0]),
        lambda kids, data, domain, stored: complement(*kids)),
    "product": _Kind(
        # both children always run; the AND is taken afterwards
        lambda plan, source: _exec(plan.children[0], source) & _exec(plan.children[1], source),
        lambda plan, p, kids: (kids[0][0] * kids[1][0], kids[0][1] * kids[1][1]),
        lambda plan, kids: poly_mul(kids[0], kids[1]),
        lambda kids, data, domain, stored: product(*kids)),
    "average": _Kind(
        lambda plan, source: _exec(plan.children[0 if _von_neumann(source) else 1], source),
        lambda plan, p, kids: ((kids[0][0] + kids[1][0]) / 2, (kids[0][1] + kids[1][1]) / 2),
        lambda plan, kids: poly_mul((Fraction(1, 2),), poly_add(kids[0], kids[1])),
        lambda kids, data, domain, stored: average(*kids)),
    "double": _Kind(
        _run_double, _bias_double,
        # 2q: the margin keeps the cap from binding on the certified domain
        lambda plan, kids: poly_mul((Fraction(2),), kids[0]),
        lambda kids, data, domain, stored: double_plan(
            *kids, eps_prime=Fraction(data["eps_prime"]), backend=data["backend"])),
    "difference": _Kind(
        _run_impl, None,
        lambda plan, kids: poly_sub(kids[0], kids[1]),
        lambda kids, data, domain, stored: difference_plan(
            *kids, margin=Fraction(data["margin"]), backend=data["backend"])),
    "scalar_mul": _Kind(
        _run_impl, None,
        lambda plan, kids: poly_mul((plan.get("a"),), kids[0]),
        lambda kids, data, domain, stored: scalar_mul_plan(
            Fraction(data["a"]), *kids, margin=Fraction(data["margin"]), backend=data["backend"])),
    "series_nonneg": _Kind(_run_series, _bias_series, None, _load_series),
    "series_general": _Kind(
        _run_impl, None, None,
        lambda kids, data, domain, stored: _series_general(
            *kids, M=Fraction(data["M"]), backend=data["backend"])),
    "quotient": _Kind(
        _run_quotient, _bias_race, None,
        lambda kids, data, domain, stored: quotient_plan(
            *kids, eps=Fraction(data["eps"]), M=Fraction(data["M"]), backend=data["backend"],
            quot_range=(stored.lo, stored.hi))),
    "envelope": _Kind(
        _run_envelope, lambda plan, p, kids: (plan.range_iv.lo, plan.range_iv.hi),
        None, _load_envelope),
}
