"""Factory plan algebra: constructors, certified intervals, execution, JSON.

Interval assertions are exact rational equalities wherever the chain is
exact; execution checks run against tapes or the exhaustive oracle so they
stay deterministic.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from coinfactory import (
    CallbackCoeffs,
    ConstantCoeffs,
    GeneratorSource,
    Interval,
    MODE_LIPSCHITZ,
    SmoothnessParams,
    TapeSource,
    average,
    bernstein_plan,
    bounds,
    compile_to_plan,
    complement,
    constant_plan,
    difference_plan,
    double_plan,
    envelope_eval,
    envelope_plan,
    identity_plan,
    load_plan,
    monomial_schedule,
    monte_carlo,
    oracle_enumerate,
    parse,
    plan_bias_interval,
    plan_hash,
    plan_to_json,
    product,
    quotient_plan,
    resolve_schedule_ref,
    run_plan,
    save_plan,
    scalar_mul_plan,
    series_general_plan,
    series_plan,
    smooth_schedule,
    sum_plan,
    von_neumann_bit,
    walk_bias_exact,
    with_range,
)
from coinfactory import combinators, engine
from coinfactory.combinators import _KINDS
from coinfactory.errors import (
    BackendRequired,
    DivergenceRisk,
    InvalidParams,
    MarginViolated,
)


def ranged_identity():
    return with_range(identity_plan(), Fraction(1, 10), Fraction(2, 5))


# --- exact bias intervals ------------------------------------------------------


def test_leaf_intervals_are_points():
    p = Fraction(1, 5)
    assert plan_bias_interval(identity_plan(), p) == (p, p)
    assert plan_bias_interval(constant_plan(Fraction(1, 3)), p) == (Fraction(1, 3),) * 2


def test_composite_intervals_are_exact():
    p = Fraction(1, 5)
    ident = identity_plan()
    assert plan_bias_interval(complement(ident), p) == (Fraction(4, 5), Fraction(4, 5))
    assert plan_bias_interval(product(ident, ident), p) == (Fraction(1, 25),) * 2
    avg = average(ident, constant_plan(Fraction(1, 3)))
    expected = (p + Fraction(1, 3)) / 2
    assert plan_bias_interval(avg, p) == (expected, expected)


def test_double_exact_backend_interval_is_point():
    plan = double_plan(ranged_identity(), Fraction(1, 40), backend=("exact",))
    assert plan_bias_interval(plan, Fraction(1, 5)) == (Fraction(2, 5), Fraction(2, 5))


def test_double_approx_backend_interval_brackets_walk_bias():
    steps = 2000
    plan = double_plan(ranged_identity(), Fraction(1, 40), backend=("approx", steps))
    p = Fraction(1, 5)
    lo, hi = plan_bias_interval(plan, p)
    assert lo < hi  # the walk bound widens the certificate
    assert lo <= walk_bias_exact(steps, p) <= hi
    assert hi == 2 * p


def test_scalar_mul_interval():
    plan = scalar_mul_plan(Fraction(5, 2), constant_plan(Fraction(1, 5)),
                           backend=("exact",))
    assert plan_bias_interval(plan, Fraction(1, 3)) == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1)])
def test_scalar_mul_at_most_one_takes_no_doubler(tmp_path, a):
    # a < 1 runs as a product with a constant coin, a = 1 as the child itself
    plan = scalar_mul_plan(a, identity_plan(), backend=("exact",))
    for p in (Fraction(1, 5), Fraction(2, 3)):
        assert plan_bias_interval(plan, p) == (a * p, a * p)
    assert combinators._plan_poly(plan) == (0, a)
    path = tmp_path / "scaled.json"
    save_plan(plan, path)
    assert plan_hash(load_plan(path)) == plan_hash(plan)


def test_series_constant_coeffs_closed_form():
    # sum of (1/8) q^n at q = 1/4 is (1/8)/(3/4) = 1/6
    plan = series_plan(ConstantCoeffs(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 8),
                       child=constant_plan(Fraction(1, 4)))
    assert plan_bias_interval(plan, Fraction(1, 3)) == (Fraction(1, 6), Fraction(1, 6))


def test_quotient_interval_exact_chain():
    plan = quotient_plan(constant_plan(Fraction(1, 5)), constant_plan(Fraction(2, 5)),
                         Fraction(3, 10), Fraction(3, 5), backend=("exact",))
    assert plan_bias_interval(plan, Fraction(1, 4)) == (Fraction(1, 2), Fraction(1, 2))


def test_with_range_declares_certificate():
    plan = ranged_identity()
    assert plan.range_iv.lo == Fraction(1, 10)
    assert plan.range_iv.hi == Fraction(2, 5)
    assert plan.range_iv.source == "declared"


# --- constructor guards -----------------------------------------------------------


def test_double_requires_cool_child():
    with pytest.raises(MarginViolated):
        double_plan(identity_plan(), Fraction(1, 40))


def test_sum_requires_headroom():
    with pytest.raises(MarginViolated):
        sum_plan(constant_plan(Fraction(3, 5)), constant_plan(Fraction(2, 5)),
                 Fraction(1, 10))


def test_exact_doubler_builds_its_schedule_when_made():
    # eps = 1/10 gives eps' = 1/80, whose doubling schedule has a first
    # checkpoint below 2**40; the node is built with its backend ready
    plan = sum_plan(constant_plan(Fraction(1, 5)), constant_plan(Fraction(1, 5)),
                    Fraction(1, 10), ("exact",))
    assert plan.get("eps_prime") == Fraction(1, 80)
    assert Fraction(1, 80) in combinators._EXACT_BACKENDS


def test_difference_requires_positive_margin():
    with pytest.raises(MarginViolated):
        difference_plan(constant_plan(Fraction(1, 3)), constant_plan(Fraction(1, 3)))


def test_scalar_mul_rejects_overflow():
    with pytest.raises(MarginViolated):
        scalar_mul_plan(Fraction(3), constant_plan(Fraction(1, 2)))


def test_series_guards():
    with pytest.raises(DivergenceRisk):
        series_plan(ConstantCoeffs(Fraction(3, 4)), Fraction(2, 3), Fraction(1, 12),
                    child=constant_plan(Fraction(1, 4)))
    with pytest.raises(MarginViolated):
        series_plan(ConstantCoeffs(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 8),
                    child=constant_plan(Fraction(3, 5)))
    with pytest.raises(DivergenceRisk):
        CallbackCoeffs(lambda n: Fraction(1), Fraction(1, 2), Fraction(3, 2), 0)


def test_quotient_guards():
    with pytest.raises(MarginViolated):
        quotient_plan(constant_plan(Fraction(1, 5)),
                      with_range(identity_plan(), Fraction(1, 100), Fraction(2, 5)),
                      Fraction(3, 10), Fraction(3, 5))
    with pytest.raises(MarginViolated):
        quotient_plan(constant_plan(Fraction(2, 5)), constant_plan(Fraction(2, 5)),
                      Fraction(3, 10), Fraction(3, 5))


@pytest.mark.parametrize("b", [(), (Fraction(3, 2),), (Fraction(1, 2), Fraction(-1, 4)),
                               (Fraction(1, 2),) * 66],
                         ids=["empty", "above_one", "negative", "degree_above_cap"])
def test_bernstein_guards(b):
    with pytest.raises(InvalidParams):
        bernstein_plan(b)


def test_execution_requires_backend():
    plan = double_plan(constant_plan(Fraction(1, 4)), Fraction(1, 16))
    with pytest.raises(BackendRequired):
        run_plan(plan, TapeSource([0, 1] * 50))


# --- execution ---------------------------------------------------------------------


def test_von_neumann_bit_semantics():
    out = von_neumann_bit(TapeSource([1, 0]))
    assert (out.bit, out.tosses) == (1, 2)
    out = von_neumann_bit(TapeSource([0, 0, 0, 1]))
    assert (out.bit, out.tosses) == (0, 4)  # discards the equal pair first


def test_product_runs_both_children():
    plan = product(identity_plan(), identity_plan())
    assert run_plan(plan, TapeSource([1, 1])).bit == 1
    assert run_plan(plan, TapeSource([1, 0])).bit == 0
    assert run_plan(plan, TapeSource([0, 1])).tosses == 2  # no short-circuit


def test_run_plan_deterministic():
    from coinfactory import GeneratorSource

    plan = average(identity_plan(), complement(identity_plan()))
    a = run_plan(plan, GeneratorSource(12, Fraction(3, 10)))
    b = run_plan(plan, GeneratorSource(12, Fraction(3, 10)))
    assert (a.bit, a.tosses) == (b.bit, b.tosses)


def test_constant_plan_oracle_bracket_shrinks():
    plan = constant_plan(Fraction(1, 3))
    p = Fraction(1, 2)
    a4, u4 = oracle_enumerate(plan, 4, p)
    a8, u8 = oracle_enumerate(plan, 8, p)
    assert a4 <= Fraction(1, 3) <= a4 + u4
    assert a8 <= Fraction(1, 3) <= a8 + u8
    assert u8 < u4


def test_constant_with_a_long_binary_period_builds_and_brackets():
    # 2 has order 2 * 3**15 mod 3**16: a run reads one digit, not the period
    c = Fraction(1, 3**16)
    accept, undecided = oracle_enumerate(constant_plan(c), 12, Fraction(1, 2))
    assert accept <= c <= accept + undecided


def test_series_level_coins_with_long_periods_run():
    # level N's coin (1/27) * (103/108)**N has odd denominator part 3**(3N+3)
    core = series_plan(ConstantCoeffs(Fraction(1, 27)), Fraction(103, 108), Fraction(1, 100),
                       child=constant_plan(Fraction(1, 2)), backend=("approx", 64)).children[0]
    report = monte_carlo(core, Fraction(1, 2), 40, 5)
    assert report.runs == 40
    assert report.wilson_lo <= core.range_iv.lo <= report.wilson_hi
    assert max(core._cache["level_coins"]) > 100


def test_constant_coin_outcomes_are_frozen():
    # seeded (bit, tosses) of every run, recorded while each constant coin
    # still read its digit from a precomputed binary expansion
    blob = hashlib.sha256()
    for c in ["0", "1", "1/2", "1/3", "3/8", "5/7", "999/1000", "12345/65536", "1/6561"]:
        plan = constant_plan(Fraction(c))
        for seed in range(8):
            source = GeneratorSource(seed, Fraction(3, 10))
            for _ in range(50):
                out = run_plan(plan, source)
                blob.update(f"{c}:{out.bit}:{out.tosses};".encode("ascii"))
    assert blob.hexdigest() == "f2a2e3ab73713588461ef46197ea6105e7776c6757de61be47bfb11f57d8f4f6"


def test_bernstein_coin_tosses_n_times_then_its_constant_coin():
    # (1 - p)^3 + p/2 at degree 3; range [1/6, 1], bias exact
    plan = bernstein_plan((1, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    assert (plan.range_iv.lo, plan.range_iv.hi) == (Fraction(1, 6), Fraction(1))
    p = Fraction(1, 5)
    assert plan_bias_interval(plan, p) == (Fraction(153, 250), Fraction(153, 250))
    # three tosses 1, 0, 1 pick b_2 = 1/3; its first von Neumann pair 10
    # ends the fair-bit search at m = 1, and digit 1 of 1/3 = 0.0101... is 0
    tape = TapeSource([1, 0, 1, 1, 0])
    out = run_plan(plan, tape)
    assert (out.bit, out.tosses) == (0, 5)
    widths = []
    for depth in (6, 12):
        accept, undecided = oracle_enumerate(plan, depth, p)
        assert accept <= Fraction(153, 250) <= accept + undecided
        widths.append(undecided)
    assert widths[1] < widths[0]


def test_product_oracle_is_exact_monomial():
    plan = product(identity_plan(), identity_plan())
    assert oracle_enumerate(plan, 2, Fraction(1, 3)) == (Fraction(1, 9), Fraction(0))


def test_envelope_leaf_oracle_is_exact_monomial():
    plan = envelope_plan(monomial_schedule(2), ref="monomial:2")
    assert oracle_enumerate(plan, 8, Fraction(1, 3)) == (Fraction(1, 9), Fraction(0))


def test_opaque_envelope_leaf_oracle_equals_envelope_eval():
    sched = smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 4)))
    p = Fraction(3, 10)
    accept, undecided = oracle_enumerate(envelope_plan(sched), 16, p)
    values = envelope_eval(sched, p, 16)
    assert accept == values.g
    assert accept + undecided == values.h


def test_envelope_leaf_reload_keeps_hash_and_bits(tmp_path):
    plan = envelope_plan(monomial_schedule(2), ref="monomial:2")
    path = tmp_path / "leaf.json"
    save_plan(plan, path)
    back = load_plan(path)
    assert plan_hash(back) == plan_hash(plan)
    # p**2 decides at its first checkpoint, n = 2: heads twice or not
    for tape, bit in (([1, 1, 0], 1), ([1, 0, 1], 0), ([0, 1, 1], 0), ([0, 0, 0], 0)):
        a, b = run_plan(plan, TapeSource(tape)), run_plan(back, TapeSource(tape))
        assert (a.bit, a.tosses) == (b.bit, b.tosses) == (bit, 2)


def test_envelope_leaf_and_monte_carlo_build_each_level_once(monkeypatch):
    # the leaf and monte_carlo both run the schedule on its own context, so
    # the three weights of p**2's one checkpoint are built once between them
    built = []

    class Counting(engine._LevelData):
        __slots__ = ()

        def __init__(self, ctx, m, n, k, b=None):
            built.append((m, n, k))
            super().__init__(ctx, m, n, k, b)

    monkeypatch.setattr(engine, "_LevelData", Counting)
    schedule = monomial_schedule(2)
    plan = envelope_plan(schedule, ref="monomial:2")
    for tape in ([1, 1], [1, 0], [0, 1], [0, 0]):
        run_plan(plan, TapeSource(tape))
    monte_carlo(schedule, Fraction(1, 3), 200, 7)
    assert sorted(built) == [(0, 2, 0), (0, 2, 1), (0, 2, 2)]


def test_series_oracle_brackets_closed_form():
    plan = series_plan(ConstantCoeffs(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 8),
                       child=constant_plan(Fraction(1, 4)), backend=("exact",))
    accept, undecided = oracle_enumerate(plan, 12, Fraction(1, 3))
    assert accept <= Fraction(1, 6) <= accept + undecided


# --- serialization --------------------------------------------------------------------


def all_node_kinds():
    ident = ranged_identity()
    third = constant_plan(Fraction(1, 3))
    plans = [
        identity_plan(),
        third,
        complement(ident),
        product(ident, third),
        average(ident, third),
        double_plan(ident, Fraction(1, 40), backend=("approx", 2000)),
        double_plan(ident, Fraction(1, 40), backend=("exact",)),
        sum_plan(ident, third, Fraction(1, 10), backend=("exact",)),
        difference_plan(with_range(identity_plan(), Fraction(3, 10), Fraction(2, 5)),
                        constant_plan(Fraction(1, 5)), backend=("exact",)),
        scalar_mul_plan(Fraction(5, 2), third, backend=("exact",)),
        series_plan(ConstantCoeffs(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 8),
                    child=constant_plan(Fraction(1, 4)), backend=("exact",)),
        quotient_plan(constant_plan(Fraction(1, 5)), constant_plan(Fraction(2, 5)),
                      Fraction(3, 10), Fraction(3, 5), backend=("exact",)),
        envelope_plan(monomial_schedule(2), ref="monomial:2"),
        series_general_plan(ConstantCoeffs(Fraction(1, 8)), ConstantCoeffs(Fraction(1, 64)),
                            Fraction(1, 2), Fraction(1, 16), Fraction(1, 2),
                            domain=bounds(Fraction(1, 10), Fraction(1, 5)), backend=("exact",)),
        # 2p / (p + 1/2): h = 1/2 - p has no Bernstein form, so the chain runs
        quotient_plan(scalar_mul_plan(2, ident, backend=("exact",)),
                      sum_plan(ident, constant_plan(Fraction(1, 2)), Fraction(1, 10),
                               backend=("exact",)),
                      Fraction(1, 9), Fraction(9, 10), backend=("exact",),
                      quot_range=(Fraction(1, 3), Fraction(8, 9))),
        # a raced quotient whose h-coin has degree 2
        compile_to_plan(parse("p / (1/2 + p^2)"), Interval(Fraction(1, 10), Fraction(2, 5)),
                        backend=("exact",)),
        # a polynomial sum compiled to one Bernstein coin, (1/4, 3/4, 1/4)
        compile_to_plan(parse("p*(1-p) + 1/4"), Interval(Fraction(1, 10), Fraction(2, 5)),
                        backend=("exact",)),
        # the series node itself, without the rescale series_plan puts above it
        series_plan(ConstantCoeffs(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 8),
                    child=constant_plan(Fraction(1, 4)), backend=("exact",)).children[0],
    ]
    return plans


def test_all_node_kinds_cover_the_kind_table():
    assert {plan.kind for plan in all_node_kinds()} == set(_KINDS)


def test_round_trip_preserves_hash_and_interval(tmp_path):
    p = Fraction(1, 5)
    for i, plan in enumerate(all_node_kinds()):
        path = tmp_path / f"plan{i}.json"
        save_plan(plan, path)
        back = load_plan(path)
        assert plan_hash(back) == plan_hash(plan), plan.kind
        assert plan_bias_interval(back, p) == plan_bias_interval(plan, p), plan.kind


def _saved_plus_fifth(tmp_path):
    plan = compile_to_plan(parse("p + 1/5"), Interval(Fraction(1, 10), Fraction(2, 5)),
                           backend=("approx", 64))
    path = tmp_path / "plus_fifth.json"
    save_plan(plan, path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("stored_hash", ["kept", "zeroed"])
def test_load_rejects_rewritten_range(tmp_path, stored_hash):
    # the true bias of p + 1/5 reaches 3/5; a file claiming [3/10, 2/5]
    # would let a parent certify what does not hold
    path, doc = _saved_plus_fifth(tmp_path)
    assert load_plan(path).range_iv.hi == Fraction(3, 5)
    doc["root"]["range"]["hi"] = "2/5"
    if stored_hash == "zeroed":
        doc["hash"] = "0" * 64
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParams):
        load_plan(path)


@pytest.mark.parametrize("field", ["kind", "data", "range"])
def test_load_rejects_malformed_nodes(tmp_path, field):
    path, doc = _saved_plus_fifth(tmp_path)
    if field == "kind":
        doc["root"]["children"][0]["kind"] = "mystery"
    else:
        del doc["root"]["children"][0][field]
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParams):
        load_plan(path)


@pytest.mark.parametrize("b, message", [
    (["1/2", "3/2"], r"must lie in \[0, 1\]"),
    ([], "at least one coefficient"),
    (["1/2"] * 66, "degree 65 exceeds 64"),
    (["1/2", "one half"], "malformed plan node"),
], ids=["above_one", "empty", "degree_above_cap", "not_rational"])
def test_load_rejects_bernstein_nodes_outside_their_rules(tmp_path, b, message):
    # the constructor refuses the node before the stored hash is compared
    path = tmp_path / "bernstein.json"
    save_plan(bernstein_plan((Fraction(1, 4), Fraction(3, 4), Fraction(1, 4))), path)
    doc = json.loads(path.read_text())
    doc["root"]["data"]["b"] = b
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParams, match=message):
        load_plan(path)


def test_plan_hash_is_frozen():
    # canonical JSON regression pin; a drift here breaks stored plan files
    assert plan_hash(constant_plan(Fraction(1, 3))) == (
        "db42ee09615601c074d1a59d3f31ce079f77662a3acb538d46e244c047f68e4b"
    )


def test_plan_json_shape():
    doc = plan_to_json(product(identity_plan(), constant_plan(Fraction(1, 3))))
    assert {"format", "version", "hash", "root"} <= set(doc)
    root = doc["root"]
    assert root["kind"] == "product"
    assert len(root["children"]) == 2
    assert {"kind", "domain", "range", "data"} <= set(root)


def test_callback_coeffs_refuse_serialization(tmp_path):
    coeffs = CallbackCoeffs(lambda n: Fraction(1, 2 ** (n + 1)), Fraction(1, 2),
                            Fraction(1, 2), 4)
    plan = series_plan(coeffs, Fraction(1, 2), Fraction(1, 8),
                       child=constant_plan(Fraction(1, 4)))
    with pytest.raises(InvalidParams):
        save_plan(plan, tmp_path / "cb.json")


def test_opaque_envelope_refuses_reload(tmp_path):
    plan = envelope_plan(monomial_schedule(2))
    path = tmp_path / "env.json"
    save_plan(plan, path)
    with pytest.raises(InvalidParams):
        load_plan(path)


def test_resolve_schedule_ref():
    sched = resolve_schedule_ref("monomial:2")
    assert sched.counts(2, 2) == (1, 1)
    with pytest.raises(InvalidParams):
        resolve_schedule_ref("mystery:1")
