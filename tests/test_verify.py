"""Ground-truth machinery: oracle, pmf/Bernstein utilities, Monte Carlo."""

import gc
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinfactory import (
    ContinuousParams,
    Decision,
    EnvelopeSchedule,
    GeneratorSource,
    HypergeomSpec,
    OutcomeRecord,
    RankContext,
    bernstein_eval,
    constant_plan,
    continuous_schedule,
    corrupt_monomial_fixture,
    decide,
    double_plan,
    doubling_schedule,
    DoublingParams,
    feasibility_check,
    hypergeom_pmf,
    identity_plan,
    mix_seed,
    monomial_schedule,
    monte_carlo,
    oracle_enumerate,
    report_from_json,
    report_to_json,
    save_report,
    simulate,
    smooth_schedule,
    SmoothnessParams,
    tail_profile,
    TapeSource,
    von_neumann_bit,
    walk_bias_exact,
    with_range,
    WalkConfig,
)
from coinfactory import verify
from coinfactory.coins import _SEED_CHUNK
from coinfactory.errors import (
    DepthTooLarge,
    InsufficientTail,
    InvalidParams,
    InvalidSchedule,
    SourceExhausted,
    Undecided,
)
from coinfactory.schedules import MODE_LIPSCHITZ

from helpers import hypergeom_expect


# --- exhaustive oracle ---------------------------------------------------------


def test_oracle_monomial_is_exact_at_depth_two():
    assert oracle_enumerate(monomial_schedule(2), 2, Fraction(1, 3)) == (
        Fraction(1, 9), Fraction(0))


def test_oracle_fair_constant_brackets_half():
    # expansion scheme for 1/2: accept on a first fair bit of 0, reject
    # only after a second fair bit of 1. Four tosses give two pair draws,
    # each yielding a fair bit with chance 2pq = 4/9 at p = 1/3, so
    # accept = 4/9 * (1 + 5/9) / 2 and reject = (2/9)^2.
    accept, undecided = oracle_enumerate(constant_plan(Fraction(1, 2)), 4, Fraction(1, 3))
    assert (accept, undecided) == (Fraction(28, 81), Fraction(49, 81))
    assert accept <= Fraction(1, 2) <= accept + undecided


def test_oracle_walk_matches_closed_form():
    plan = double_plan(with_range(identity_plan(), Fraction(1, 10), Fraction(2, 5)),
                       Fraction(1, 40), backend=("approx", 14))
    accept, undecided = oracle_enumerate(plan, 14, Fraction(1, 4))
    assert accept == walk_bias_exact(14, Fraction(1, 4))
    assert undecided == 0


def test_oracle_depth_guards():
    with pytest.raises(DepthTooLarge):
        oracle_enumerate(monomial_schedule(2), 21, Fraction(1, 3))
    with pytest.raises(InvalidParams):
        oracle_enumerate(monomial_schedule(2), 4, Fraction(3, 2))


def test_oracle_triple_agreement_on_cheap_targets():
    # the oracle bracket must contain each target's exact bias at depth 10
    from coinfactory import average, complement, plan_bias_interval

    p = Fraction(3, 10)
    targets = [
        (constant_plan(Fraction(1, 3)), Fraction(1, 3)),
        (average(identity_plan(), complement(identity_plan())), Fraction(1, 2)),
        (monomial_schedule(2), p * p),
    ]
    for target, bias in targets:
        accept, undecided = oracle_enumerate(target, 10, p)
        assert accept <= bias <= accept + undecided


def literal_oracle(target, depth, p):
    """Reference oracle: run the target on every one of the 2^depth tapes."""
    run = verify._replica_runner(target, None)
    q = 1 - p
    accept = undecided = Fraction(0)
    for m in range(1 << depth):
        bits = [(m >> (depth - 1 - j)) & 1 for j in range(depth)]
        try:
            bit = run(TapeSource(bits)).bit
        except (SourceExhausted, Undecided):
            bit = None
        weight = p ** sum(bits) * q ** (depth - sum(bits))
        if bit == 1:
            accept += weight
        elif bit is None:
            undecided += weight
    return accept, undecided


MOVES = st.one_of(
    st.just(("bit",)),
    st.tuples(st.just("chunk"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("stop"), st.integers(min_value=0, max_value=1)),
    st.just(("undecided",)),
)


def read_tree(moves, salt):
    """A target whose next move is a function of the bits it has drawn.

    Each prefix picks a move: draw one bit by next_bit, draw a chunk by
    draw_bits (which may cross the tape end), output 0 or 1, or give up.
    """
    def target(src):
        drawn = []
        while True:
            key = int("1" + "".join(map(str, drawn)), 2)
            move = moves[(key * 2654435761 + salt) % len(moves)]
            if move[0] == "bit":
                drawn.append(src.next_bit())
            elif move[0] == "chunk":
                drawn.extend(src.draw_bits(move[1]))
            elif move[0] == "stop":
                return OutcomeRecord(move[1], len(drawn))
            else:
                raise Undecided(len(drawn))

    return target


@given(st.lists(MOVES, min_size=1, max_size=12), st.integers(min_value=0, max_value=1 << 16),
       st.integers(min_value=1, max_value=10),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100))
def test_oracle_leaf_walk_equals_literal_enumeration(moves, salt, depth, p):
    target = read_tree(moves, salt)
    assert oracle_enumerate(target, depth, p) == literal_oracle(target, depth, p)


@pytest.mark.parametrize("bit", [0, 1])
def test_oracle_of_a_target_that_reads_nothing_runs_once(bit):
    runs = []
    target = lambda src: runs.append(src) or OutcomeRecord(bit, 0)
    masses = oracle_enumerate(target, 12, Fraction(1, 3))
    assert len(runs) == 1
    assert masses == literal_oracle(target, 12, Fraction(1, 3)) == (Fraction(bit), Fraction(0))


def test_oracle_refuses_a_target_whose_result_is_not_a_function_of_its_bits():
    # reads three bits on its first call and one on each later call, so the
    # second run's one-bit prefix covers tapes the first run already credited
    calls = []

    def target(src):
        calls.append(src)
        bits = src.draw_bits(3 if len(calls) == 1 else 1)
        return OutcomeRecord(bits[-1], len(bits))

    with pytest.raises(InvalidParams, match="not a function of the bits it drew"):
        oracle_enumerate(target, 8, Fraction(1, 3))
    assert len(calls) == 2


def test_oracle_runs_the_monomial_once_per_read_prefix():
    # x^2 reads two bits and decides on each of the four prefixes
    schedule = monomial_schedule(2)
    runs = []

    def target(src):
        runs.append(src)
        return simulate(schedule, src)

    assert oracle_enumerate(target, 16, Fraction(1, 3)) == (Fraction(1, 9), Fraction(0))
    assert len(runs) == 4


def thirds_schedule(checkpoint):
    """Counts from the exact Bernstein coefficients (n + k) / 3n of (1 + p) / 3.

    They are rarely integers, so rounding them out leaves a word undecided
    in most weights; the rounded counts stay consistent at any checkpoints.
    """
    return EnvelopeSchedule("thirds", {}, checkpoint,
                            ab_fn=lambda n, k: (Fraction(n + k, 3 * n),) * 2)


_RANKED_SCHEDULES = {
    "lipschitz_3c": (lambda: smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 4))),
        Fraction(3, 10)),
    "monomial_2": (lambda: monomial_schedule(2), Fraction(1, 3)),
    # checkpoints 32, 64, 256: none is at or below depth 12
    "continuous_tent": (lambda: continuous_schedule(ContinuousParams(
        lambda p: Fraction(1, 2) + abs(p - Fraction(1, 2)) / 4, Fraction(1, 4), (5, 6, 7))),
        Fraction(1, 4)),
    # checkpoints 2, 3, 6, 11, 18, ...
    "thirds_irregular": (lambda: thirds_schedule(lambda j: j * j + 2), Fraction(2, 5)),
    # checkpoints 3, 5, 9 and no more
    "thirds_finite": (lambda: thirds_schedule(lambda j: (3, 5, 9)[j] if j < 3 else None),
                      Fraction(2, 5)),
}


@pytest.mark.parametrize("name", sorted(_RANKED_SCHEDULES))
def test_oracle_ranks_a_schedule_to_the_masses_its_runs_give(name):
    # the oracle ranks a schedule's words; the generic path runs simulate on
    # each tape, and a tape that passes the last checkpoint at or below depth
    # ends exhausted or out of checkpoints
    make, p = _RANKED_SCHEDULES[name]
    schedule = make()
    run = lambda src: simulate(schedule, src)
    for depth in range(1, 13):
        assert oracle_enumerate(schedule, depth, p) == oracle_enumerate(run, depth, p)


_DEPTHS = (12, 5, 16, 8)


@pytest.mark.parametrize("name", ["lipschitz_3c", "monomial_2"])
def test_the_oracle_on_a_used_context_gives_a_fresh_schedules_masses(name):
    # every run of a schedule ranks on its one context, so an oracle starts
    # from the memo and the last word that earlier calls left there
    make, p = _RANKED_SCHEDULES[name]
    fresh = [oracle_enumerate(make(), depth, p) for depth in _DEPTHS]
    schedule = make()
    assert [oracle_enumerate(schedule, depth, p) for depth in _DEPTHS] == fresh
    schedule = make()
    monte_carlo(schedule, p, 200, 11, max_tosses=4096, undecided="midpoint")
    assert [oracle_enumerate(schedule, depth, p) for depth in _DEPTHS] == fresh


def test_the_oracle_after_a_raised_word_gives_a_fresh_schedules_masses():
    # the fixture breaks p**2's schedule at (4, 2), past depth 3. 0000 is
    # decided at checkpoint 2; 0101 then raises at 4, leaving the state of
    # its prefix 01 on the cursor, while the oracle's first word starts 00.
    # An oracle at depth 4 raises as well.
    p = Fraction(1, 3)
    fresh = oracle_enumerate(corrupt_monomial_fixture(), 3, p)
    assert fresh[1] > 0
    schedule = corrupt_monomial_fixture()
    assert decide(schedule.rank_context, (0, 0, 0, 0)) is Decision.OutputZero
    with pytest.raises(InvalidSchedule):
        decide(schedule.rank_context, (0, 1, 0, 1))
    assert oracle_enumerate(schedule, 3, p) == fresh
    with pytest.raises(InvalidSchedule):
        oracle_enumerate(schedule, 4, p)
    assert oracle_enumerate(schedule, 3, p) == fresh


def test_calls_on_a_schedule_leave_one_live_rank_context():
    # with the cyclic collector off, a context per call would stay alive
    # in its levels' reference cycle until the next collection
    schedule = monomial_schedule(2)
    live = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            monte_carlo(schedule, Fraction(1, 3), 50, 3)
            oracle_enumerate(schedule, 8, Fraction(1, 3))
            live.append(sum(isinstance(obj, RankContext) and obj.schedule is schedule
                            for obj in gc.get_objects()))
    finally:
        gc.enable()
    assert live == [1, 1, 1]


# --- hypergeometric pmf -----------------------------------------------------------


def test_pmf_example_and_normalization():
    spec = HypergeomSpec(2, 2)
    assert [hypergeom_pmf(spec, i) for i in range(3)] == [
        Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)]
    assert hypergeom_pmf(spec, -1) == 0
    assert hypergeom_pmf(spec, 3) == 0
    for n in (1, 3, 7, 16):
        for k in range(0, 2 * n + 1):
            s = HypergeomSpec(n, k)
            assert sum(hypergeom_pmf(s, i) for i in range(n + 1)) == 1


def test_pmf_mean_identity():
    for n in (2, 5, 12):
        for k in range(0, 2 * n + 1):
            mean = hypergeom_expect(n, k, lambda t: t)
            assert mean == Fraction(k, 2 * n)


def test_hypergeom_spec_validation():
    with pytest.raises(InvalidParams):
        HypergeomSpec(3, 7)


# --- Bernstein evaluation ------------------------------------------------------------


def test_bernstein_reproduces_linear():
    for n in (1, 5, 32):
        assert bernstein_eval(lambda t: t, n, Fraction(3, 7)) == Fraction(3, 7)


def test_bernstein_capped_double_example():
    f = lambda t: min(2 * t, Fraction(1))
    assert bernstein_eval(f, 2, Fraction(1, 2)) == Fraction(3, 4)


def test_bernstein_uniform_convergence_echo():
    f = lambda t: min(2 * t, Fraction(1))
    grid = [Fraction(3, 8), Fraction(1, 2), Fraction(5, 8)]
    err_1024 = max(abs(bernstein_eval(f, 1024, x) - f(x)) for x in grid)
    err_4096 = max(abs(bernstein_eval(f, 4096, x) - f(x)) for x in grid)
    assert err_4096 < err_1024


# --- feasibility diagnostic ------------------------------------------------------------


def test_feasibility_accepts_capped_double():
    grid = [Fraction(i, 20) for i in range(1, 10)]
    result = feasibility_check(lambda p: min(2 * p, Fraction(4, 5)), grid, 8)
    assert result.ok and result.n == 3
    # at n = 2 the worst grid point is p = 9/20: 0.2025 > 0.2
    shallow = feasibility_check(lambda p: min(2 * p, Fraction(4, 5)), grid, 2)
    assert not shallow.ok and shallow.worst_p == Fraction(9, 20)


def test_feasibility_rejects_plain_double_near_half():
    grid = [Fraction(i, 20) for i in range(1, 10)] + [Fraction(49, 100)]
    result = feasibility_check(lambda p: 2 * p, grid, 5)
    assert not result.ok
    assert result.worst_p == Fraction(49, 100)


def test_feasibility_constant_half():
    result = feasibility_check(lambda p: Fraction(1, 2),
                               [Fraction(i, 20) for i in range(1, 10)], 8)
    assert result.n == 1


def test_feasibility_rejects_invalid_target():
    with pytest.raises(InvalidParams):
        feasibility_check(lambda p: 2 * p, [Fraction(3, 4)], 3)


# --- Monte Carlo harness ------------------------------------------------------------------


def smooth_target():
    return smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 4)
    ))


def test_monte_carlo_wilson_contains_truth():
    report = monte_carlo(constant_plan(Fraction(1, 3)), Fraction(3, 10), 20000, 7)
    assert report.wilson_lo <= Fraction(1, 3) <= report.wilson_hi
    assert report.wilson_lo <= report.estimate <= report.wilson_hi
    assert report.successes <= report.runs
    assert report.toss_q50 <= report.toss_q90 <= report.toss_q99 <= report.toss_max


def test_monte_carlo_deterministic_by_seed():
    args = (von_neumann_bit, Fraction(3, 10), 4000, 21)
    a = monte_carlo(*args)
    b = monte_carlo(*args)
    assert report_to_json(a) == report_to_json(b)


def test_monte_carlo_rejects_zero_runs():
    with pytest.raises(InvalidParams):
        monte_carlo(constant_plan(Fraction(1, 3)), Fraction(3, 10), 0, 7)


@pytest.mark.parametrize("p", [0, 1, Fraction(3, 2), Fraction(-1, 3)])
def test_monte_carlo_rejects_p_outside_unit_interval_before_any_replica(p):
    calls = []
    with pytest.raises(InvalidParams, match=f"p = {Fraction(p)} "):
        monte_carlo(lambda src: calls.append(src), p, 10, 7)
    assert calls == []


@pytest.mark.parametrize("cap", [0, -5])
def test_monte_carlo_rejects_max_tosses_below_one(cap):
    with pytest.raises(InvalidParams, match=f"max_tosses = {cap} "):
        monte_carlo(smooth_target(), Fraction(3, 10), 10, 3, max_tosses=cap, undecided="midpoint")


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
def test_monte_carlo_refuses_seeds_outside_64_bits_before_any_replica(seed):
    # mix_seed reduces seeds mod 2**64: -1 would run seed 2**64 - 1's
    # replicas, and 2**64 seed 0's, under a report recording its own seed
    calls = []
    with pytest.raises(InvalidParams, match=rf"seed = {seed} must lie in \[0, 2\*\*64\)"):
        monte_carlo(lambda src: calls.append(src), Fraction(1, 3), 10, seed)
    assert calls == []


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_monte_carlo_takes_the_seeds_at_the_ends_of_64_bits(seed):
    report = monte_carlo(monomial_schedule(2), Fraction(1, 3), 50, seed)
    assert report.seed == seed and report.runs == 50


@pytest.mark.parametrize("target", [
    constant_plan(Fraction(1, 3)),
    WalkConfig(200),
    lambda src: OutcomeRecord(src.draw_bits(1)[0], 1),
], ids=["plan", "walk", "callable"])
def test_monte_carlo_refuses_max_tosses_it_cannot_enforce(target, monkeypatch):
    # only the envelope engine takes a toss cap; other targets must refuse
    # it before any replica builds its source
    built = []
    monkeypatch.setattr(verify, "GeneratorSource", lambda *args: built.append(args))
    with pytest.raises(InvalidParams, match="max_tosses applies only to envelope schedules"):
        monte_carlo(target, Fraction(1, 4), 50, 7, max_tosses=5, undecided="midpoint")
    assert built == []


def test_monte_carlo_replicas_read_their_own_seeded_streams():
    # runs = chunk + 1: the last replica is seeded from a second chunk
    p = Fraction(3, 10)
    drawn = []

    def record(src):
        drawn.append(src.draw_bits(16))
        return OutcomeRecord(drawn[-1][0], 16)

    runs = _SEED_CHUNK + 1
    monte_carlo(record, p, runs, 501)
    assert drawn == [GeneratorSource(mix_seed(501, i), p).draw_bits(16) for i in range(runs)]


@pytest.mark.parametrize("target, p, digest", [
    (von_neumann_bit, Fraction(3, 10),
     "dc597430f11e5cdc7eb17ff829e3b47f5f6de5ac266ada7bbb102e6ad1317adc"),
    (constant_plan(Fraction(1, 3)), Fraction(3, 10),
     "08f79a3d1d5ca2b854803351e2664caba9d174dcca37b0e8c05fe31261c7a532"),
    (monomial_schedule(2), Fraction(1, 3),
     "4fb5ad5f71e263a918e00fc0ce9b5cce7ce4173f7b443fd6f75a7ab5068bc4c3"),
], ids=["von_neumann", "const_third", "monomial_2"])
def test_monte_carlo_reports_frozen(target, p, digest):
    # captured before replica seeds were hashed in chunks: streams must not move
    doc = report_to_json(monte_carlo(target, p, 1500, 501))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == digest


def test_capped_lipschitz_report_frozen():
    # criterion 3c under envelope_sampling's cap: about half the runs stop at
    # the first active checkpoint 8, and a few are capped and score 1/2
    doc = report_to_json(monte_carlo(smooth_target(), Fraction(3, 10), 1500, 501,
                                     max_tosses=4096, undecided="midpoint"))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == \
        "40c0e4bb66c8aded5c8e33381431b80a542dacaee3838bf09c6a13afdd085354"


@pytest.mark.parametrize("make, p, kwargs, digest", [
    (lambda: smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 250))),
     Fraction(3, 10), {"max_tosses": 1 << 15, "undecided": "midpoint", "tail_points": [32767]},
     "cb79cf5ed8f4265a8cf7ce099c7c46318052e85d3d1e854dfce7a1f24112ecfa"),
    (lambda: doubling_schedule(DoublingParams(Fraction(3, 25))), Fraction(1, 10), {},
     "4a3443517b72c30eb7ab610de6d8b7ea0c0c430a4a88f0430fdee526f07a7ef8"),
    (lambda: smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 250))),
     Fraction(3, 10), {"max_tosses": 20000, "undecided": "midpoint"},
     "9ce38fae1edaafdb30f626b56ccbc6383236c542f592e55b71f18dc9f9dc12e6"),
    (lambda: doubling_schedule(DoublingParams(Fraction(3, 25))), Fraction(1, 10),
     {"max_tosses": 1 << 16, "undecided": "midpoint"},
     "2dfac551b3a4bc23391642a890f4aac2b9262e7c38b97ece7a1efe081e23dbef"),
    (lambda: smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 10))),
     Fraction(3, 10), {"max_tosses": 4096, "undecided": "midpoint"},
     "c06ff110a1798d37953fe4b2238fbee9bf63a70e7575acba51863b720c03b077"),
], ids=["lipschitz_capped_at_its_jump", "doubler_fast_region",
        "lipschitz_capped_in_its_idle_prefix", "doubler_capped_in_its_idle_prefix",
        "lipschitz_idle_below_64"])
def test_idle_jump_reports_frozen(make, p, kwargs, digest):
    # every replica jumps an idle prefix, of 2**15 and 2**17 bits, and most
    # decide on the jump's prefix bounds alone: large_jump's schedule under
    # its cap, and the doubler at n0 in its fast region. Capped below n0,
    # every replica of the two stops undecided at its last idle checkpoint;
    # Lipschitz 1/10 idles below 64, too short a prefix to jump
    doc = report_to_json(monte_carlo(make(), p, 64, 501, **kwargs))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == digest


def test_monte_carlo_undecided_policies():
    sched = smooth_target()
    report = monte_carlo(sched, Fraction(3, 10), 200, 3,
                         max_tosses=4, undecided="midpoint")
    assert report.undecided == 200  # the cap is below the first active checkpoint
    assert report.estimate == Fraction(1, 2)
    from coinfactory.errors import Undecided

    with pytest.raises(Undecided):
        monte_carlo(sched, Fraction(3, 10), 200, 3, max_tosses=4)


def test_monte_carlo_tail_curve_monotone():
    report = monte_carlo(von_neumann_bit, Fraction(3, 10), 4000, 21)
    probs = [q for _, q in report.tail_curve]
    assert all(b <= a for a, b in zip(probs, probs[1:]))


# --- tail profiling -----------------------------------------------------------------------


def test_tail_fit_von_neumann_geometric():
    report = monte_carlo(von_neumann_bit, Fraction(3, 10), 20000, 5)
    fit = tail_profile(report)
    # discards happen per pair: per-toss rate squared ~ p^2 + (1-p)^2 = 0.58
    per_pair = float(fit.rho_hat) ** 2
    assert abs(per_pair - 0.58) <= 0.058


def test_tail_fit_needs_positive_points():
    report = monte_carlo(identity_plan(), Fraction(3, 10), 500, 3)
    with pytest.raises(InsufficientTail):
        tail_profile(report)


# --- report persistence ----------------------------------------------------------------------


def test_report_json_round_trip(tmp_path):
    import json

    report = monte_carlo(constant_plan(Fraction(1, 3)), Fraction(3, 10), 400, 9)
    assert report_from_json(report_to_json(report)) == report
    path = tmp_path / "report.json"
    save_report(report, path)
    assert report_from_json(json.loads(path.read_text())) == report


def test_report_rationals_serialized_as_strings():
    report = monte_carlo(constant_plan(Fraction(1, 3)), Fraction(3, 10), 400, 9)
    doc = report_to_json(report)
    assert doc["p"] == "3/10"
    assert isinstance(doc["estimate"], str) and "/" in doc["estimate"]
