"""Span and counter tracing for the traced benchmark run.

Nothing here is imported by the timed runs. A traced worker calls
install() once, after importing coinfactory and before its set-up, which
rebinds public names of the package (and the few module globals that
route calls between its modules) to timing wrappers. Two kinds of
wrapper exist:

* span: a boundary crossed once per replica or less often (a replica,
  run_plan, simulate, level_data, validate_schedule, ...). Each call is
  kept in memory as [name, start, end, parent, run_id, busy].
* folded: a call made per bit or per cell (next_bit, counts, interval
  operations, ...). A span per call would dominate the run, so these
  only add to per-name counters and to the busy time of the enclosing
  span.

Every wrapped call records its exclusive time: its duration minus the
time spent inside nested wrapped calls. A layer's self time is the sum
of exclusive times of its wrapped names.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # frames: [child_time, span_index or -1]; the root frame never pops
        self.frames = [[0.0, -1]]
        self.spans = []  # [name, start, end, parent, run_id, folded]
        self.span_stack = [-1]
        self.calls = defaultdict(int)
        self.excl = defaultdict(float)
        self.counters = defaultdict(int)
        self.run_id = 0
        self._next_run = 1
        self.folding = 0

    # -- wrappers ---------------------------------------------------------

    def folded(self, name, fn, fold_inner=False):
        """Counter wrapper; with fold_inner, spans inside the call fold too."""
        frames, calls, excl, spans, span_stack = (
            self.frames, self.calls, self.excl, self.spans, self.span_stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            frames.append(frame)
            if fold_inner:
                self.folding += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                if fold_inner:
                    self.folding -= 1
                frames.pop()
                own = d - frame[0]
                frames[-1][0] += d
                calls[name] += 1
                excl[name] += own
                top = span_stack[-1]
                if top >= 0:
                    busy = spans[top][5]
                    entry = busy.get(name)
                    if entry is None:
                        busy[name] = [1, own]
                    else:
                        entry[0] += 1
                        entry[1] += own

        return wrapper

    def span(self, name, fn, replica_root=False, after=None, fold_inner=False):
        """Span wrapper; after(result, args, kwargs) may update counters.

        With replica_root, a call made directly under a monte_carlo span
        is one replica: it gets a verify.replica span and a fresh run id.
        With fold_inner, spans inside the call are folded: an exhaustive
        enumeration makes one run per tape, too many to keep as spans.
        Inside such a call this span folds as well.
        """
        as_folded = self.folded(name, fn)

        def timed(*args, **kwargs):
            if fold_inner:
                self.folding += 1
            try:
                return self._timed(name, fn, args, kwargs)
            finally:
                if fold_inner:
                    self.folding -= 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.folding:
                result = as_folded(*args, **kwargs)
            elif replica_root and self.span_stack[-1] >= 0 \
                    and self.spans[self.span_stack[-1]][0] == "verify.monte_carlo":
                outer_run = self.run_id
                self.run_id = self._next_run
                self._next_run += 1
                try:
                    result = self._timed("verify.replica", timed, args, kwargs)
                finally:
                    self.run_id = outer_run
            else:
                result = timed(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.span_stack[-1], self.run_id, {}]
        self.spans.append(record)
        self.span_stack.append(index)
        frame = [0.0, index]
        self.frames.append(frame)
        t0 = perf_counter()
        record[1] = t0
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            d = t1 - t0
            record[2] = t1
            self.frames.pop()
            self.span_stack.pop()
            self.frames[-1][0] += d
            self.calls[name] += 1
            self.excl[name] += d - frame[0]

    # -- results ------------------------------------------------------------

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write_spans(self, path):
        """Spans as JSON lines: name, start, end (s), parent index, run id, busy."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[0], round(s[1] - base, 9), round(s[2] - base, 9),
                                     s[3], s[4], s[5]]) + "\n")


def _patch(owner, attr, make):
    """Rebind owner.attr to make(original); a name that is gone is skipped."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    setattr(owner, attr, make(original))
    return True


def install(tracer: Tracer, api: dict) -> list:
    """Wrap the package's layer boundaries; returns the names not found.

    api is the worker's table of public callables; its entries are
    replaced by traced versions so that calls the benchmark makes itself
    are traced too.
    """
    from coinfactory import cli, coins, combinators, engine, lang, verify

    T = tracer
    missing = []

    def patch(owner, attr, make):
        if not _patch(owner, attr, make):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    # coins: per-bit calls folded, bits counted where they are drawn
    def count_bits(name, fn, per_call):
        inner = T.folded(name, fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            T.counters["coins.bits"] += per_call(args, kwargs)
            return inner(self, *args, **kwargs)
        return wrapper

    gs = coins.GeneratorSource
    patch(gs, "next_bit", lambda f: count_bits("coins.next_bit", f, lambda a, k: 1))
    patch(gs, "draw_bits", lambda f: count_bits(
        "coins.draw_bits", f, lambda a, k: max(0, int(a[0] if a else k["count"]))))
    patch(gs, "__init__", lambda f: T.folded("coins.construct", f))

    # combinators: plan runs and the per-bit plan adapter the walk reads
    patch(verify, "run_plan", lambda f: T.span("combinators.run_plan", f, replica_root=True))
    patch(combinators.PlanSource, "next_bit",
          lambda f: T.folded("combinators.plan_source_next_bit", f))

    # walk: one span per walk run, steps from the outcome records
    def walk_steps(rec, args, kwargs):
        T.counters["walk.steps"] += rec.tosses

    def walk_span(f):
        return T.span("walk.approx_double_bit", f, replica_root=True, after=walk_steps)

    patch(combinators, "approx_double_bit", walk_span)
    patch(verify, "approx_double_bit", walk_span)

    # engine: simulate and level_data are spans, the rank steps folded
    def sim_span(f):
        return T.span("engine.simulate", f, replica_root=True)

    patch(verify, "simulate", sim_span)
    patch(combinators, "simulate", sim_span)
    rc = engine.RankContext
    patch(rc, "first_level", lambda f: T.folded("engine.first_level", f))
    patch(rc, "jump_level", lambda f: T.folded("engine.jump_level", f))
    patch(rc, "level_data", lambda f: T.span("engine.level_data", f))
    level_cls = getattr(engine, "_LevelData", None)
    if level_cls is not None:
        build = T.folded("engine.level_build", level_cls.__init__)

        class TracedLevelData(level_cls):
            __slots__ = ()
            __init__ = build

        engine._LevelData = TracedLevelData
    else:
        missing.append("engine._LevelData")
    for iv in ("iv_mul", "iv_add", "iv_from_fraction"):
        patch(engine, iv, lambda f, iv=iv: T.folded("numerics." + iv, f))

    # schedules: count evaluations folded per cell
    es = engine.EnvelopeSchedule
    patch(es, "counts", lambda f: T.folded("schedules.counts", f))
    patch(es, "ab_values", lambda f: T.folded("schedules.ab_values", f))

    # lang: bound analysis nested inside compile
    patch(lang, "analyze_bounds", lambda f: T.span("lang.analyze_bounds", f))

    # verify: the oracle as the CLI reaches it
    def oracle_after(result, args, kwargs):
        depth = args[1] if len(args) > 1 else kwargs["depth"]
        T.counters["verify.oracle_tapes"] += 1 << depth

    oracle = T.span("verify.oracle_enumerate", verify.oracle_enumerate, after=oracle_after,
                    fold_inner=True)
    patch(cli, "oracle_enumerate", lambda f: oracle)

    # the worker's own calls into the public API
    def mc_after(report, args, kwargs):
        T.counters["verify.mc_runs"] += report.runs
        T.counters["verify.undecided"] += report.undecided

    def validate_after(report, args, kwargs):
        T.counters["engine.validate_cells"] += sum(n + 1 for n in report.checked)

    def eval_span(f):
        exact = T.span("engine.envelope_eval.exact", f)
        flt = T.span("engine.envelope_eval.float", f)

        @functools.wraps(f)
        def wrapper(schedule, p, n, mode="exact"):
            return (exact if mode == "exact" else flt)(schedule, p, n, mode)
        return wrapper

    wrappers = {
        "monte_carlo": lambda f: T.span("verify.monte_carlo", f, after=mc_after),
        "oracle_enumerate": lambda f: oracle,
        "von_neumann_bit": lambda f: T.span("combinators.von_neumann_bit", f, replica_root=True),
        "plan_bias_interval": lambda f: T.span("combinators.plan_bias_interval", f),
        "validate_schedule": lambda f: T.span("engine.validate_schedule", f,
                                              after=validate_after),
        "decide": lambda f: T.folded("engine.decide", f, fold_inner=True),
        "envelope_eval": eval_span,
        "compile_to_plan": lambda f: T.span("lang.compile_to_plan", f),
        "parse": lambda f: T.span("lang.parse", f),
        "cli_main": lambda f: T.span("cli.main", f),
    }
    for name in ("smooth_schedule", "monomial_schedule", "doubling_schedule", "DoublingParams"):
        wrappers[name] = lambda f: T.span("schedules.build", f)
    for name, make in wrappers.items():
        if name in api:
            api[name] = make(api[name])
        else:
            missing.append(name)
    return missing


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def layer_metrics(T: Tracer, plan_nodes: int) -> dict:
    """Per-layer figures named as in BENCHMARK.json's per_layer list."""
    c, e, n = T.calls, T.excl, T.counters

    def ratio(a, b):
        return a / b if b else 0.0

    bits = n["coins.bits"]
    coins_busy = e["coins.next_bit"] + e["coins.draw_bits"]
    sims = c["engine.simulate"]
    level_calls = c["engine.level_data"]
    replica_ms = [d * 1e3 for d in T.durations("verify.replica")]
    iv_names = ("numerics.iv_mul", "numerics.iv_add", "numerics.iv_from_fraction")
    return {
        "coins.bits": (bits, "count"),
        "coins.next_bit_calls": (c["coins.next_bit"], "count"),
        "coins.draw_bits_calls": (c["coins.draw_bits"], "count"),
        "coins.busy_s": (coins_busy, "s"),
        "coins.ns_per_bit": (ratio(coins_busy, bits) * 1e9, "ns"),
        "coins.sources": (c["coins.construct"], "count"),
        "coins.construct_s": (e["coins.construct"], "s"),
        "combinators.run_plan_calls": (
            c["combinators.run_plan"] + c["combinators.von_neumann_bit"], "count"),
        "combinators.self_s": (
            e["combinators.run_plan"] + e["combinators.von_neumann_bit"]
            + e["combinators.plan_source_next_bit"], "s"),
        "combinators.plan_nodes": (plan_nodes, "count"),
        "combinators.bias_interval_s": (e["combinators.plan_bias_interval"], "s"),
        "walk.calls": (c["walk.approx_double_bit"], "count"),
        "walk.steps": (n["walk.steps"], "count"),
        "walk.self_s": (e["walk.approx_double_bit"], "s"),
        "engine.simulate_calls": (sims, "count"),
        "engine.simulate_self_s": (e["engine.simulate"], "s"),
        "engine.levels_per_bit": (
            ratio(c["engine.first_level"] + c["engine.jump_level"], sims), "count"),
        "engine.jump_level_s": (e["engine.first_level"] + e["engine.jump_level"], "s"),
        "engine.level_builds": (c["engine.level_build"], "count"),
        "engine.level_hit_ratio": (
            1 - ratio(c["engine.level_build"], level_calls) if level_calls else 0.0, "ratio"),
        "engine.level_build_s": (e["engine.level_build"], "s"),
        "engine.decide_s": (e["engine.decide"], "s"),
        "engine.validate_cells": (n["engine.validate_cells"], "count"),
        "engine.validate_s": (e["engine.validate_schedule"], "s"),
        "engine.eval_exact_s": (e["engine.envelope_eval.exact"], "s"),
        "engine.eval_float_s": (e["engine.envelope_eval.float"], "s"),
        "schedules.counts_calls": (c["schedules.counts"], "count"),
        "schedules.counts_s": (e["schedules.counts"], "s"),
        "schedules.ab_calls": (c["schedules.ab_values"], "count"),
        "schedules.ab_s": (e["schedules.ab_values"], "s"),
        "schedules.build_s": (e["schedules.build"], "s"),
        "numerics.iv_calls": (sum(c[k] for k in iv_names), "count"),
        "numerics.iv_s": (sum(e[k] for k in iv_names), "s"),
        "lang.analyze_s": (e["lang.analyze_bounds"], "s"),
        "lang.compile_s": (e["lang.compile_to_plan"] + e["lang.parse"], "s"),
        "verify.mc_runs": (n["verify.mc_runs"], "count"),
        "verify.mc_self_s": (e["verify.monte_carlo"] + e["verify.replica"], "s"),
        "verify.replica_ms_p50": (_pct(replica_ms, 50), "ms"),
        "verify.replica_ms_p99": (_pct(replica_ms, 99), "ms"),
        "verify.oracle_tapes": (n["verify.oracle_tapes"], "count"),
        "verify.oracle_s": (e["verify.oracle_enumerate"], "s"),
        "verify.undecided": (n["verify.undecided"], "count"),
        "cli.calls": (c["cli.main"], "count"),
        "cli.main_s": (e["cli.main"], "s"),
    }
