"""One benchmark worker: a fresh interpreter that sets up one workload and runs it.

run.py starts workers one at a time and reads the JSON object each prints
as its last stdout line. A worker is started as

    python3 perfbench/worker.py '<json spec>'

with spec keys workload, seed, child, slice_s and mode:

* timed: set up, run the workload until slice_s seconds of work are done
  (at least one batch), report per-batch wall times. Child 0 first runs
  the reference batch, whose reports give the exact toss counts.
* reference: set up, run the reference batch only, then compute the
  exact truths the outputs are checked against (untimed; timed child 0
  computes them too, after its timed work).
* traced: install the tracer, then as reference, and report per-layer
  figures instead of truths.

Workers never raise on a failed operation or check: each is counted in
"failed" and described in "errors".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction as F

from calibrate import calibration_s, scaled

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


# A process's peak memory keeps rising while time-filled batches warm the
# package's caches, so it is read after a fixed amount of work.
RSS_BATCHES = 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def derive_seed(seed: int, *parts) -> int:
    """63-bit seed for one monte_carlo call, a pure function of its inputs."""
    blob = json.dumps([seed, *parts]).encode("ascii")
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big") >> 1


def public_api():
    """The package names the workloads call; traced runs wrap these entries."""
    import coinfactory as cf
    from coinfactory import cli
    from coinfactory.lang import Interval

    api = {name: getattr(cf, name) for name in (
        "monte_carlo", "oracle_enumerate", "von_neumann_bit", "plan_bias_interval",
        "validate_schedule", "decide", "envelope_eval", "compile_to_plan", "parse",
        "smooth_schedule", "monomial_schedule", "doubling_schedule", "DoublingParams",
        "constant_plan", "save_plan", "load_plan", "plan_hash", "RankContext",
        "SmoothnessParams", "WalkConfig", "walk_bias_exact")}
    api["cli_main"] = cli.main
    api["Interval"] = Interval
    api["MODE_LIPSCHITZ"] = cf.MODE_LIPSCHITZ
    return api


def plan_nodes(plan) -> int:
    """Nodes of a plan's public tree (children only, no hidden expansions)."""
    return 1 + sum(plan_nodes(c) for c in plan.children)


def lipschitz(api, eps):
    # criterion 3c's target f = 1/2 + p/4 with C = 1/4; eps sets the margin
    # and hence the first active checkpoint
    return api["smooth_schedule"](api["SmoothnessParams"](
        lambda p: F(1, 2) + p / 4, api["MODE_LIPSCHITZ"], F(1, 4), eps))


class Target:
    """One monte_carlo target of a sampling workload."""

    def __init__(self, name, obj, p, fill_runs, ref_runs, **mc_kwargs):
        self.name, self.obj, self.p = name, obj, p
        self.fill_runs, self.ref_runs = fill_runs, ref_runs
        self.mc_kwargs = mc_kwargs


# --- workload set-up -------------------------------------------------------------


def setup_plan_sampling(api, state):
    third = api["constant_plan"](F(1, 3))
    compiled = api["compile_to_plan"](api["parse"]("p + 1/5"),
                                      api["Interval"](F(1, 10), F(2, 5)),
                                      backend=("approx", 64))
    # load the plan back from its file, as a user of a saved plan would
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, f"plan-{os.getpid()}.json")
    try:
        api["save_plan"](compiled, path)
        walk_plan = api["load_plan"](path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if api["plan_hash"](walk_plan) != api["plan_hash"](compiled):
        state["errors"].append("loaded plan hash differs from the compiled plan")
        state["setup_failed"] += 1
    state["plan_nodes"] = plan_nodes(third) + plan_nodes(walk_plan)
    state["targets"] = [
        Target("von_neumann", api["von_neumann_bit"], F(3, 10), 2000, 8000),
        Target("const_third", third, F(3, 10), 1500, 6000),
        Target("walk_plus_fifth", walk_plan, F(1, 5), 60, 240),
    ]
    state["truths"] = {
        "von_neumann": lambda: (F(1, 2), F(1, 2)),
        "const_third": lambda: (F(1, 3), F(1, 3)),
        "walk_plus_fifth": lambda: api["plan_bias_interval"](walk_plan, F(1, 5)),
    }


def setup_envelope_sampling(api, state):
    lip = lipschitz(api, F(1, 4))
    mono = api["monomial_schedule"](2)
    state["targets"] = [
        Target("lipschitz", lip, F(3, 10), 300, 1500, max_tosses=4096, undecided="midpoint"),
        Target("monomial_2", mono, F(1, 3), 3000, 8000),
    ]

    def lip_truth():
        # a run capped at 4096 scores 1/2, so the estimator's mean is (g+h)/2
        v = api["envelope_eval"](lip, F(3, 10), 4096, mode="exact")
        mid = (v.g + v.h) / 2
        return mid, mid

    state["truths"] = {"lipschitz": lip_truth, "monomial_2": lambda: (F(1, 9), F(1, 9))}


LARGE_JUMP_EPS = F(1, 250)


def setup_large_jump(api, state):
    sched = lipschitz(api, LARGE_JUMP_EPS)
    first = sched.idle_below
    state["first_active"] = first
    state["targets"] = [
        Target("large_jump", sched, F(3, 10), 2, 2, max_tosses=first, undecided="midpoint",
               tail_points=[first - 1]),
    ]
    state["truths"] = {}


def setup_certify(api, state):
    quotients = {}
    for label, backend in (("exact", ("exact",)), ("walk", ("approx", 2000))):
        quotients[label] = api["compile_to_plan"](api["parse"]("p / (p + 1/5)"),
                                                  api["Interval"](F(1, 10), F(2, 5)),
                                                  backend=backend)
    state["plan_nodes"] = sum(plan_nodes(q) for q in quotients.values())
    state["quotients"] = quotients
    state["lip"] = lipschitz(api, F(1, 4))
    state["mono"] = api["monomial_schedule"](2)
    params = api["DoublingParams"](F(3, 25))
    state["doubling"] = api["doubling_schedule"](params)
    state["n0"] = params.n0


SETUP = {
    "plan_sampling": setup_plan_sampling,
    "envelope_sampling": setup_envelope_sampling,
    "large_jump": setup_large_jump,
    "certify": setup_certify,
}


# --- sampling ----------------------------------------------------------------------


def check_report(target, report, runs, state):
    """Exact per-report checks; the statistical check is pooled in run.py."""
    problems = []
    if report.runs != runs:
        problems.append(f"runs {report.runs} != {runs}")
    if not 0 <= report.successes <= report.successes + report.undecided <= report.runs:
        problems.append("successes and undecided do not fit in the runs")
    cap = target.mc_kwargs.get("max_tosses")
    if cap is None and report.undecided:
        problems.append(f"{report.undecided} undecided runs without a toss cap")
    if cap is not None and report.toss_max > cap:
        problems.append(f"toss_max {report.toss_max} above the cap {cap}")
    if report.toss_max < 1:
        problems.append("a run used no tosses")
    first = state.get("first_active")
    if first is not None and dict(report.tail_curve).get(first - 1) != 1:
        problems.append(f"a replica stopped before {first} tosses")
    return problems


def run_batch(api, state, seed, child, batch, ref):
    """One monte_carlo call per target; returns (wall, bits, per-target reports)."""
    reports = []
    wall = 0.0
    bits = 0
    for t in state["targets"]:
        runs = t.ref_runs if ref else t.fill_runs
        mc_seed = derive_seed(seed, child, batch, t.name)
        state["attempted"] += 1
        t0 = time.perf_counter()
        try:
            report = api["monte_carlo"](t.obj, t.p, runs, mc_seed, **t.mc_kwargs)
        except Exception as exc:  # counted, never raised: the run must finish
            wall += time.perf_counter() - t0
            state["failed"] += 1
            state["errors"].append(f"{t.name}: {type(exc).__name__}: {exc}")
            continue
        wall += time.perf_counter() - t0
        bits += runs
        problems = check_report(t, report, runs, state)
        if problems:
            state["failed"] += 1
            state["errors"].append(f"{t.name}: " + "; ".join(problems))
        reports.append((t, report))
    return wall, bits, reports


def add_reports(state, reports, ref):
    for t, r in reports:
        pool = state["pool"].setdefault(t.name, {
            "runs": 0, "successes": 0, "undecided": 0, "tosses": 0, "wilson997": []})
        pool["runs"] += r.runs
        pool["successes"] += r.successes
        pool["undecided"] += r.undecided
        pool["tosses"] += int(r.toss_mean * r.runs)
        pool["wilson997"].append([str(r.wilson_lo), str(r.wilson_hi)])
        if ref:
            state["reference"][t.name] = {
                "runs": r.runs, "tosses": int(r.toss_mean * r.runs), "toss_q99": r.toss_q99,
                "undecided": r.undecided, "capped": "max_tosses" in t.mc_kwargs}


def run_sampling(api, state, spec):
    seed, child = spec["seed"], spec["child"]
    batches = []  # [wall_s, bits, reference_s]
    start = time.perf_counter()  # the slice counts calibration time too
    cal = state["calibrations"][-1]
    batch = 0
    while True:
        ref = batch == 0 and (child == 0 or spec["mode"] != "timed")
        if batch > 0 and (spec["mode"] != "timed"
                          or time.perf_counter() - start >= spec["slice_s"]):
            break
        wall, bits, reports = run_batch(api, state, seed, child, batch, ref)
        after = calibration_s()
        state["calibrations"].append(after)
        batches.append([wall, bits, scaled(wall, cal, after)])
        add_reports(state, reports, ref)
        cal = after
        batch += 1
        if batch == RSS_BATCHES:
            state["rss_mb"] = peak_rss_mb()
    state["phase_s"] = sum(b[0] for b in batches)
    state["batches"] = batches


# --- certification -----------------------------------------------------------------


def certify_pieces(api, state):
    """(name, fn) pairs; fn runs one piece and returns a list of problems."""
    lip, mono, dbl = state["lip"], state["mono"], state["doubling"]

    def validate():
        report = api["validate_schedule"](dbl, 1024)
        if report.violations or report.checked[-1:] != [1024]:
            return [f"{len(report.violations)} violations, checked up to {report.checked[-1:]}"]
        return []

    def oracle(sched, p):
        def piece():
            accept, undecided = api["oracle_enumerate"](sched, 16, p)
            v = api["envelope_eval"](sched, p, 16, mode="exact")
            if accept != v.g or accept + undecided != v.h:
                return [f"oracle [{accept}, {accept + undecided}] != envelope [{v.g}, {v.h}]"]
            return []
        return piece

    def decide_all():
        ctx = api["RankContext"](lip)
        decide = api["decide"]
        tally = {}
        for m in range(1 << 16):
            word = tuple((m >> (15 - j)) & 1 for j in range(16))
            d = decide(ctx, word).value
            tally[d] = tally.get(d, 0) + 1
        # at p = 1/2 all words weigh 2**-16, so the envelope values count them
        v = api["envelope_eval"](lip, F(1, 2), 16, mode="exact")
        ones, cont = tally.get("one", 0), tally.get("continue", 0)
        if F(ones, 1 << 16) != v.g or F(ones + cont, 1 << 16) != v.h:
            return [f"decide tally {tally} disagrees with envelope [{v.g}, {v.h}]"]
        return []

    def walk_oracle():
        accept, undecided = api["oracle_enumerate"](api["WalkConfig"](14), 14, F(1, 4))
        exact = api["walk_bias_exact"](14, F(1, 4))
        return [] if accept == exact and undecided == 0 else [f"walk oracle {accept} != {exact}"]

    def quotient():
        out = []
        lo, hi = api["plan_bias_interval"](state["quotients"]["exact"], F(1, 5))
        if (lo, hi) != (F(1, 2), F(1, 2)):
            out.append(f"exact quotient interval [{lo}, {hi}] is not the point 1/2")
        lo, hi = api["plan_bias_interval"](state["quotients"]["walk"], F(1, 5))
        if not lo <= F(1, 2) <= hi or hi - lo > F(1, 10 ** 8):
            out.append(f"walk quotient interval [{lo}, {hi}] not within 1e-8 around 1/2")
        return out

    def float_eval():
        v = api["envelope_eval"](dbl, F(1, 4), state["n0"], mode="float-with-bound")
        ok = (0 < v.g_err < 1e-6 and 0 < v.h_err < 1e-6
              and 0 <= v.g - v.g_err and v.g <= v.h and v.h + v.h_err <= 1)
        return [] if ok else [f"float envelope {v} is not a bracket in [0, 1]"]

    def cli_verify():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api["cli_main"](["verify", "--target", "walk:14", "--depth", "14",
                                    "--p", "1/4"])
        if code != 0 or "matches the closed form exactly" not in out.getvalue():
            return [f"cli verify exit {code}: {out.getvalue().strip()}"]
        return []

    return [
        ("validate", validate),
        ("oracle_monomial", oracle(mono, F(1, 3))),
        ("oracle_lipschitz", oracle(lip, F(3, 10))),
        ("decide", decide_all),
        ("walk_oracle", walk_oracle),
        ("quotient_bias", quotient),
        ("float_eval", float_eval),
        ("cli_verify", cli_verify),
    ]


def run_certify(api, state):
    pieces = {}
    pieces_ref = {}
    cal = state["calibrations"][-1]
    for name, piece in certify_pieces(api, state):
        state["attempted"] += 1
        t0 = time.perf_counter()
        try:
            problems = piece()
        except Exception as exc:  # counted, never raised: the run must finish
            problems = [f"{type(exc).__name__}: {exc}"]
        pieces[name] = time.perf_counter() - t0
        after = calibration_s()
        state["calibrations"].append(after)
        pieces_ref[name] = scaled(pieces[name], cal, after)
        cal = after
        if problems:
            state["failed"] += 1
            state["errors"].append(f"{name}: " + "; ".join(problems))
    state["phase_s"] = sum(pieces.values())
    state["phase_ref_s"] = sum(pieces_ref.values())
    state["pieces"] = pieces
    state["pieces_ref"] = pieces_ref


# --- entry point -------------------------------------------------------------------


def main(spec) -> dict:
    import numpy

    api = public_api()
    tracer = None
    if spec["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer, api)
    state = {"attempted": 0, "failed": 0, "setup_failed": 0, "errors": [], "pool": {},
             "reference": {}, "plan_nodes": 0}
    workload = spec["workload"]
    SETUP[workload](api, state)
    ready = time.monotonic()
    state["calibrations"] = [calibration_s()]
    if workload == "certify":
        run_certify(api, state)
    else:
        run_sampling(api, state, spec)
    result = {
        "ready": ready,
        "phase_s": state["phase_s"],
        "phase_ref_s": state.get("phase_ref_s"),
        "calibrations": state["calibrations"],
        "attempted": state["attempted"] + state["setup_failed"],
        "failed": state["failed"] + state["setup_failed"],
        "errors": state["errors"][:20],
        "pool": state["pool"],
        "reference": state["reference"],
        "batches": state.get("batches", []),
        "pieces": state.get("pieces", {}),
        "pieces_ref": state.get("pieces_ref", {}),
        "rss_mb": state.get("rss_mb") or peak_rss_mb(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if spec["mode"] == "reference" or (spec["mode"] == "timed" and spec["child"] == 0):
        truths = state.get("truths", {})
        result["truths"] = {name: [str(x) for x in fn()] for name, fn in truths.items()}
    if tracer is not None:
        figures = tracing.layer_metrics(tracer, state["plan_nodes"])
        result["layers"] = {k: [v, unit] for k, (v, unit) in figures.items()}
        result["untraced_names"] = missing
        result["spans"] = len(tracer.spans)
        work = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(work, exist_ok=True)
        path = os.path.join(work, f"spans-{workload}-seed{spec['seed']}.jsonl")
        tracer.write_spans(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
