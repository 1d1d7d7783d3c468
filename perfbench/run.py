"""coinfactory benchmark: timed end-to-end runs and a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or "all" to run each of
them in turn. Every workload run is a series of fresh interpreters
(perfbench/worker.py) started one after another, so package caches start
cold in each and only one process loads the machine at a time.

--trace 0 times the workload for about S seconds and prints its end-to-end
metrics; --trace 1 runs the workload's reference batch once untraced and
once traced, and prints the per-layer metrics. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. A fuller
record, with provenance, is written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

WORKLOADS = ("plan_sampling", "envelope_sampling", "certify", "large_jump")
# the end-to-end metrics every workload has; the JSON line carries these
END_TO_END = ("setup_s", "op_ms", "peak_rss_mb")
SAMPLING_CHILDREN = 3
MIN_CERTIFY_PASSES = 3
RUN_BUDGET_S = 170  # a run must end within 180 s
# Pass/fail level of the pooled frequency checks. Each report's own
# interval is z = 3 (99.7%); with several reports per run and hundreds
# of runs per comparison, z = 3 would flag a correct program in most
# comparisons, so the gate uses z = 5 (two-sided 5.7e-7) on the pooled
# counts and the z = 3 misses are printed as information.
GATE_Z = 5


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- workers ---------------------------------------------------------------------


def run_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {spec}")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec} did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {spec} exited with code {proc.returncode}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker {spec} printed no result") from exc
    # wall time: start-up and imports do not track the calibration loop
    out["setup_s"] = out["ready"] - spawned
    return out


# --- checks ------------------------------------------------------------------------


def wilson(successes2: int, runs: int, z: float) -> tuple[float, float]:
    """Wilson score interval for an estimate of successes2 / (2 runs)."""
    p = successes2 / (2 * runs)
    z2 = z * z
    denom = 1 + z2 / runs
    center = (p + z2 / (2 * runs)) / denom
    half = z * math.sqrt(p * (1 - p) / runs + z2 / (4 * runs * runs)) / denom
    return center - half, center + half


def check_pools(children: list, truths: dict) -> tuple[int, int, list]:
    """Pooled frequency check per target; returns (failed reports, z=3 misses, errors)."""
    pools = {}
    for child in children:
        for name, pool in child["pool"].items():
            acc = pools.setdefault(name, {"runs": 0, "successes": 0, "undecided": 0,
                                          "wilson997": []})
            for key in ("runs", "successes", "undecided"):
                acc[key] += pool[key]
            acc["wilson997"] += pool["wilson997"]
    failed, misses, errors = 0, 0, []
    for name, acc in pools.items():
        if name not in truths:
            continue
        t_lo, t_hi = (F(x) for x in truths[name])
        for lo, hi in acc["wilson997"]:
            if F(hi) < t_lo or F(lo) > t_hi:
                misses += 1
        lo, hi = wilson(2 * acc["successes"] + acc["undecided"], acc["runs"], GATE_Z)
        # float rounding of the interval is far below its width
        if hi < float(t_lo) or lo > float(t_hi):
            failed += len(acc["wilson997"])
            errors.append(f"{name}: pooled estimate interval [{lo:.6f}, {hi:.6f}] "
                          f"(z={GATE_Z}, {acc['runs']} runs) misses the truth "
                          f"[{float(t_lo):.6f}, {float(t_hi):.6f}]")
    return failed, misses, errors


def tally(children: list) -> tuple[int, int, list]:
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    return attempted, failed, errors


# --- one workload ------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    children = []
    if workload == "certify":
        # one cold pass per interpreter; passes repeat until the time is used
        while len(children) < MIN_CERTIFY_PASSES or \
                sum(c["phase_s"] for c in children) < seconds:
            spec = {"workload": workload, "seed": seed, "child": len(children),
                    "slice_s": seconds, "mode": "timed"}
            children.append(run_worker(spec, deadline))
    else:
        for child in range(SAMPLING_CHILDREN):
            spec = {"workload": workload, "seed": seed, "child": child,
                    "slice_s": seconds / SAMPLING_CHILDREN, "mode": "timed"}
            children.append(run_worker(spec, deadline))
    attempted, failed, errors = tally(children)
    bad, misses, pool_errors = check_pools(children, children[0].get("truths", {}))
    failed += bad
    errors += pool_errors

    ref = children[0]["reference"].values()
    ref_runs = sum(r["runs"] for r in ref)
    capped = [r for r in ref if r["capped"]]
    report = {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "peak_rss_mb": (statistics.median(c["rss_mb"] for c in children), "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    if workload == "certify":
        passes = [c["phase_s"] for c in children]
        report["certify_s"] = (statistics.median(passes), "s")
        report["op_ms"] = (statistics.median(c["phase_ref_s"] for c in children) * 1e3, "ms")
        pieces = {k: statistics.median(c["pieces"][k] for c in children)
                  for k in children[0]["pieces"]}
    else:
        batches = [b for c in children for b in c["batches"] if b[1]]
        report["bits_per_s"] = (sum(b[1] for b in batches) / sum(b[0] for b in batches),
                                "bits/s")
        report["op_ms"] = (sum(b[2] for b in batches) / sum(b[1] for b in batches) * 1e3, "ms")
        report["tosses_per_bit"] = (sum(r["tosses"] for r in ref) / ref_runs, "tosses")
        report["tosses_p99"] = (max(r["toss_q99"] for r in ref), "tosses")
        if capped:
            report["capped_frac"] = (sum(r["undecided"] for r in capped)
                                     / sum(r["runs"] for r in capped), "ratio")
        pieces = {}
    cals = [x for c in children for x in c["calibrations"]]
    detail = {
        "calibration_ms_median": statistics.median(cals) * 1e3,
        "children": len(children),
        "batches": sum(len(c["batches"]) for c in children),
        "bits": sum(b[1] for c in children for b in c["batches"]),
        "reference_bits": ref_runs if workload != "certify" else 0,
        "wilson997_misses": misses,
        "certify_pieces_s": pieces,
        "certify_passes_ref_s": [c["pieces_ref"] for c in children if c["pieces_ref"]],
    }
    return {"metrics": report, "attempted": attempted, "failed": failed, "errors": errors,
            "detail": detail, "versions": children[0]["versions"]}


def traced_run(workload: str, seed: int, deadline: float) -> dict:
    base = {"workload": workload, "seed": seed, "child": 0, "slice_s": 0}
    plain = run_worker(dict(base, mode="reference"), deadline)
    traced = run_worker(dict(base, mode="traced"), deadline)
    attempted, failed, errors = tally([plain, traced])
    for child in (plain, traced):
        bad, _, pool_errors = check_pools([child], plain["truths"])
        failed += bad
        errors += pool_errors
    # the traced run must account for every toss the untraced reports count
    attempted += 1
    expected = sum(p["tosses"] for p in plain["pool"].values())
    traced_tosses = sum(p["tosses"] for p in traced["pool"].values())
    counted = traced["layers"]["coins.bits"][0]
    if not counted == expected == traced_tosses:
        failed += 1
        errors.append(f"coins.bits {counted} does not reconcile with {expected} tosses in "
                      f"the untraced reports ({traced_tosses} in the traced ones)")
    report = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = traced["phase_s"] - plain["phase_s"]
    report["trace.overhead_s"] = (overhead, "s")
    report["trace.overhead_frac"] = (overhead / plain["phase_s"], "ratio")
    report["trace.spans"] = (traced["spans"], "count")
    detail = {
        "untraced_phase_s": plain["phase_s"],
        "traced_phase_s": traced["phase_s"],
        "reconciled_tosses": expected,
        "untraced_names": traced["untraced_names"],
        "spans_file": traced["spans_file"],
    }
    return {"metrics": report, "attempted": attempted, "failed": failed, "errors": errors,
            "detail": detail, "versions": plain["versions"]}


# --- provenance --------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def provenance(seed: int, versions: dict) -> dict:
    return {"commit": git_commit(), "nproc": os.cpu_count(), "python": versions["python"],
            "numpy": versions["numpy"], "seed": seed, "src_lines": src_lines()}


# --- output ------------------------------------------------------------------------

E2E_ORDER = ("setup_s", "op_ms", "bits_per_s", "tosses_per_bit", "tosses_p99", "capped_frac",
             "certify_s", "peak_rss_mb", "failed_frac")
UNITS = {"setup_s": "s", "op_ms": "ms", "bits_per_s": "bits/s", "tosses_per_bit": "tosses",
         "tosses_p99": "tosses", "capped_frac": "ratio", "certify_s": "s",
         "peak_rss_mb": "MB", "failed_frac": "ratio"}


def print_table(workload: str, result: dict, trace: int) -> None:
    metrics = result["metrics"]
    print(f"== {workload} ({'traced' if trace else 'timed'})")
    names = E2E_ORDER if not trace else sorted(metrics)
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:32s} {value:>16.6g} {unit}")
        else:
            print(f"  {name:32s} {'n/a':>16s} {UNITS[name]} (not measured by this workload)")
    print(f"  detail {json.dumps(result['detail'], sort_keys=True)}")
    print(f"  operations {result['attempted']} attempted, {result['failed']} failed")
    for err in result["errors"][:10]:
        print(f"  FAILED {err}")


def write_record(workload: str, args, result: dict, prov: dict) -> None:
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    record = {"workload": workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, **result}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coinfactory", "__init__.py")):
        print(f"perfbench: no coinfactory sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            if args.trace:
                result = traced_run(workload, args.seed, deadline)
            else:
                result = timed_run(workload, args.seed, args.seconds, deadline)
            prov = provenance(args.seed, result["versions"])
            print_table(workload, result, args.trace)
            print(f"  provenance {json.dumps(prov, sort_keys=True)}")
            write_record(workload, args, result, prov)
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, (value, unit) in result["metrics"].items():
                if args.trace or name in END_TO_END:
                    combined["metrics"][prefix + name] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    combined["correct"] = combined["failed"] == 0
    sys.stdout.flush()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
