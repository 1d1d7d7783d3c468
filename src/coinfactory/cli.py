"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 I/O problems, 2 compile
diagnostics (syntax or bound certification), 3 verification or execution
failures. All numeric flags parse as exact rationals; nothing goes
through floating point.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .combinators import (
    FactoryPlan,
    _check_backend,
    load_plan,
    plan_bias_interval,
    plan_hash,
    resolve_schedule_ref,
    save_plan,
)
from .engine import EnvelopeSchedule, dump_envelope_csv, envelope_eval, validate_schedule
from .errors import CoinFactoryError, CompileBlocked, ExprSyntaxError, InvalidParams
from .lang import Interval, compile_to_plan, parse
from .schedules import corrupt_monomial_fixture
from .verify import (
    _frac_str,
    monte_carlo,
    oracle_enumerate,
    report_from_json,
    save_report,
    tail_profile,
)
from .walk import WalkConfig, walk_bias_exact

EXIT_OK = 0
EXIT_IO = 1
EXIT_COMPILE = 2
EXIT_VERIFY = 3


def _usage_errors(parse):
    """Argument type whose package errors, malformed values and zero
    denominators are usage errors that name the reason; argparse itself
    reports a ValueError only as an invalid value of the parser's name."""

    @functools.wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except (CoinFactoryError, ValueError, ZeroDivisionError) as e:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {e}") from e

    return checked


@_usage_errors
def _fraction(text: str) -> Fraction:
    return Fraction(text)


@_usage_errors
def _parse_backend(text: str):
    name, sep, steps = text.partition(":")
    return _check_backend((name, int(steps)) if sep else (name,))


@_usage_errors
def _parse_domain(text: str) -> Interval:
    lo, _, hi = text.partition(":")
    if not hi:
        raise argparse.ArgumentTypeError("domain must be LO:HI")
    return Interval(Fraction(lo), Fraction(hi))


@_usage_errors
def _resolve_target(text: str):
    name, _, arg = text.partition(":")
    if name in ("double", "monomial"):
        return resolve_schedule_ref(text)
    if name == "walk":
        return WalkConfig(int(arg))
    if name == "fixture" and arg == "corrupt-monomial":
        return corrupt_monomial_fixture()
    raise argparse.ArgumentTypeError(
        f"unknown target {text!r}; expected double:EPS, walk:N, monomial:J, "
        f"or fixture:corrupt-monomial")


def _load_target(args):
    if getattr(args, "plan", None):
        return load_plan(args.plan)
    return args.target


# --- subcommands ---------------------------------------------------------------


def cmd_compile(args) -> int:
    try:
        ast = parse(args.expr)
    except ExprSyntaxError as e:
        print(f"syntax error at offset {e.offset}: found {e.found!r}, "
              f"expected one of {sorted(e.expected)}")
        return EXIT_COMPILE
    try:
        plan = compile_to_plan(ast, args.domain, args.backend)
    except CompileBlocked as e:
        for d in e.diagnostics:
            iv = f" [{_frac_str(d.interval.lo)}, {_frac_str(d.interval.hi)}]" if d.interval else ""
            print(f"{d.severity} at {d.span[0]}..{d.span[1]}: {d.message}{iv}")
        return EXIT_COMPILE
    if args.out:
        save_plan(plan, args.out)
        print(f"wrote {args.out} hash {plan_hash(plan)}")
    else:
        print(f"compiled hash {plan_hash(plan)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    target = _load_target(args)
    report = monte_carlo(target, args.p, args.runs, args.seed,
                         max_tosses=args.max_tosses,
                         undecided="error" if args.max_tosses is None else "midpoint")
    if args.report:
        save_report(report, args.report)
    print(f"estimate {_frac_str(report.estimate)} "
          f"wilson997 [{_frac_str(report.wilson_lo)}, {_frac_str(report.wilson_hi)}] "
          f"tosses mean {_frac_str(report.toss_mean)} max {report.toss_max}")
    return EXIT_OK


def cmd_verify(args) -> int:
    target = _load_target(args)
    accept, undecided = oracle_enumerate(target, args.depth, args.p)
    h = accept + undecided
    print(f"oracle brackets at depth {args.depth}: "
          f"[{_frac_str(accept)}, {_frac_str(h)}]")
    if isinstance(target, EnvelopeSchedule):
        if target.is_checkpoint(args.depth):
            values = envelope_eval(target, args.p, args.depth, mode="exact")
            if values.g != accept or values.h != h:
                print(f"MISMATCH: envelope evaluation gives "
                      f"[{_frac_str(values.g)}, {_frac_str(values.h)}]")
                return EXIT_VERIFY
            print("envelope evaluation matches exactly")
        return EXIT_OK
    if isinstance(target, FactoryPlan):
        lo, hi = plan_bias_interval(target, args.p)
        print(f"plan bias interval [{_frac_str(lo)}, {_frac_str(hi)}]")
        if max(lo, accept) > min(hi, h):
            print("MISMATCH: bias interval misses the oracle bracket")
            return EXIT_VERIFY
        return EXIT_OK
    if isinstance(target, WalkConfig) and args.depth >= target.steps:
        exact = walk_bias_exact(target.steps, args.p)
        if accept != exact or undecided != 0:
            print(f"MISMATCH: closed-form walk bias is {_frac_str(exact)}")
            return EXIT_VERIFY
        print("walk enumeration matches the closed form exactly")
    return EXIT_OK


def cmd_envelope(args) -> int:
    target = _load_target(args)
    if not isinstance(target, EnvelopeSchedule):
        raise CoinFactoryError("envelope inspection needs a schedule target")
    report = validate_schedule(target, args.max_n)
    if args.dump:
        dump_envelope_csv(target, args.max_n, args.dump)
    cells = sum(n + 1 for n in report.checked)
    print(f"checked {cells} cells up to n = {report.max_checkpoint}")
    if report.violations:
        for v in report.violations[:20]:
            print(f"violation: {v.kind} at (n={v.n}, k={v.k}): {v.lhs} vs {v.rhs}")
        return EXIT_VERIFY
    print("zero violations")
    return EXIT_OK


def cmd_tails(args) -> int:
    with open(args.report, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise InvalidParams(f"not a report file: {args.report}") from e
    report = report_from_json(doc)
    fit = tail_profile(report)
    print(f"rho_hat {float(fit.rho_hat):.6f} c_hat {float(fit.c_hat):.6f} "
          f"window {fit.window[0]}..{fit.window[1]} residual {float(fit.residual):.6g}")
    return EXIT_OK


# --- argument plumbing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coinfactory",
                                  description="exact coin-from-coin simulation toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile an expression in p to a plan file")
    c.add_argument("expr")
    c.add_argument("--domain", type=_parse_domain, required=True, metavar="LO:HI")
    c.add_argument("--backend", type=_parse_backend, default=None,
                   metavar="exact|approx:STEPS")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_compile)

    s = sub.add_parser("simulate", help="Monte Carlo a plan or builtin target")
    tgt = s.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--plan")
    tgt.add_argument("--target", type=_resolve_target)
    s.add_argument("--p", type=_fraction, required=True)
    s.add_argument("--runs", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-tosses", type=int, default=None)
    s.add_argument("--report")
    s.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("verify", help="exhaustive oracle brackets at a depth")
    tgt = v.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--plan")
    tgt.add_argument("--target", type=_resolve_target)
    v.add_argument("--depth", type=int, required=True)
    v.add_argument("--p", type=_fraction, required=True)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("envelope", help="validate a schedule and dump its counts")
    e.add_argument("--target", type=_resolve_target, required=True)
    e.add_argument("--max-n", dest="max_n", type=int, required=True)
    e.add_argument("--dump")
    e.set_defaults(fn=cmd_envelope)

    t = sub.add_parser("tails", help="fit a geometric tail to a report")
    t.add_argument("--report", required=True)
    t.set_defaults(fn=cmd_tails)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(f"io error: {e}")
        return EXIT_IO
    except CoinFactoryError as e:
        print(f"error: {e}")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
