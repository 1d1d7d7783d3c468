"""Full-scale smoke run of the doubling factory.

Builds the target-2p schedule for a chosen margin, runs one simulated
coin word from a seeded source, and reports where the run stopped plus
how fast the certified envelope gap shrinks past the first active
checkpoint. The first active checkpoint sits past 10^5 tosses (2^17);
at the default settings the script takes about 1 s, and with
--eps 1/20 (first active checkpoint 2^21) --width-steps 1 about 5 s
(2 cores, Python 3.11.7). A run that continues past the first active
checkpoint ranks the next level on a term walk of about 2,900 terms out
from the mode, weighed by the row's (alpha, beta), instead of its 65,537
exact terms: with --seed 147 the run continues at n0 and decides at 2*n0
in about 0.1 s, and with --seed 7 it continues to 2^23 tosses in about
11 s.

The default p = 1/4 lies outside double:3/25's fast region. The
doubler's margin needs q <= 1/2 - 4*eps = 0.02, and the sqrt-hinge
starts at 1/2 - 3*eps = 0.14; at p = 1/4, h - g shrinks only by about
1/sqrt(2) per doubling (the printed ratio 7.071e-01). At --p 1/10 the
run decides at n0, where h - g is about 7.8e-60: g and h round to the
same double, the printed width is 0 and no ratio is printed.
"""

import argparse
import time
from dataclasses import dataclass
from fractions import Fraction

from coinfactory import DoublingParams, GeneratorSource, doubling_schedule, envelope_eval, simulate


@dataclass(frozen=True)
class SmokeConfig:
    eps: Fraction
    p: Fraction
    seed: int
    width_steps: int


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", default="3/25", help="margin: p stays below 1/2 - 2*eps")
    ap.add_argument("--p", default="1/4", help="true coin bias")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--width-steps", type=int, default=3,
                    help="how many doublings of n to evaluate widths at")
    args = ap.parse_args()
    cfg = SmokeConfig(Fraction(args.eps), Fraction(args.p), args.seed, args.width_steps)

    sched = doubling_schedule(DoublingParams(cfg.eps))
    meta = sched.metadata()
    n0 = meta["n0"]
    print(f"schedule {meta['type']} n0={n0}")
    for key, val in sorted(meta["parameters"].items()):
        print(f"  {key} = {val}")

    t0 = time.perf_counter()
    outcome = simulate(sched, GeneratorSource(cfg.seed, cfg.p))
    dt = time.perf_counter() - t0
    print(f"run: bit={outcome.bit} tosses={outcome.tosses} ({dt:.1f}s)")

    n = n0
    prev = None
    for _ in range(cfg.width_steps):
        t0 = time.perf_counter()
        values = envelope_eval(sched, cfg.p, n, mode="float-with-bound")
        dt = time.perf_counter() - t0
        width = values.h - values.g
        note = f" ratio={width / prev:.3e}" if prev else ""
        print(f"n={n}: width={width:.3e}{note} ({dt:.1f}s)")
        prev = width
        n *= 2


if __name__ == "__main__":
    main()
