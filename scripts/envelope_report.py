"""Validate a schedule's count tables and optionally dump them to CSV.

Checks the integer invariants cell by cell up to a checkpoint bound:
counts stay inside [0, C(n, k)], lower counts never exceed upper
counts, and consecutive checkpoints refine one another in the right
direction on both sides.
"""

import argparse
import sys

from coinfactory import dump_envelope_csv, resolve_schedule_ref, validate_schedule


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("target", help="schedule reference, e.g. monomial:2 or double:3/25")
    ap.add_argument("--max-n", type=int, default=256)
    ap.add_argument("--dump", metavar="PATH", help="also write the cells as CSV")
    ap.add_argument("--skip-bounds", action="store_true",
                    help="check only cross-checkpoint consistency")
    args = ap.parse_args()

    sched = resolve_schedule_ref(args.target)
    report = validate_schedule(sched, args.max_n, check_bounds=not args.skip_bounds)
    print(f"checked checkpoints {report.checked} up to n = {report.max_checkpoint}")
    for v in report.violations:
        print(f"  {v}")
    if args.dump:
        dump_envelope_csv(sched, args.max_n, args.dump)
        print(f"wrote {args.dump}")
    if report.violations:
        print(f"{len(report.violations)} violations")
        return 1
    print("clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
