#!/usr/bin/env python3
"""Scan derivation-space dimensions over a weight grid.

Prints, per (a, b) and grading degree, the solved dimension, the inner
rank on the same window, and their difference.  The difference is 1
exactly on the a = 1 line.

Usage: python scripts/derivation_dimension_scan.py [csv|chv] [bound] [window]
"""

import argparse
import sys

from confalg.catalog import build_chv, build_csv
from confalg.derivations import solve_graded_derivations
from confalg.suite import DERIVATION_GRID_A, DERIVATION_GRID_B


BUILDERS = {"csv": build_csv, "chv": build_chv}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebra", nargs="?", default="csv", choices=sorted(BUILDERS))
    parser.add_argument("bound", nargs="?", type=int, default=4, help="image degree bound")
    parser.add_argument("window", nargs="?", type=int, default=2, help="index window")
    args = parser.parse_args(argv)
    algebra, bound, window = args.algebra, args.bound, args.window
    builder = BUILDERS[algebra]
    print(f"{algebra}: image degree <= {bound}, window |i| <= {window}")
    print(f"{'a':>6} {'b':>4} {'deg':>4} {'dim':>4} {'inner':>6} {'extra':>6}")
    for a in DERIVATION_GRID_A:
        for b in DERIVATION_GRID_B:
            spec = builder(a, b)
            for degree in (-1, 0, 1):
                res = solve_graded_derivations(spec, degree, bound, window)
                print(
                    f"{str(a):>6} {str(b):>4} {degree:>4} {res.dimension:>4} "
                    f"{res.inner_rank:>6} {res.extra_dimension:>6}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
