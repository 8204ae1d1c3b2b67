"""Global canonical heights on a small searched family of semistable
curves: per-place breakdown, the doubling-oracle comparison, and the
torsion sanity block.

Usage: python scripts/global_heights_demo.py [curve-count]
"""

import math
import sys
import time

from tropical_heights.heights import find_semistable_examples, global_height
from tropical_heights.exact import format_rational


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    started = time.time()
    examples = find_semistable_examples(count=count)
    print(f"{len(examples)} semistable curves with a non-torsion point "
          f"(search {time.time() - started:.1f}s)\n")

    header = f"{'curve':>22} {'point':>14} {'global':>12} {'oracle':>12} {'diff':>9}"
    print(header)
    worst = 0.0
    for curve, point in examples:
        report = global_height(curve, point)
        worst = max(worst, report.discrepancy)
        label = "({},{},{},{},{})".format(
            *(format_rational(getattr(curve, n)) for n in ("a1", "a2", "a3", "a4", "a6"))
        )
        print(
            f"{label:>22} {str(point):>14} {report.global_sum:>12.8f} "
            f"{report.oracle_value:>12.8f} {report.discrepancy:>9.1e}"
        )
        for rep in report.local_reports:
            print(
                f"{'':>22}   p={rep.prime}: {rep.reduction.kind}, "
                f"lambda = {format_rational(rep.lambda_v)} v-units "
                f"(= {float(rep.lambda_v) * math.log(rep.prime):+.6f})"
                + (f" [{rep.note}]" if rep.note else "")
            )
        print(f"{'':>22}   arch: {report.arch_value:+.6f}")
    print(f"\nworst |global - oracle| = {worst:.2e}")

    print("\ntorsion sanity:")
    for curve, point in find_semistable_examples(count=5, want_torsion=True):
        report = global_height(curve, point)
        order = curve.torsion_order(point)
        print(f"  order-{order} point {point}: global = {report.global_sum:+.2e}")


if __name__ == "__main__":
    main()
