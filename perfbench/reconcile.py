"""Time the single calls quoted in ROADMAP item 1, best of five as there:

    python3 perfbench/reconcile.py

The d=3, n=32 board is ``catalog.random_checkerboard`` at seed 0.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mincop  # noqa: E402
import mincop.reference_values  # noqa: E402

REPEATS = 5


def main() -> int:
    board = mincop.catalog.random_checkerboard(3, 32, seed=0)
    pi3 = mincop.make_basic("product", 3)
    clayton5 = mincop.make_basic("clayton_extreme", 5)
    calls = [
        ("descend(Pi_3, n=8, 20 it)", 2.7, lambda: mincop.descend(pi3, n=8, max_iter=20)),
        ("find_corner_pair(board d=3 n=32)", 0.137, lambda: mincop.find_corner_pair(board)),
        ("tau_cm_defect(board d=3 n=32)", 0.039, lambda: mincop.tau_cm_defect(board)),
        ("reproduce paper-values", 2.35, mincop.reference_values.build_rows),
        ("spearman_rho(clayton_extreme d=5)", 3.8, lambda: mincop.spearman_rho(clayton5)),
    ]
    print(f"{'call':<36} {'roadmap_s':>10} {'best_s':>10} {'ratio':>7}")
    for name, quoted, fn in calls:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            fn()
            best = min(best, perf_counter() - t0)
        print(f"{name:<36} {quoted:>10.3f} {best:>10.4f} {best / quoted:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
