#!/usr/bin/env python3
"""Watch the corner surgery drive a copula down the concordance order.

Runs the descent loop on the independence copula and on the comonotone
copula (both d=2, default n=16), printing the per-iteration trace:
the Kendall self-integral must be non-increasing and Spearman's rho must
drop strictly on every surgery step.

Usage: python scripts/descend_demo.py [n] [trace_prefix]
"""

import sys

from mincop import descend, kendall_tau, make_basic, tau_cm_defect
from mincop.negdep import trace_csv


def run(name: str, C, n: int, prefix: str | None) -> None:
    res = descend(C, n=n, max_iter=60)
    print(f"== descend({name}, n={n}): {res.status} in {len(res.trace)} iterations")
    print("   it   int C dQ^C      rho          defect        p")
    for s in res.trace:
        print(
            f"   {s.iteration:3d}  {s.kendall_integral:12.6g} {s.rho:12.6g} "
            f"{s.defect:12.6g} {s.p:12.6g}"
        )
    defect, _, _ = tau_cm_defect(res.final)
    tau = kendall_tau(res.final).value
    print(f"   final: grid tau-CM defect {defect:.3g}, kendall tau {tau:.6g}")
    if prefix:
        path = f"{prefix}_{name}.csv"
        with open(path, "w") as fh:
            fh.write(trace_csv(res.trace))
        print(f"   trace written to {path}")


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    prefix = sys.argv[2] if len(sys.argv) > 2 else None
    run("independence", make_basic("product", 2), n, prefix)
    run("comonotone", make_basic("upper_frechet", 2), n, prefix)
    return 0


if __name__ == "__main__":
    sys.exit(main())
