#!/usr/bin/env python3
"""Sample the singular catalog copulas and write plot-ready point clouds.

Writes one CSV per copula (header u1..ud) into the given directory
(default ./clouds): the two shuffles, the triangle copula, and the
reflected-comonotone segments in d=3.
"""

import os
import sys

from mincop import (
    make_reflected_upper,
    make_triangle_3d,
    mixture_all_reflections,
    sample,
    shuffle_a,
    shuffle_b,
)


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "clouds"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    os.makedirs(outdir, exist_ok=True)
    clouds = {
        "shuffle_a": shuffle_a(),
        "shuffle_b": shuffle_b(),
        "triangle": make_triangle_3d(),
        "nu1_of_M_d3": make_reflected_upper(3, [0]),
        "all_reflections_d3": mixture_all_reflections(3),
    }
    # fixed seeds: one per cloud, in the order above
    for seed, (name, C) in enumerate(clouds.items()):
        pts = sample(C, seed=seed, n=n)
        path = os.path.join(outdir, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(",".join(f"u{k + 1}" for k in range(C.dim)) + "\n")
            for row in pts:
                fh.write(",".join(f"{x:.10g}" for x in row) + "\n")
        print(f"wrote {path} ({n} points, d={C.dim})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
