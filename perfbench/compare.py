"""A/B comparison of two program versions on the benchmark.

Run ten alternating pairs (seeds 1 to 10, each on both sides, the side that
runs first alternating from pair to pair), then report:

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR OUT_DIR
    python3 perfbench/compare.py report OUT_DIR/A.jsonl OUT_DIR/B.jsonl

PARENT_DIR and CHANGE_DIR are checkouts of the two versions; their
``perfbench/`` directories must be identical, so that both sides are
measured by the same benchmark code and settings.  ``run_seconds``, the
workloads, the metrics and their bounds come from ``BENCHMARK.json``.

For each workload and end-to-end metric the report gives each side's median
and quartiles, the pairs B won (ties count for neither side) and a verdict:

* ``better``: B won at least 9 of 10 pairs run (at least 10 pairs), the
  medians differ by more than A's interquartile range, and B failed no
  more operations than A;
* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: A's own spread (interquartile range over median) is wider
  than the bound, unless every run of B reads better than every run of A;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10


def _bench_files(root: Path) -> list[str]:
    base = root / "perfbench"
    return sorted(
        str(p.relative_to(base))
        for p in base.rglob("*")
        if p.is_file() and "out" not in p.relative_to(base).parts and "__pycache__" not in p.parts
    )


def same_benchmark(a: Path, b: Path) -> bool:
    files = _bench_files(a)
    if files != _bench_files(b):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a / "perfbench", b / "perfbench", files, shallow=False)
    return not mismatch and not errors


def run_one(root: Path, workload: str, seed: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def pairs(a: Path, b: Path, out_dir: Path) -> None:
    if not same_benchmark(a, b):
        raise SystemExit("the two checkouts carry different perfbench/ files")
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"A": open(out_dir / "A.jsonl", "w"), "B": open(out_dir / "B.jsonl", "w")}
    try:
        for i in range(MIN_PAIRS):
            order = (("A", a), ("B", b)) if i % 2 == 0 else (("B", b), ("A", a))
            for workload in (w["name"] for w in SPEC["workloads"]):
                for k, (side, root) in enumerate(order):
                    rec = {"workload": workload, "pair": i, "seed": 1 + i,
                           "first": k == 0, "result": run_one(root, workload, 1 + i)}
                    files[side].write(json.dumps(rec) + "\n")
                    files[side].flush()
                print(f"pair {i + 1}/{MIN_PAIRS} done", file=sys.stderr)
    finally:
        for fh in files.values():
            fh.close()


def _load(path: Path) -> dict[tuple[str, int], dict]:
    with open(path) as fh:
        return {(r["workload"], r["pair"]): r["result"] for r in map(json.loads, fh)}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a: list[float], b: list[float], higher: bool, bound: float, more_failures: bool):
    """(verdict, pairs B won) for values paired by index."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = _quartiles(a)
    gain = sign * (med_b - med_a)
    if (
        len(a) >= MIN_PAIRS
        and wins >= 0.9 * len(a)
        and gain > q3 - q1
        and not more_failures
    ):
        return "better", wins
    if -gain > bound * abs(med_a):
        return "worse", wins
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if (q3 - q1) > bound * abs(med_a) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def report(path_a: Path, path_b: Path) -> int:
    A, B = _load(path_a), _load(path_b)
    keys = sorted(set(A) & set(B))
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B won':>7}  verdict")
    for workload in dict.fromkeys(w for w, _ in keys):
        mine = [k for k in keys if k[0] == workload]
        fails_a = sum(A[k]["failed"] for k in mine)
        fails_b = sum(B[k]["failed"] for k in mine)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = [A[k]["metrics"][name]["value"] for k in mine]
            b = [B[k]["metrics"][name]["value"] for k in mine]
            v, wins = verdict(a, b, metric["better"] == "higher", metric["bound"], fails_b > fails_a)
            cells = []
            for vals in (a, b):
                q1, q3 = _quartiles(vals)
                cells.append(f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
            print(f"{workload:<13} {name:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{wins:>3}/{len(mine):<3}  {v}")
        print(f"{workload:<13} {'failed ops':<12} {fails_a:>30} {fails_b:>30}")
    if keys and len(keys) < MIN_PAIRS * len({w for w, _ in keys}):
        print(f"note: fewer than {MIN_PAIRS} pairs per workload; no gain can be claimed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B compare on the mincop benchmark")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating pairs, then report")
    p.add_argument("a", type=Path, help="checkout of the parent version")
    p.add_argument("b", type=Path, help="checkout of the changed version")
    p.add_argument("out", type=Path, help="directory for A.jsonl and B.jsonl")
    p = sub.add_parser("report", help="report on two result files")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "pairs":
        pairs(args.a.resolve(), args.b.resolve(), args.out)
        return report(args.out / "A.jsonl", args.out / "B.jsonl")
    return report(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
