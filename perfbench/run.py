"""mincop benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Workloads: descent, refute, paper-values, measure (see ``workloads.py``).
The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.

``--trace 0`` times passes over the workload's fixed input list for
``--seconds`` and reports the end-to-end metrics, with every time taken to
the machine's reference speed (``speed.py``).  ``--trace 1`` alternates
untraced passes with passes that have spans installed around every layer
(``tracer.py``), reports the per-layer metrics per traced pass, the tracing
overhead and the share of traced time no top-level span covers, and writes
the spans to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

# BLAS and OpenMP read their thread counts when numpy loads: cap them at nproc.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_FIRST = 5  # set-ups before the first pass
SETUP_BETWEEN = 3  # set-ups after each untraced pass; setup_s is the median of all
PASS_CAP_S = 60.0  # a pass still running after this records the rest as failed
HARD_LIMIT_S = 150.0  # no pass runs past this point of the process


class PassCap(BaseException):
    """Raised by the alarm when a pass outlives its cap; a BaseException so
    that no ``except Exception`` inside the program swallows it."""


def _alarm(signum, frame):
    raise PassCap


def run_capped(run_pass, m, inputs, rec, cap: float) -> bool:
    """One pass; returns True if the cap cut it short."""
    try:
        signal.setitimer(signal.ITIMER_REAL, max(cap, 0.001))
        try:
            run_pass(m, inputs, rec)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except PassCap:
        return True
    return False


def one_pass(run_pass, m, inputs, deadline: float, tracer=None, probe=None):
    """(recorder, seconds, cut) of one pass."""
    rec = Recorder(tracer, probe)
    gc.collect()
    start = perf_counter()
    cut = run_capped(run_pass, m, inputs, rec, min(PASS_CAP_S, deadline - start))
    rec.close()
    for err in rec.errors[:5]:
        print(f"operation failed: {err}", file=sys.stderr)
    if cut:
        print(f"pass cut at its cap; {rec.failed} operations failed", file=sys.stderr)
    return rec, perf_counter() - start, cut


def measure(pass_fn, budget: float):
    """Calls ``pass_fn() -> (result, seconds, cut)`` until the budget is
    spent (a call starts only if it should end within half a call of the
    budget) or a pass is cut; at least once.  Returns the results."""
    passes, lengths = [], []
    t0 = perf_counter()
    while True:
        recs, seconds, cut = pass_fn()
        passes.append(recs)
        lengths.append(seconds)
        if cut or perf_counter() - t0 + 0.5 * statistics.median(lengths) > budget:
            return passes


def p90(values) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10)[8]


def setup(make_inputs, seed: int):
    """Import mincop afresh and generate the inputs; returns (mincop,
    inputs, seconds)."""
    for name in [n for n in sys.modules if n == "mincop" or n.startswith("mincop.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    m = importlib.import_module("mincop")
    importlib.import_module("mincop.reference_values")  # not loaded by the package
    inputs = make_inputs(m, np.random.default_rng(seed))
    return m, inputs, perf_counter() - t0


def end_to_end(passes, setups, scale: float) -> dict[str, tuple[float, str]]:
    """Pass time and throughput are over all passes of the run, not the
    median pass: the machine's speed swings by up to 1.6x within seconds
    and its average shifts over minutes, and a run holds only 2 to 12
    passes, so the run's mean varies less from run to run than its middle
    pass.  Latency percentiles are taken per pass, then the median over
    passes.  Pooled, they would read the slowest of a few long operations:
    ``descent``'s step samples come in runs of equal values (56 for the
    Pi_2 run, 20 for Pi_3), and with an even number of operations
    (``paper-values``, ``measure``) the median falls between two of them.

    Every time is multiplied by ``scale`` (``speed.py``), which takes it to
    the reference speed of the machine."""
    busy = scale * sum(p.wall for p in passes)
    timed = [p.samples for p in passes if p.samples]
    return {
        "wall_s": (busy / len(passes), "s"),
        "ops_per_s": (sum(p.attempted - p.failed for p in passes) / busy, "1/s"),
        "op_p50_ms": (1e3 * scale * statistics.median(statistics.median(s) for s in timed), "ms"),
        "op_p90_ms": (1e3 * scale * statistics.median(p90(s) for s in timed), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (scale * statistics.median(setups), "s"),
    }


def per_layer(m, run_pass, inputs, budget, deadline, workload, seed):
    """Untraced and traced passes alternate, the tracer installed for each
    traced pass only, so that drift of the machine's speed cancels in
    ``trace.overhead_s``, the median over pairs of traced minus untraced."""
    tracer = Tracer()

    def pair():
        plain, t_plain, cut_plain = one_pass(run_pass, m, inputs, deadline)
        tracer.install(m)
        try:
            traced, t_traced, cut = one_pass(run_pass, m, inputs, deadline, tracer)
        finally:
            tracer.uninstall()
        return (plain, traced), t_plain + t_traced, cut_plain or cut

    pairs = measure(pair, budget)
    traced = [t for _, t in pairs]
    layer = tracer.layer_metrics(len(traced))
    layer["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in pairs)
    layer["trace.unaccounted_share"] = 1.0 - layer["trace.top_level_s"] / sum(
        t.wall for t in traced
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
    metrics = {name: (float(layer.get(name, 0.0)), unit) for name, unit in PER_LAYER}
    return [p for p, _ in pairs] + traced, metrics, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    if not (SRC / "mincop" / "__init__.py").is_file():
        print(f"error: the mincop sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    make_inputs, run_pass = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_FIRST):
        m, inputs, seconds = setup(make_inputs, args.seed)
        setups.append(seconds)
    if not Path(m.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mincop from {m.__file__}, not {SRC}", file=sys.stderr)
        return 2
    deadline = started + HARD_LIMIT_S

    if args.trace:
        passes, metrics, traced = per_layer(
            m, run_pass, inputs, args.seconds, deadline, args.workload, args.seed
        )
        header = f"passes={len(passes)} traced={traced}"
    else:
        probe = SpeedProbe()

        def timed_pass():
            # Set up again after each pass, outside its timing, so that the
            # set-up samples span the run as the passes do and meet the same
            # swings of the machine's speed.  Passes keep the modules set up
            # before the first pass.
            result = one_pass(run_pass, m, inputs, deadline, probe=probe)
            for _ in range(SETUP_BETWEEN):
                setups.append(setup(make_inputs, args.seed)[2])
            return result

        passes = measure(timed_pass, args.seconds)
        scale = probe.scale()
        metrics = end_to_end(passes, setups, scale)
        header = (
            f"passes={len(passes)} op_samples={sum(len(p.samples) for p in passes)} "
            f"speed_scale={scale:.4f} ({len(probe.samples)} reference loops; "
            f"divide a time by it for the measured value)"
        )

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload={args.workload} seed={args.seed} {header} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
