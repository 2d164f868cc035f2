"""Checks of the benchmark itself (about two minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mincop  # noqa: E402
import workloads  # noqa: E402

COUNTS = (".calls", ".points", ".cells", ".scalar_evals")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(COUNTS) or name == "negdep.descend.steps"
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_at_one_seed(workload):
    first = traced_counts(workload, 5)
    assert any(v > 0 for v in first.values())
    assert traced_counts(workload, 5) == first


def _boards(seed: int) -> list[np.ndarray]:
    rng = lambda: np.random.default_rng(seed)
    descent = workloads.descent_inputs(mincop, rng())
    stream, _ = workloads.refute_inputs(mincop, rng())
    measure = workloads.measure_inputs(mincop, rng())
    return (
        [descent[2][0].masses]
        + [np.asarray(spec["masses"]) for spec, _ in stream if spec["kind"] == "checkerboard"]
        + [C.masses for _, C, _, _ in measure if isinstance(C, mincop.CheckerboardCopula)]
    )


def test_seed_fixes_the_boards():
    one, again, two = _boards(1), _boards(1), _boards(2)
    assert len(one) == len(two) > 0
    assert all(np.array_equal(x, y) for x, y in zip(one, again))
    assert not any(np.array_equal(x, y) for x, y in zip(one, two))
