"""Self-tests of the benchmark's traced run.

    python3 -m pytest perfbench/selftest.py -q            # all (~4 min)
    python3 -m pytest perfbench/selftest.py -q -k spans   # span arithmetic only

The file is deliberately not named ``test_*.py``: the repository's tier-1
suite must not pick up multi-minute benchmark runs.
"""

from __future__ import annotations

import json
import shutil

import pytest

import run
from traced import MACHINES, Tracer, self_times


def test_spans_self_time_excludes_children() -> None:
    spans = [
        ["engine", 0.0, 10.0, None],
        ["store.get", 1.0, 2.0, 0],
        ["step.ooo", 3.0, 9.0, 0],
        ["lower", 3.0, 4.0, 2],
        ["export", 11.0, 12.0, None],
    ]
    assert self_times(spans) == {
        "engine": 3.0, "store.get": 1.0, "step.ooo": 5.0, "lower": 1.0, "export": 1.0}


def test_spans_nest_under_the_caller_and_survive_errors() -> None:
    tracer = Tracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1, lambda result, x: seen.append(result))

    def boom() -> None:
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: inner(1))
    failing = tracer.wrap("failing", boom)
    assert outer() == 2
    with pytest.raises(ValueError):
        failing()
    names = [(name, parent) for name, _start, _end, parent in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("failing", None)]
    assert seen == [2]
    assert all(end >= start for _name, start, end, _parent in tracer.spans)


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads((run.BENCH_DIR / "expected.json").read_text())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_matches_untraced(name: str, expected: dict) -> None:
    """Traced and untraced runs reproduce the seed exhibits, and the spans
    account for every unique point, every simulated point and their
    instructions (``measure_traced`` reports misses as ``gaps``)."""
    filled, _ = run.ensure_filled(expected)
    outcome = run.measure_traced(run.WORKLOADS[name], expected[name], filled)
    shutil.rmtree(run.STATE / "tmp", ignore_errors=True)
    assert outcome["failed"] == 0
    assert outcome["gaps"] == []
    metrics = outcome["metrics"]
    assert metrics["engine.unique_points"] == expected[name]["unique_points"]
    simulated = sum(metrics[f"step.{m}.points"] for m in MACHINES)
    assert simulated == expected[name]["simulated"]
    assert 0.5 < metrics["trace.span_coverage"] <= 1.0
