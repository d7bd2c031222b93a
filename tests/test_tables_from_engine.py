"""Tables 2 and 3 come from the engine, so a warm run builds no trace.

The two tables print trace-level counts (:func:`compute_trace_statistics`)
but read them off the reference machine's result at the default memory
latency, which the figures simulate anyway.  The premise — the reference
machine's counters equal the trace's — is checked on every program at two
scales.  Then a warm run over a filled cache must reproduce the cold run's
exhibits while trace generation and the trace store are made to fail.
"""

import functools
import json

import pytest

from repro.analysis.exhibits import get_exhibits
from repro.analysis.export import exhibits_payload, render_json
from repro.api import Session
from repro.core.experiments import table2_program_statistics, table3_spill_statistics
from repro.core.runner import ExperimentEngine
from repro.trace.generator import TraceGenerator
from repro.trace.stats import compute_trace_statistics
from repro.trace.store import TraceStore
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: the Table 3 columns, a subset of the Table 2 row fields
TABLE3_FIELDS = (
    "vector_load_ops",
    "vector_load_spill_ops",
    "vector_store_ops",
    "vector_store_spill_ops",
    "scalar_load_spill_ops",
    "scalar_store_spill_ops",
)


@functools.lru_cache(maxsize=None)
def _tables(scale):
    """Both tables at ``scale``, served by one fresh in-memory engine."""
    engine = ExperimentEngine()
    return (table2_program_statistics(scale=scale, engine=engine),
            table3_spill_statistics(scale=scale, engine=engine),
            engine.simulated)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_reference_counts_equal_the_trace_statistics(scale, workload):
    table2, table3, simulated = _tables(scale)
    # one reference point per program, shared by the two tables
    assert simulated == len(WORKLOAD_NAMES)
    expected = compute_trace_statistics(get_workload(workload, scale).trace())
    assert table2[workload] == expected
    assert table3[workload] == {name: getattr(expected, name) for name in TABLE3_FIELDS}


def _run_all(cache_dir):
    """Every exhibit at ``tiny`` through a session: (JSON, texts, simulated)."""
    with Session(cache_dir=cache_dir) as session:
        data = {exhibit.name: exhibit.run(None, "tiny", session.engine)
                for exhibit in get_exhibits()}
        texts = [exhibit.render(data[exhibit.name]) for exhibit in get_exhibits()]
        simulated = session.engine.simulated
    return render_json(exhibits_payload(data, "tiny", None)), texts, simulated


def _no_traces(*_args, **_kwargs):
    raise AssertionError("a warm run compiled, generated or loaded a trace")


def test_warm_run_builds_no_trace(tmp_path, monkeypatch):
    cold_json, cold_texts, simulated = _run_all(tmp_path)
    assert simulated > 0
    monkeypatch.setattr(Workload, "compile", _no_traces)
    monkeypatch.setattr(Workload, "trace", _no_traces)
    monkeypatch.setattr(TraceGenerator, "run", _no_traces)
    monkeypatch.setattr(TraceStore, "get", _no_traces)
    # the guard bites: scanning a trace for Table 2 the old way would fail
    with pytest.raises(AssertionError, match="warm run"):
        get_workload("trfd", "tiny").statistics()
    warm_json, warm_texts, simulated = _run_all(tmp_path)
    assert simulated == 0
    assert warm_json == cold_json
    assert warm_texts == cold_texts
    assert json.loads(warm_json)["exhibits"]["table2"]
