"""In-process ``run-all`` harness, optionally traced layer by layer.

Runs the same exhibits as ``python -m repro.cli run-all --format json`` in
one process with ``jobs=1``, through the public :mod:`repro.api` surface, so
every layer call happens where its span is recorded.  With ``--trace 1`` the
public entry point of each layer is wrapped *from this file* (nothing under
``src/`` knows about tracing): a span records name, start, end and parent
span, spans stay in memory, and the whole list is written to
``--spans-out`` at exit.

Prints one JSON line: the harness's own wall time, the exhibits digest, the
engine counters and — when traced — the per-layer metrics.  ``run.py``
starts this script twice per traced run (once untraced, once traced) and
reports the ratio of the two walls as the tracing overhead.

    python3 perfbench/traced.py --scale small --cache-dir D --trace 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

perf_counter = time.perf_counter

#: machines whose step time is reported per machine (``step.<m>.*``)
MACHINES = ("reference", "inorder", "ooo")


def exhibits_digest(exhibits: Any) -> str:
    """SHA-256 of the canonical JSON of an ``exhibits`` subtree."""
    blob = json.dumps(exhibits, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent index]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, None])

    def wrap(self, name: str | Callable[..., str], fn: Callable,
             after: Callable[..., None] | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, *args)`` runs untimed.

        ``name`` may be a callable of the call's arguments (per-machine step
        spans).  ``after`` records counts outside the span, so counting
        never lands in a layer's time.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args) if callable(name) else name
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            if after is not None:
                after(result, *args)
            return result

        return traced


def self_times(spans: list[list[Any]]) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    Spans come from one thread and nest strictly, so the part of a span
    covered by its children is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro.*`` module global that names ``original``.

    Callers that did ``from module import function`` hold their own
    reference, so the replacement must land in each importer too.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> dict[str, Any]:
    """Wrap each layer's public entry points; returns the run state they fill.

    Every hook targets a public function or method named in the layer map
    of ``perfbench/README.md``.
    """
    from repro.api import ExhibitResult, ExhibitSet
    from repro.core import experiments
    from repro.core.machines import create_run, model_for_params
    from repro.core.results import SimulationResult
    from repro.core.runner import ExperimentEngine, ResultStore
    from repro.machine import batched
    from repro.trace.stats import compute_trace_statistics
    from repro.trace.store import TraceStore
    from repro.workloads.base import Workload

    counts = tracer.counts
    state: dict[str, Any] = {
        "points": set(),          # unique ExperimentPoints the engine saw
        "trace_lengths": {},      # workload name -> simulated trace length
        "lowered": set(),         # ids of traces already lowered
        "machine_of": {},         # id(machine) -> registry name
    }

    # compile: only the first call per (class, scale) compiles (lru-cached)
    compiled: set[tuple[type, str]] = set()
    original_trace = Workload.trace

    def after_compile(trace: Any, workload: Any) -> None:
        counts["compile.traces"] += 1
        counts["compile.instrs"] += len(trace)

    compile_span = tracer.wrap("compile", original_trace, after_compile)

    def workload_trace(self: Any) -> Any:
        key = (type(self), self.scale)
        if key in compiled:
            return original_trace(self)
        compiled.add(key)
        return compile_span(self)

    Workload.trace = workload_trace  # type: ignore[method-assign]

    # trace_store
    def after_trace_get(trace: Any, *_args: Any) -> None:
        counts["trace_store.gets"] += 1
        counts["trace_store.hits"] += trace is not None

    TraceStore.get = tracer.wrap(  # type: ignore[method-assign]
        "trace_store.load", TraceStore.get, after_trace_get)
    TraceStore.put = tracer.wrap(  # type: ignore[method-assign]
        "trace_store.put", TraceStore.put)

    # trace_stats
    def after_stats(_stats: Any, *_args: Any) -> None:
        counts["trace_stats.calls"] += 1

    _patch_everywhere(
        compute_trace_statistics,
        tracer.wrap("trace_stats", compute_trace_statistics, after_stats))

    # lower
    def after_lower(_lowered: Any, trace: Any) -> None:
        if id(trace) not in state["lowered"]:
            state["lowered"].add(id(trace))
            counts["lower.instrs"] += len(trace.instructions)

    batched.lowered_for = tracer.wrap("lower", batched.lowered_for, after_lower)

    # step + finalise: wrap the fresh machine's own methods
    machine_of = state["machine_of"]

    def step_name(machine: Any, *_args: Any) -> str:
        return f"step.{machine_of.get(id(machine), type(machine).__name__)}"

    def traced_create_run(params: Any, trace: Any = None, name: str = "") -> Any:
        machine = create_run(params, trace, name)
        machine_name = model_for_params(params).name
        machine_of[id(machine)] = machine_name
        counts[f"step.{machine_name}.points"] += 1
        if trace is not None:
            state["trace_lengths"][trace.name] = len(trace)

        def after_finalise(stats: Any) -> None:
            counts[f"step.{machine_name}.cycles"] += stats.cycles

        machine.run_slice = tracer.wrap(
            f"step.{machine_name}", machine.run_slice)
        machine.finalise = tracer.wrap(
            "finalise", machine.finalise, after_finalise)
        return machine

    _patch_everywhere(create_run, traced_create_run)
    batched.run_slice_batched = tracer.wrap(step_name, batched.run_slice_batched)

    # serialise: the compact JSON size of what to_dict produced, measured
    # outside the span (sizing decoded payloads too would double the
    # tracing overhead of a warm run)
    def after_to_dict(payload: Any, _result: Any) -> None:
        counts["serialise.bytes"] += len(
            json.dumps(payload, separators=(",", ":")))

    SimulationResult.to_dict = tracer.wrap(  # type: ignore[method-assign]
        "serialise.to_dict", SimulationResult.to_dict, after_to_dict)
    from_dict = vars(SimulationResult)["from_dict"].__func__
    SimulationResult.from_dict = classmethod(  # type: ignore[method-assign]
        tracer.wrap("serialise.from_dict", from_dict))

    # store
    def after_get(result: Any, *_args: Any) -> None:
        counts["store.gets"] += 1
        counts["store.hits"] += result is not None

    def after_put(*_args: Any) -> None:
        counts["store.puts"] += 1

    ResultStore.get = tracer.wrap(  # type: ignore[method-assign]
        "store.get", ResultStore.get, after_get)
    ResultStore.put = tracer.wrap(  # type: ignore[method-assign]
        "store.put", ResultStore.put, after_put)
    ResultStore.flush = tracer.wrap(  # type: ignore[method-assign]
        "store.flush", ResultStore.flush)

    # engine
    def after_spec(_results: Any, _engine: Any, spec: Any) -> None:
        counts["engine.specs"] += 1
        counts["engine.requests"] += len(spec.points)
        state["points"].update(spec.points)

    ExperimentEngine.run_spec = tracer.wrap(  # type: ignore[method-assign]
        "engine", ExperimentEngine.run_spec, after_spec)

    # exhibit + export
    for attr, value in list(vars(experiments).items()):
        if attr.startswith(("table", "figure")) and callable(value):
            setattr(experiments, attr, tracer.wrap("exhibit.compute", value))
    ExhibitResult.render = tracer.wrap(  # type: ignore[method-assign]
        "exhibit.render", ExhibitResult.render)
    ExhibitSet.to_json = tracer.wrap(  # type: ignore[method-assign]
        "export", ExhibitSet.to_json)
    return state


def layer_metrics(tracer: Tracer, state: dict[str, Any], wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (seconds are self times)."""
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    requests = counts["engine.requests"]
    unique = len(state["points"])

    def s(name: str) -> float:
        return selfs.get(name, 0.0)

    metrics = {
        "startup.import_s": s("startup"),
        "compile.s": s("compile"),
        "compile.traces": counts["compile.traces"],
        "compile.instrs": counts["compile.instrs"],
        "trace_store.load_s": s("trace_store.load"),
        "trace_store.put_s": s("trace_store.put"),
        "trace_store.hits": counts["trace_store.hits"],
        "trace_stats.s": s("trace_stats"),
        "trace_stats.calls": counts["trace_stats.calls"],
        "lower.instrs": counts["lower.instrs"],
    }
    for machine in MACHINES:
        step_s = s(f"step.{machine}")
        cycles = counts[f"step.{machine}.cycles"]
        metrics[f"step.{machine}.s"] = step_s
        metrics[f"step.{machine}.sim_cycles_per_s"] = cycles / step_s if step_s else 0.0
        metrics[f"step.{machine}.points"] = counts[f"step.{machine}.points"]
    gets = counts["store.gets"]
    metrics.update({
        "finalise.s": s("finalise"),
        "serialise.to_dict_s": s("serialise.to_dict"),
        "serialise.from_dict_s": s("serialise.from_dict"),
        "serialise.bytes": counts["serialise.bytes"],
        "store.get_s": s("store.get"),
        "store.put_s": s("store.put"),
        "store.flush_s": s("store.flush"),
        "store.gets": gets,
        "store.puts": counts["store.puts"],
        "store.hit_ratio": counts["store.hits"] / gets if gets else 0.0,
        "engine.self_s": s("engine"),
        "engine.specs": counts["engine.specs"],
        "engine.requests": requests,
        "engine.unique_points": unique,
        "engine.dup_ratio": 1 - unique / requests if requests else 0.0,
        "exhibit.compute_self_s": s("exhibit.compute"),
        "exhibit.render_s": s("exhibit.render"),
        "export.s": s("export"),
        # top-level spans' durations == the sum of every span's self time
        "trace.span_coverage": sum(selfs.values()) / wall,
        "trace.wall_s": wall,
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    started = perf_counter()
    from repro.api import ExhibitSet, Session  # the CLI's own imports
    import repro.cli  # noqa: F401
    imported = perf_counter()

    tracer = Tracer() if args.trace else None
    state: dict[str, Any] = {}
    if tracer is not None:
        tracer.add("startup", started, imported)
        state = install(tracer)

    with Session(cache_dir=args.cache_dir, jobs=1) as session:
        computed = tuple(session.iter_exhibits(scale=args.scale))
        for exhibit in computed:
            exhibit.render()
        session.flush()
        document = ExhibitSet(
            scale=args.scale, programs=None, exhibits=computed,
            engine_summary=session.engine_summary(),
        ).to_json()
    wall = perf_counter() - started

    payload = json.loads(document)
    out: dict[str, Any] = {
        "wall_s": wall,
        "digest": exhibits_digest(payload["exhibits"]),
        "engine": payload["engine"],
    }
    if tracer is not None:
        from repro.workloads.registry import get_workload

        lengths = state["trace_lengths"]
        points = state["points"]
        out["metrics"] = layer_metrics(tracer, state, wall)
        out["step_points"] = sum(
            tracer.counts[f"step.{m}.points"] for m in MACHINES)
        # instructions of every unique point, simulated or served
        out["unique_instrs"] = sum(
            lengths[p.workload] if p.workload in lengths
            else len(get_workload(p.workload, p.scale).trace())
            for p in points)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
