"""The repository benchmark: ``python -m repro.cli run-all`` as a user runs it.

One run measures one workload for about ``--seconds`` seconds and prints,
as its last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``::

    python3 perfbench/run.py --workload cold-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload warm-full --trace 1   # per-layer run

``--trace 0`` times the CLI itself, one sample after another (a closed loop
with one client), and reports the end-to-end metrics of ``BENCHMARK.json``.
Their times are scaled to the reference host's speed by a probe that runs
beside the samples (``HostSpeed``); the raw seconds are in the detail line.
``--trace 1`` runs the in-process harness ``traced.py`` once untraced and once
traced and reports the per-layer metrics.  Every sample's ``exhibits`` must
match the digest in ``expected.json`` and the engine counters must match the
workload's, so a sample that silently hit a stale cache counts as failed.

The inputs are the ten fixed synthetic programs; ``--seed`` is recorded
but changes nothing.  Everything the benchmark writes stays under
``perfbench/.state/`` of the checkout it runs in; see ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from traced import exhibits_digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = BENCH_DIR / ".state"
PYTHON = sys.executable

#: worker processes per command: the 2-CPU host this benchmark targets
JOBS = 2
#: samples per run, whatever ``--seconds`` says: a median needs two (more
#: fit in ``--seconds`` unless the host is slow, which keeps runs bounded)
MIN_SAMPLES = 2
#: extra timed set-ups before each sample, so the set-up median rests on 8+
#: values taken across the whole run, as the host-speed probe's are
SETUP_REPEATS = 3
#: a run (after any one-off build) stops sampling before this many seconds
RUN_BUDGET_S = 150.0
#: the one-off cold full-scale fill behind ``warm-full``
BUILD_TIMEOUT_S = 650.0
#: CPU seconds of one ``host_work`` pass on the reference host (README.md);
#: the time metrics are seconds at that host's speed
REFERENCE_PASS_S = 0.0025
#: seconds between two ``host_work`` passes of the host-speed probe
PROBE_INTERVAL_S = 0.25
#: a set-up or sample is scaled by the probe passes made from this many
#: seconds before it started to this many after it ended
PROBE_WINDOW_S = 2.0


@dataclass(frozen=True)
class Workload:
    """One ``run-all`` invocation; every sample of it must reproduce the same exhibits."""

    name: str
    scale: str
    #: run against a cache dir filled once per checkout (else a fresh empty one)
    warm: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-small", "small", warm=False),
        Workload("warm-full", "full", warm=True),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: Path
    stderr: Path

    def stderr_tail(self) -> str:
        return self.stderr.read_text(errors="replace")[-2000:]


# -- processes ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment of every program run: no ``REPRO_*``, this checkout's src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(STATE / "tmp")
    return env


def _end_group(pgid: int) -> None:
    """SIGKILL whatever is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"process group {pgid} did not exit")
        time.sleep(0.05)


def run_child(argv: list[str], out_dir: Path, timeout: float) -> Child:
    """Run ``argv`` in its own process group and take its rusage from ``wait4``.

    ``wait4`` reports the resources of exactly this child and the
    descendants it waited for (its pool workers).  The harness's own
    ``RUSAGE_CHILDREN`` would instead keep a running maximum RSS over every
    process it ever waited for.
    """
    stdout, stderr = out_dir / "stdout", out_dir / "stderr"
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _end_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the whole group down with us
            _end_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _end_group(proc.pid)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stdout, stderr)


# -- host speed ---------------------------------------------------------------


class _Unit:
    """A unit busy until some cycle, as the simulated machines keep them."""

    __slots__ = ("ready", "busy")

    def __init__(self) -> None:
        self.ready = 0
        self.busy = 0

    def reserve(self, at: int, latency: int) -> int:
        start = max(at, self.ready)
        self.ready = start + latency
        self.busy += latency
        return start


def host_work() -> int:
    """One fixed pass of the kind of interpreter work the program does.

    Method calls on slotted objects, small tuples, dict stores, a heap and
    a JSON round trip.  It imports nothing from ``src/``, so no change to
    the program can change it.
    """
    units = [_Unit() for _ in range(8)]
    done: dict[int, tuple[int, int]] = {}
    pending: list[tuple[int, int]] = []
    retired = 0
    for i in range(1000):
        start = units[i * 7 % 8].reserve(i, 1 + i % 5)
        done[i * 7919 % 4099] = (start, i)
        heapq.heappush(pending, (start + 3, i))
        while pending and pending[0][0] <= i:
            retired += heapq.heappop(pending)[1] & 1
    blob = json.dumps({"done": sorted(done.items()), "busy": [u.busy for u in units]})
    return retired + len(json.loads(blob)["done"])


class HostSpeed:
    """Samples the host's speed in a background thread while work runs.

    The host is a VM whose speed moves by up to 1.5x within minutes, with
    load from outside it.  Every ``PROBE_INTERVAL_S`` the thread pins itself
    to the next usable CPU in turn and times one ``host_work`` pass in
    thread CPU time.  CPU time leaves out waiting for a core the measured
    program holds, and keeps the slow-down that outside load puts on each
    instruction.  Going round the CPUs averages them, since the program's
    processes run on all of them.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at the end of the pass, CPU seconds of the pass)``
        self.passes: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, name="host-speed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _probe(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        tick = 0
        while not self._stop.wait(PROBE_INTERVAL_S):
            os.sched_setaffinity(0, {cpus[tick % len(cpus)]})  # this thread only
            start = time.thread_time()
            host_work()
            self.passes.append((time.perf_counter(), time.thread_time() - start))
            tick += 1

    def scale(self, start: float = 0.0, end: float = math.inf) -> float:
        """Raw seconds spent from ``start`` to ``end`` (``perf_counter``) ×
        this = seconds at the reference host's speed.

        It is ``REFERENCE_PASS_S`` × the mean pass speed of the passes in
        that window, or of all passes if none fell in it.  The mean speed,
        not the mean pass time: work at speed ``v(t)`` takes a time that
        scales with ``1 / mean v``.
        """
        speeds = [1 / cpu for at, cpu in self.passes if start <= at <= end]
        speeds = speeds or [1 / cpu for _, cpu in self.passes]
        return REFERENCE_PASS_S * statistics.mean(speeds)


# -- sample directories -------------------------------------------------------


def new_dir(prefix: str) -> Path:
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=STATE / "tmp"))


def check_program(out_dir: Path) -> None:
    """Start the program once (``repro.cli list``); raise if it cannot."""
    child = run_child([PYTHON, "-m", "repro.cli", "list"], out_dir, 60)
    if child.returncode != 0:
        raise BenchError("`python -m repro.cli list` failed:\n" + child.stderr_tail())


# -- correctness --------------------------------------------------------------


def check_result(expected: dict, digest: str, engine: dict) -> str | None:
    """Why a run's exhibits digest or engine counters are wrong, or ``None``."""
    if digest != expected["exhibits_sha256"]:
        return f"exhibits digest {digest[:12]} != expected {expected['exhibits_sha256'][:12]}"
    for counter in ("simulated", "disk_hits"):
        if engine.get(counter) != expected[counter]:
            return f"engine {counter} {engine.get(counter)} != expected {expected[counter]}"
    return None


def check_child(expected: dict, child: Child) -> str | None:
    if child.returncode != 0:
        return f"exit code {child.returncode}: {child.stderr_tail()}"
    try:
        document = json.loads(child.stdout.read_text())
    except ValueError as exc:
        return f"unparseable output: {exc}"
    return check_result(expected, exhibits_digest(document.get("exhibits")),
                        document.get("engine") or {})


# -- the one-off build: a filled cache for warm-full --------------------------


def source_digest() -> str:
    """Digest of every file under ``src/``: a filled cache belongs to one source tree."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_filled(expected: dict) -> tuple[Path, float | None]:
    """The cache dir a cold full-scale ``run-all`` filled for this source tree.

    Built on the first run in a checkout, whatever its workload, and reused
    by every later run.  Returns ``(cache dir, build seconds or None)``.
    """
    final = STATE / f"warm-full-{source_digest()}"
    if (final / "cache").is_dir():
        return final / "cache", None
    for stale in STATE.glob("warm-full-*"):
        shutil.rmtree(stale, ignore_errors=True)
    work = new_dir("fill-")
    print(f"perfbench: filling the warm-full cache (one cold full-scale run-all) "
          f"in {work}", file=sys.stderr, flush=True)
    argv = [PYTHON, "-m", "repro.cli", "run-all", "--scale", "full",
            "--jobs", str(JOBS), "--format", "json", "--cache-dir", str(work / "cache")]
    child = run_child(argv, work, BUILD_TIMEOUT_S)
    fill_expected = dict(expected["warm-full"], simulated=expected["warm-full"]["disk_hits"],
                         disk_hits=0)
    problem = check_child(fill_expected, child)
    if problem is not None:
        shutil.rmtree(work, ignore_errors=True)
        raise BenchError(f"filling the warm-full cache failed: {problem}")
    work.rename(final)
    print(f"perfbench: filled in {child.wall_s:.1f}s", file=sys.stderr, flush=True)
    return final / "cache", child.wall_s


def prepare(workload: Workload, filled: Path) -> tuple[Path, float]:
    """Set up one sample: its own cache dir and a program start check.

    A cold sample gets a fresh empty dir; a warm one gets a hard-linked
    copy of the filled cache (the warm run only reads it).  Returns
    ``(sample dir, set-up seconds)``.
    """
    start = time.perf_counter()
    sample = new_dir("sample-")
    if workload.warm:
        shutil.copytree(filled, sample / "cache", copy_function=os.link)
    check_program(sample)
    return sample, time.perf_counter() - start


# -- end-to-end run -----------------------------------------------------------


def measure(workload: Workload, expected: dict, filled: Path, seconds: float) -> dict:
    """Closed-loop samples of the CLI until ``seconds`` are used (at least two).

    A ``HostSpeed`` probe runs throughout.  Each set-up and each sample is
    scaled by the passes made from ``PROBE_WINDOW_S`` before it started to
    ``PROBE_WINDOW_S`` after it ended.
    """
    with HostSpeed() as speed:
        setups, samples = _sample(workload, expected, filled, seconds)
    for timed in setups + samples:
        end = timed["start"] + timed["wall_s"]
        timed["scale"] = speed.scale(timed["start"] - PROBE_WINDOW_S, end + PROBE_WINDOW_S)
    wall_s = statistics.median(s["wall_s"] * s["scale"] for s in samples)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(s["wall_s"] * s["scale"] for s in setups),
        "cpu_s": statistics.median(s["cpu_s"] * s["scale"] for s in samples),
        "sim_instr_per_s": expected["instructions"] / wall_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    failed = sum(not s["ok"] for s in samples)
    return {"attempted": len(samples), "failed": failed, "metrics": metrics,
            "samples": samples, "setups": setups, "scale": speed.scale(),
            "probe_passes": len(speed.passes)}


def _sample(workload: Workload, expected: dict, filled: Path,
            seconds: float) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """The raw set-ups and samples of one run, each with its start time."""
    start = time.perf_counter()
    setups: list[dict[str, Any]] = []
    samples: list[dict[str, Any]] = []

    def timed_setup() -> Path:
        began = time.perf_counter()
        sample, setup_s = prepare(workload, filled)
        setups.append({"start": began, "wall_s": setup_s})
        return sample

    while True:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(timed_setup())
        sample = timed_setup()
        try:
            argv = [PYTHON, "-m", "repro.cli", "run-all", "--scale", workload.scale,
                    "--jobs", str(JOBS), "--format", "json",
                    "--cache-dir", str(sample / "cache")]
            remaining = RUN_BUDGET_S + 20 - (time.perf_counter() - start)
            began = time.perf_counter()
            child = run_child(argv, sample, remaining)
            problem = check_child(expected, child)
        finally:
            shutil.rmtree(sample, ignore_errors=True)
        if problem is not None:
            print(f"perfbench: sample failed: {problem}", file=sys.stderr)
        samples.append({
            "start": began, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "ok": problem is None,
        })
        elapsed = time.perf_counter() - start
        longest = ((SETUP_REPEATS + 1) * max(s["wall_s"] for s in setups)
                   + max(s["wall_s"] for s in samples))
        if len(samples) >= MIN_SAMPLES and elapsed + longest > seconds:
            return setups, samples
        if elapsed + longest > RUN_BUDGET_S:
            return setups, samples


# -- traced run ---------------------------------------------------------------


def run_in_process(workload: Workload, filled: Path, traced: bool,
                   timeout: float) -> tuple[dict | None, str | None]:
    """One in-process ``traced.py`` run; returns ``(its JSON line, problem)``."""
    sample, _ = prepare(workload, filled)
    try:
        argv = [PYTHON, str(BENCH_DIR / "traced.py"), "--scale", workload.scale,
                "--cache-dir", str(sample / "cache"), "--trace", str(int(traced))]
        if traced:
            argv += ["--spans-out", str(STATE / f"spans-{workload.name}.json")]
        child = run_child(argv, sample, timeout)
        if child.returncode != 0:
            return None, f"traced.py exit code {child.returncode}: {child.stderr_tail()}"
        return json.loads(child.stdout.read_text().splitlines()[-1]), None
    finally:
        shutil.rmtree(sample, ignore_errors=True)


def tracing_gaps(expected: dict, traced: dict) -> list[str]:
    """Work the spans failed to account for: the traced run's self-test.

    These test the benchmark's hooks, not the program, so they are reported
    instead of failing the run: a change under ``src/`` that moves a wrapped
    entry point shows here and in ``trace.span_coverage``.
    """
    gaps = []
    simulated = traced["engine"]["simulated"]
    if traced["step_points"] != simulated:
        gaps.append(f"step spans saw {traced['step_points']} points, "
                    f"the engine simulated {simulated}")
    unique = traced["metrics"]["engine.unique_points"]
    if unique != expected["unique_points"]:
        gaps.append(f"{unique} unique points traced, expected {expected['unique_points']}")
    if traced["unique_instrs"] != expected["instructions"]:
        gaps.append(f"{traced['unique_instrs']} instructions traced, "
                    f"expected {expected['instructions']}")
    return gaps


def measure_traced(workload: Workload, expected: dict, filled: Path) -> dict:
    """Per-layer metrics from one untraced and one traced in-process run.

    Both runs must reproduce the seed exhibits and engine counters: that is
    the run's correctness.  What the spans miss is returned as ``gaps``,
    which ``selftest.py`` asserts are empty.
    """
    start = time.perf_counter()
    problems = []
    untraced, problem = run_in_process(workload, filled, False, RUN_BUDGET_S / 2 + 10)
    if problem is None:
        problem = check_result(expected, untraced["digest"], untraced["engine"])
    if problem:
        problems.append(f"untraced: {problem}")
    traced, problem = run_in_process(workload, filled, True,
                                     RUN_BUDGET_S + 20 - (time.perf_counter() - start))
    if problem is None:
        problem = check_result(expected, traced["digest"], traced["engine"])
    if problem:
        problems.append(f"traced: {problem}")
    gaps = tracing_gaps(expected, traced) if traced is not None else []
    for line in problems + [f"tracing gap: {gap}" for gap in gaps]:
        print(f"perfbench: {line}", file=sys.stderr)
    metrics: dict[str, float] = {}
    if traced is not None:
        metrics = dict(traced["metrics"])
        if untraced is not None:
            metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
    return {"attempted": 2, "failed": len(problems), "metrics": metrics, "gaps": gaps}


# -- host facts and reporting -------------------------------------------------


def calibration_s() -> float:
    """Median CPU seconds of a ``host_work`` pass, now (compares hosts, not gated)."""
    def one_pass() -> float:
        start = time.thread_time()
        host_work()
        return time.thread_time() - start

    return statistics.median(one_pass() for _ in range(9))


def host_facts() -> dict[str, Any]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "calibration_s": round(calibration_s(), 5),
        "src_lines": src_lines,
    }


def metric_table(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, args: argparse.Namespace, expected: dict) -> dict:
    """One run of one workload; the dict printed as the result line."""
    workload = WORKLOADS[name]
    filled, fill_s = ensure_filled(expected)
    shutil.rmtree(prepare(workload, filled)[0])  # untimed: compiles bytecode, warms caches
    if args.trace:
        outcome = measure_traced(workload, expected[name], filled)
    else:
        outcome = measure(workload, expected[name], filled, args.seconds)
    table = metric_table(bool(args.trace))
    missing = [m["name"] for m in table if m["name"] not in outcome["metrics"]]
    if missing and outcome["failed"] == 0:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": outcome["metrics"].get(m["name"], 0.0),
                           "unit": m["unit"]} for m in table}

    print(f"perfbench {name}: {outcome['attempted']} sample(s), "
          f"{outcome['failed']} failed, seed {args.seed}, trace {args.trace}")
    for metric, cell in metrics.items():
        print(f"  {metric:<36} {cell['value']:>16.6g} {cell['unit']}")
    detail = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_facts(), "fill_s": fill_s,
              "samples": outcome.get("samples"), "setups": outcome.get("setups"),
              "scale": outcome.get("scale"), "probe_passes": outcome.get("probe_passes")}
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    return {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def _terminate(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time `repro.cli run-all` end to end "
                                     "(--trace 0) or layer by layer (--trace 1).")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the inputs are fixed programs")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    try:
        if not (SRC / "repro" / "cli.py").is_file():
            raise BenchError(f"no program to measure: {SRC / 'repro' / 'cli.py'} is missing")
        shutil.rmtree(STATE / "tmp", ignore_errors=True)  # left by an interrupted run
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args, expected) for name in names}
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": cell for name, r in results.items()
                        for metric, cell in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
