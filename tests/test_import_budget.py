"""Each process imports only the modules it runs.

A warm ``run-all`` re-renders stored results and a pool worker steps a
stored trace, so neither needs the vectorising compiler or the ten
workload programs.  A process that only lists names or reads stored
results needs no ISA, machine model or process pool either.  Each case
runs in a fresh interpreter and checks ``sys.modules`` afterwards; no
timing is involved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.objectstore import ObjectStore
from repro.trace.store import TraceStore
from repro.workloads.registry import WORKLOAD_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"

#: no process below may import these: the compiler and the ten programs
NEVER = ("repro.compiler",) + tuple(f"repro.workloads.{name}" for name in WORKLOAD_NAMES)
#: nor may a process that only lists names or reads stored results
NOT_WHEN_WARM = NEVER + (
    "repro.isa", "repro.ooo", "repro.refsim", "repro.machine",
    "multiprocessing", "concurrent.futures",
)

#: a warm subset that still decodes results of all three machines
WARM_RUN = ["run-all", "--scale", "small", "--exhibits", "table4", "--programs", "nasa7"]


def run_fresh(code: str) -> tuple[set[str], str]:
    """Run ``code`` in a fresh interpreter; return its modules and its stdout."""
    probe = (
        "import contextlib, io, json, sys\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    exec({code!r})\n"
        "print(json.dumps({'modules': sorted(sys.modules), 'stdout': out.getvalue()}))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return set(result["modules"]), result["stdout"]


def cli(*argv: str) -> str:
    return f"from repro.cli import main\nassert main({list(argv)!r}) == 0\n"


def loaded(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    """The modules in ``modules`` that are, or are inside, one of ``prefixes``."""
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory) -> Path:
    cache = tmp_path_factory.mktemp("warm")
    _, out = run_fresh(cli(*WARM_RUN, "--cache-dir", str(cache)))
    assert "engine: 0 simulated" not in out
    return cache


def test_import_cli_loads_no_simulator():
    modules, _ = run_fresh("import repro.cli\n")
    assert loaded(modules, NOT_WHEN_WARM) == []


def test_list_loads_no_simulator():
    modules, out = run_fresh(cli("list"))
    assert "machines: reference, ooo, inorder" in out
    assert loaded(modules, NOT_WHEN_WARM) == []


def test_warm_run_all_loads_no_simulator(warm_cache):
    modules, out = run_fresh(cli(*WARM_RUN, "--cache-dir", str(warm_cache)))
    assert "engine: 0 simulated" in out
    assert loaded(modules, NOT_WHEN_WARM) == []


def test_pool_worker_point_loads_no_compiler(tmp_path):
    TraceStore(ObjectStore(tmp_path)).ensure("trfd", "tiny")
    modules, _ = run_fresh(
        "from repro.core.config import get_config\n"
        "from repro.core.runner import ExperimentPoint, _simulate_point\n"
        "point = ExperimentPoint('trfd', 'tiny', get_config('inorder'))\n"
        f"assert _simulate_point(point, {str(tmp_path)!r})['stats']['cycles'] > 0\n"
    )
    assert "repro.machine.inorder" in modules  # the point really simulated
    assert loaded(modules, NEVER) == []
