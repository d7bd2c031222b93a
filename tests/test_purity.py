"""Each simulated point is a pure, deterministic function of its inputs.

Checked at run time (the checks live in ``tests/purity.py``), for every
registered machine on both kernels, on all ten programs at ``tiny``, plus
the third-party machine of ``examples/custom_machine.py``:

* under :func:`purity.no_ambient_effects`, building the machine,
  ``run_slice`` or the batched stepper, ``finalise`` and the point's
  fingerprint read no clock, randomness, process identity, environment or
  file;
* :func:`purity.digest` over the traces, the whole machine state, the
  finalised statistics and the fingerprints is the same under two hash
  seeds.

The self-tests at the end pin that both checks can fail.
"""

import os
import random
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest
from purity import (
    EXAMPLE_MACHINE,
    KERNELS,
    SEED_PROBE,
    AmbientEffect,
    example_machine,
    no_ambient_effects,
    run_point,
    tiny_traces,
)

from repro.core.machines import machine_names
from repro.machine.batched import run_slice_batched

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

MACHINES = (*machine_names(), EXAMPLE_MACHINE)

TRACES = tiny_traces()

#: the two hash seeds the digest is compared under
SEEDS = ("0", "1")


@pytest.fixture(scope="module", autouse=True)
def registered_example():
    with example_machine():
        yield


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("program", TRACES)
@pytest.mark.parametrize("name", MACHINES)
def test_point_has_no_ambient_effects(name, program, kernel):
    with no_ambient_effects():
        _, stats, fingerprint = run_point(name, TRACES[program], kernel)
    assert stats.cycles > 0
    assert len(fingerprint) == 64


@pytest.fixture(scope="module")
def seeded_runs():
    """``{seed: (digest, probe set order)}`` from two processes run at once."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    procs = {
        seed: subprocess.Popen(
            [sys.executable, str(TESTS / "purity.py")],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in SEEDS
    }
    runs = {}
    try:
        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            runs[seed] = tuple(out.splitlines())
    finally:
        for proc in procs.values():
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
    return runs


def test_digest_is_independent_of_the_hash_seed(seeded_runs):
    digests = {seed: run[0] for seed, run in seeded_runs.items()}
    assert len(set(digests.values())) == 1, digests


def test_seed_pair_reorders_a_set_of_strings(seeded_runs):
    """The two seeds disagree on set order, so the digest can tell them apart."""
    orders = {seed: run[1] for seed, run in seeded_runs.items()}
    assert len(set(orders.values())) == len(SEEDS), orders
    assert all(sorted(order.split()) == sorted(SEED_PROBE) for order in orders.values())


#: one call per kind of ambient effect, each looked up when it runs
AMBIENT_CALLS = {
    "time": lambda: time.time(),
    "perf_counter": lambda: time.perf_counter(),
    "monotonic_ns": lambda: time.monotonic_ns(),
    "random": lambda: random.random(),
    "Random": lambda: random.Random(),
    "uuid4": lambda: uuid.uuid4(),
    "getpid": lambda: os.getpid(),
    "getppid": lambda: os.getppid(),
    "urandom": lambda: os.urandom(4),
    "getenv": lambda: os.getenv("PATH"),
    "environ.get": lambda: os.environ.get("PATH"),
    "environ-contains": lambda: "PATH" in os.environ,
    "open": lambda: open(__file__),
}


class ClockReadingMachine:
    """A machine whose ``run_slice`` stamps each slice with the wall clock."""

    def __init__(self):
        self.stamps = []

    def run_slice(self, instructions):
        self.stamps.append(time.time())


class TestGuard:
    """The guard itself: each effect raises, and nothing outlives the guard."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_clock_reading_machine_raises(self, kernel):
        machine = ClockReadingMachine()
        trace = TRACES["trfd"]
        with pytest.raises(AmbientEffect, match="time.time"), no_ambient_effects():
            if kernel == "batched":
                run_slice_batched(machine, trace)
            else:
                machine.run_slice(trace)
        assert machine.stamps == []

    @pytest.mark.parametrize("effect", AMBIENT_CALLS.values(), ids=AMBIENT_CALLS)
    def test_ambient_call_raises(self, effect):
        with pytest.raises(AmbientEffect), no_ambient_effects():
            effect()

    def test_everything_is_restored(self):
        environ = os.environ
        with no_ambient_effects():
            pass
        assert os.environ is environ
        assert time.time() > 0 and os.getpid() > 0 and os.getenv("PATH") is not None
        with open(__file__) as handle:
            assert handle.readline()

    def test_other_threads_keep_the_real_functions(self):
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append((time.time(), os.environ.get("PATH"))))
        with no_ambient_effects():
            reader.start()
            reader.join()
        assert seen and seen[0][0] > 0
