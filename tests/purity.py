"""Runtime purity and determinism checks for simulated points.

A simulated point must be a pure, deterministic function of its trace and
parameters.  Two checks test that while the code runs:

* :func:`no_ambient_effects` makes ambient reads raise while it is
  active: the wall clock, ``random``, ``uuid``, the process id,
  ``os.urandom``, the environment and builtin ``open``.
  ``tests/test_purity.py`` wraps it around each registered machine's
  ``run_slice``, the batched stepper, ``finalise`` and the point's
  fingerprint.
* :func:`digest` hashes what every run produces: each compiled ``tiny``
  trace, the whole machine state (:func:`machine_state.state`), the
  finalised statistics in their key order and each point's fingerprint.
  Run as a script it prints the digest; ``tests/test_purity.py`` runs it
  under two hash seeds at once and requires the two digests to match, so a
  set iterated in hash order or a ``hash()`` of a string that reaches a
  result shows up as a mismatch.

Both cover the built-in machines on both kernels (:data:`KERNELS`) and
the third-party machine of ``examples/custom_machine.py``, loaded by path.

The guard replaces module attributes, so it sees ``time.time()`` but not a
``from time import time`` bound before it was entered.  It raises only in
the thread that entered it; other threads keep the real functions.
"""

import builtins
import collections.abc
import contextlib
import hashlib
import importlib.util
import json
import os
import random
import threading
import time
import uuid
from pathlib import Path
from unittest import mock

from machine_state import state

from repro.core import machines as machines_module
from repro.core.config import machine_config
from repro.core.machines import create_run, machine_names
from repro.core.runner import ExperimentPoint
from repro.machine.batched import run_slice_batched
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: the two ways to step a machine: ``run_slice``, the executable spec, and
#: ``run_slice_batched``, the stepper every simulated point runs on
KERNELS = ("scalar", "batched")

#: the worked third-party machine, and the name it registers
EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "custom_machine.py"
EXAMPLE_MACHINE = "scoreboard"

#: ``time`` functions that read a clock
CLOCK_READS = (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns", "localtime", "gmtime", "ctime", "asctime", "strftime",
)

#: every ``(module, attribute)`` the guard makes raise, besides ``os.environ``
GUARDED = (
    [(time, name) for name in CLOCK_READS]
    + [(random, name) for name in random.__all__]
    + [(uuid, name) for name in ("uuid1", "uuid3", "uuid4", "uuid5", "getnode")]
    + [(os, name) for name in ("getpid", "getppid", "urandom", "getenv")]
    + [(builtins, "open")]
)

#: a set whose iteration order differs between ``PYTHONHASHSEED`` 0 and 1
SEED_PROBE = ("fu2", "fu1", "mem", "port", "bank")


class AmbientEffect(AssertionError):
    """Code under :func:`no_ambient_effects` reached an ambient effect."""


def _tripwire(owner, label, real):
    def guarded(*args, **kwargs):
        if threading.get_ident() == owner:
            raise AmbientEffect(f"{label} called under no_ambient_effects()")
        return real(*args, **kwargs)

    return guarded


class _GuardedEnviron(collections.abc.MutableMapping):
    """``os.environ`` stand-in: raises in the guarded thread, delegates elsewhere."""

    def __init__(self, real, owner):
        self._real = real
        self._owner = owner

    def _environ(self):
        if threading.get_ident() == self._owner:
            raise AmbientEffect("os.environ accessed under no_ambient_effects()")
        return self._real

    def __getitem__(self, key):
        return self._environ()[key]

    def __setitem__(self, key, value):
        self._environ()[key] = value

    def __delitem__(self, key):
        del self._environ()[key]

    def __iter__(self):
        return iter(self._environ())

    def __len__(self):
        return len(self._environ())

    def __getattr__(self, name):
        return getattr(self._environ(), name)


@contextlib.contextmanager
def no_ambient_effects():
    """Make every :data:`GUARDED` call and ``os.environ`` raise :class:`AmbientEffect`."""
    owner = threading.get_ident()
    with contextlib.ExitStack() as stack:
        for module, name in GUARDED:
            real = getattr(module, name)
            label = f"{module.__name__}.{name}"
            stack.enter_context(
                mock.patch.object(module, name, _tripwire(owner, label, real)))
        stack.enter_context(
            mock.patch.object(os, "environ", _GuardedEnviron(os.environ, owner)))
        yield


@contextlib.contextmanager
def example_machine():
    """Register the example's machine by loading the file; drop it afterwards.

    The registry is process-global, so the name must not outlive the
    caller: registry-driven tests elsewhere expect only the built-ins.
    """
    spec = importlib.util.spec_from_file_location("custom_machine", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        yield EXAMPLE_MACHINE
    finally:
        machines_module._REGISTRY.pop(EXAMPLE_MACHINE, None)


def tiny_traces():
    """``{program: compiled tiny trace}`` for every program of the suite."""
    return {name: get_workload(name, "tiny").trace() for name in WORKLOAD_NAMES}


def run_point(name, trace, kernel):
    """One point on ``kernel``: ``(machine, stats, fingerprint)``."""
    config = machine_config(name)
    machine = create_run(config.params, trace)
    if kernel == "batched":
        run_slice_batched(machine, trace)
    else:
        machine.run_slice(trace)
    stats = machine.finalise()
    return machine, stats, ExperimentPoint(trace.name, "tiny", config).fingerprint()


def digest():
    """sha256 over every program's trace and every machine x kernel run of it."""
    sha = hashlib.sha256()
    with example_machine():
        for trace in tiny_traces().values():
            sha.update(repr(state(trace.instructions)).encode())
            for name in machine_names():
                for kernel in KERNELS:
                    machine, stats, fingerprint = run_point(name, trace, kernel)
                    sha.update(repr(state(machine)).encode())
                    sha.update(json.dumps(stats.to_dict()).encode())
                    sha.update(fingerprint.encode())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
    print(" ".join(set(SEED_PROBE)))
