"""Static analysis for the simulation stack (``repro check``).

The simulation must be a pure, deterministic function of its trace and
parameters, and the fleet must coordinate only through its lease-queue
protocol.  This package enforces both statically: it parses the
simulation modules with :mod:`ast` (never importing or executing them)
and applies a registry of pluggable rule families.

Rule families are :class:`~repro.checks.model.CheckPass` instances on a
registry mirroring ``repro.api.register_machine``: the built-ins below
register themselves on import, and third-party passes plug in through
:func:`register_pass` on one of the free exit-code bits (1, 2, 4, 32) —
``repro check``, :func:`run_checks`, the pytest gate and CI pick them up
unchanged.  Every pass runs once per analyzed file.

``determinism`` (bit 8)
    no iteration over sets, ``dict.popitem``, ``id()``, builtin
    ``hash()``, ``random``/``time``/``os.environ``, or ``sum()`` over an
    unordered collection in simulation-path code;
``malformed-suppression`` (bit 16)
    the runner-owned hygiene rule: suppression comments must name a
    known rule and give a reason;
``ambient-effects`` (bit 64)
    no wall-clock/randomness/identity/environment/filesystem access
    reachable from simulation entry points (:mod:`repro.checks.effects`);
``fleet-protocol`` (bit 128)
    queue keys through ``LeaseQueue`` helpers, clock reads through the
    injected clock, thread state declared (:mod:`repro.checks.fleetlint`).

That the batched kernel matches the scalar spec is not a static claim:
``tests/test_batched_kernel.py`` compares every attribute reachable from
both kernels' machines.

Genuinely exempt findings are suppressed inline — never via a baseline
file — with a justified comment on the flagged line::

    key = id(trace)  # check: ignore[determinism] cache key only, never a result

Entry points: :func:`run_checks` (the API), ``repro check`` and
``python -m repro.checks`` (the CLI), and the ``tests/test_checks.py``
gate that keeps the repository itself clean.
"""

from __future__ import annotations

from repro.checks.model import (
    CheckPass,
    Finding,
    RULES,
    exit_code_for,
    register_pass,
    registered_passes,
)
from repro.checks.runner import DEFAULT_PATHS, USAGE_ERROR, main, run_checks

__all__ = [
    "CheckPass",
    "DEFAULT_PATHS",
    "Finding",
    "RULES",
    "USAGE_ERROR",
    "exit_code_for",
    "main",
    "register_pass",
    "registered_passes",
    "run_checks",
]
