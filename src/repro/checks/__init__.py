"""Static analysis for the simulation stack (``repro check``).

The scalar == batched and local == distributed bit-exactness guarantees
of the batched kernel and the fleet rest on invariants no test can prove
in general.  This package enforces them
statically: it parses the simulation modules with :mod:`ast` (never
importing or executing them) and applies a registry of pluggable rule
families.

Rule families are :class:`~repro.checks.model.CheckPass` instances on a
registry mirroring ``repro.api.register_machine``: the built-ins below
register themselves on import, and third-party passes plug in through
:func:`register_pass` with their own exit-code bit — ``repro check``,
:func:`run_checks`, the pytest gate and CI pick them up unchanged.

``state-coverage`` (bit 1)
    every attribute a component mutates outside
    ``__init__``/``snapshot``/``restore``/``reset`` must be covered by
    all three of ``snapshot``, ``restore`` and ``reset``;
``snapshot-symmetry`` (bit 2)
    keys written by ``snapshot`` must be read by ``restore`` and vice
    versa (checked when both sides use literal keys);
``digest-purity`` (bit 4)
    ``snapshot``/``digest`` must not mutate ``self`` (directly, through
    mutating method calls, or by calling ``restore``/``reset``);
``determinism`` (bit 8)
    no iteration over sets, ``dict.popitem``, ``id()``, builtin
    ``hash()``, ``random``/``time``/``os.environ``, or ``sum()`` over an
    unordered collection in simulation-path code;
``malformed-suppression`` (bit 16)
    the runner-owned hygiene rule: suppression comments must name a
    known rule and give a reason;
``kernel-parity`` (bit 32)
    each machine's scalar ``DISPATCH`` table must be exactly covered by
    its batched stepper's segment branches (:mod:`repro.checks.parity`);
``ambient-effects`` (bit 64)
    no wall-clock/randomness/identity/environment/filesystem access
    reachable from simulation entry points (:mod:`repro.checks.effects`);
``fleet-protocol`` (bit 128)
    queue keys through ``LeaseQueue`` helpers, clock reads through the
    injected clock, thread state declared (:mod:`repro.checks.fleetlint`).

Genuinely exempt findings are suppressed inline — never via a baseline
file — with a justified comment on the flagged line::

    self._scratch = []  # check: ignore[state-coverage] derived cache, rebuilt on demand

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
