"""Fleet task encoding: one picklable-free, JSON-round-trippable unit of work.

A :class:`FleetTask` is the queue-side twin of
:class:`~repro.core.runner.ExperimentPoint`: the same (workload, scale,
machine configuration) triple, and nothing else — a worker steps every
point exactly as the in-process engine does.  Unknown payload fields
(older dispatchers sent execution knobs such as ``kernel``) are ignored,
since every execution strategy is bit-identical by contract.

Tasks serialise through the registry-driven parameter codec
(:func:`repro.common.params.params_to_dict` /
:func:`~repro.common.params.params_from_dict`), so any *registered* machine
model's points can ride the queue — not just the paper's built-in three.

The task id **is** the point's result fingerprint.  That single choice
gives the fleet idempotency everywhere: re-submitting a point lands on the
same queue entry, two workers racing on the same task publish byte-identical
result objects under the same key, and a completed task's result is exactly
the entry the engine's result store would have written locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.common.errors import ReproError
from repro.common.params import params_from_dict, params_to_dict
from repro.core.config import MachineConfig
from repro.core.runner import ExperimentPoint

#: version stamp embedded in every task payload; a worker refuses (fails)
#: tasks from a different fleet protocol version instead of guessing
TASK_VERSION = 1


@dataclass(frozen=True)
class FleetTask:
    """One simulation point as a unit of work for a fleet worker."""

    workload: str
    scale: str
    config: MachineConfig

    # -- identity ------------------------------------------------------------

    def point(self) -> ExperimentPoint:
        """The experiment point this task computes."""
        return ExperimentPoint(self.workload, self.scale, self.config)

    def task_id(self) -> str:
        """The queue id — the point's result fingerprint."""
        return self.point().fingerprint()

    # -- serialisation -------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-compatible queue payload (see :meth:`from_payload`)."""
        return {
            "version": TASK_VERSION,
            "kind": "point",
            "workload": self.workload,
            "scale": self.scale,
            "config_name": self.config.name,
            "params": params_to_dict(self.config.params),
            "fingerprint": self.task_id(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FleetTask":
        """Rebuild a task from :meth:`to_payload` output.

        Raises :class:`~repro.common.errors.ReproError` on any structural
        problem (wrong version, unknown parameter kind, missing fields) —
        the worker turns that into a task *failure*, never a crash.
        """
        if not isinstance(payload, Mapping):
            raise ReproError(f"malformed fleet task payload: {payload!r}")
        version = payload.get("version")
        if version != TASK_VERSION:
            raise ReproError(
                f"unsupported fleet task version {version!r} "
                f"(this worker speaks version {TASK_VERSION})"
            )
        if payload.get("kind") != "point":
            raise ReproError(f"unknown fleet task kind {payload.get('kind')!r}")
        try:
            workload = payload["workload"]
            scale = payload["scale"]
            config = MachineConfig(
                name=payload["config_name"],
                params=params_from_dict(dict(payload["params"])),
            )
            task = cls(workload=workload, scale=scale, config=config)
        except ReproError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed fleet task payload: {exc}") from exc
        stamped = payload.get("fingerprint")
        if stamped is not None and stamped != task.task_id():
            # a task whose id does not match its own content would publish
            # its result under the wrong key — refuse it loudly
            raise ReproError(
                f"fleet task fingerprint mismatch: payload says {stamped!r}, "
                f"content hashes to {task.task_id()!r}"
            )
        return task
