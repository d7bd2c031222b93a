"""The :class:`Machine` protocol and the machine-model registry.

Every timing model shares one interface: ``run_slice`` consumes
instructions (state carries over between calls) and ``finalise`` derives
the final :class:`~repro.common.stats.SimStats`.  This module makes that
contract explicit — :class:`Machine` is the structural protocol — and
dispatches on a registry of named :class:`MachineModel` entries instead of
``isinstance`` checks, so a new timing model plugs into the simulator and
the experiment engine without touching either:

    from repro.core.machines import MachineModel, register_machine

    register_machine(MachineModel(
        name="mymachine",
        params_type=MyParams,
        factory=lambda params, trace: _MyRun(params, trace),
    ))

The built-in models register lazily on first lookup, keeping this module
import-light (it is imported by the simulator at module load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.common.errors import ReproError
from repro.trace.records import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.stats import SimStats


@runtime_checkable
class Machine(Protocol):
    """One resumable machine simulation (the ``_OOORun``/``_ReferenceRun`` contract).

    ``run_slice`` may be called any number of times — state carries over —
    and ``finalise`` once at the end.  ``params`` must expose the machine
    parameters the run was built from.
    """

    #: the machine parameters this run was built from
    params: Any

    def run_slice(self, instructions: Iterable[Any]) -> None:
        """Process ``instructions``, carrying machine state across calls."""
        ...

    def finalise(self) -> "SimStats":
        """Derive the final statistics from the accumulated state."""
        ...


@dataclass(frozen=True)
class MachineModel:
    """A named, pluggable timing model: how to build a run of it.

    ``factory`` receives the machine parameters and the full trace and
    returns a fresh :class:`Machine`.
    """

    #: registry name (e.g. ``"ooo"``); also reported by ``machine_names()``
    name: str
    #: the parameter dataclass this model simulates
    params_type: type
    #: (params, trace) -> a fresh run object
    factory: Callable[[Any, Trace], Machine]


_REGISTRY: dict[str, MachineModel] = {}
_BUILTIN_REGISTERED = False


def register_machine(model: MachineModel) -> MachineModel:
    """Register ``model`` under its name (and parameter type) and return it.

    Re-registering an existing name replaces the entry *only* when the
    parameter type matches (so tests can stub the factory); a name collision
    across different parameter types is an error, as is a second model
    claiming an already-registered parameter type under a new name.

    The model's parameter type is also registered as a serialisation kind
    (:func:`repro.common.params.register_params_kind`) so dataclass
    parameters of registered machines round-trip through the result store
    without any per-machine serialisation code.
    """
    _ensure_builtin()
    existing = _REGISTRY.get(model.name)
    if existing is not None and existing.params_type is not model.params_type:
        raise ReproError(
            f"machine name {model.name!r} is already registered for "
            f"{existing.params_type.__name__}"
        )
    for other in _REGISTRY.values():
        if other.name != model.name and other.params_type is model.params_type:
            raise ReproError(
                f"machine parameters {model.params_type.__name__} are already "
                f"registered as {other.name!r}"
            )
    from repro.common.params import register_params_kind

    register_params_kind(model.name, model.params_type)
    _REGISTRY[model.name] = model
    return model


def machine_names() -> tuple[str, ...]:
    """The registered model names, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def get_machine_model(name: str) -> MachineModel:
    """Look a model up by name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ReproError(
            f"unknown machine model {name!r}; "
            f"available: {', '.join(_REGISTRY)}"
        ) from exc


def model_for_params(params: Any) -> MachineModel:
    """The model registered for ``type(params)`` (subclasses match too)."""
    _ensure_builtin()
    for model in _REGISTRY.values():
        if type(params) is model.params_type:
            return model
    for model in _REGISTRY.values():
        if isinstance(params, model.params_type):
            return model
    raise ReproError(
        f"no machine model registered for parameters {type(params).__name__!r}; "
        f"available: {', '.join(_REGISTRY)}"
    )


def create_run(params: Any, trace: Optional[Trace] = None, name: str = "") -> Machine:
    """Build a fresh run for ``params`` (empty named trace when none given)."""
    if trace is None:
        trace = Trace(name=name, instructions=[])
    return model_for_params(params).factory(params, trace)


def _ensure_builtin() -> None:
    """Register the built-in machines on first registry use.

    Deferred so that importing this module stays cheap and cycle-free: the
    factories pull in the full machine models, which themselves import
    large parts of the package.  The paper's two machines seed the registry
    directly; the ``inorder`` intermediate (in-order issue *with* renaming)
    goes through the public :func:`register_machine` path — the same path
    third-party models use.
    """
    global _BUILTIN_REGISTERED
    if _BUILTIN_REGISTERED:
        return
    _BUILTIN_REGISTERED = True

    from repro.common.params import OOOParams, ReferenceParams
    from repro.machine.inorder import InOrderParams, _InOrderRun
    from repro.ooo.machine import _OOORun
    from repro.refsim.machine import _ReferenceRun

    _REGISTRY["reference"] = MachineModel(
        name="reference",
        params_type=ReferenceParams,
        factory=lambda params, trace: _ReferenceRun(params, trace),
    )
    _REGISTRY["ooo"] = MachineModel(
        name="ooo",
        params_type=OOOParams,
        factory=lambda params, trace: _OOORun(params, trace),
    )
    register_machine(MachineModel(
        name="inorder",
        params_type=InOrderParams,
        factory=lambda params, trace: _InOrderRun(params, trace),
    ))
