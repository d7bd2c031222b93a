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

The registry's names are also the serialisation kinds of machine
parameters: :func:`params_to_dict` stamps a parameter dataclass with the
name of the model registered for its exact type, and
:func:`params_from_dict` looks that name up here, so any registered
model's parameters round-trip through result objects and fleet tasks
without serialisation code of their own.

The built-in models register on first lookup, and each factory imports its
machine implementation on its first call, so listing the machines or
decoding a stored result loads none of them.
"""

from __future__ import annotations

import enum
import functools
import typing
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.common.errors import ConfigurationError, ReproError
from repro.common.params import (
    FunctionalUnitLatencies,
    InOrderParams,
    MemoryParams,
    OOOParams,
    ReferenceParams,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.stats import SimStats
    from repro.trace.records import Trace


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

    The name is also the serialisation kind of the model's parameters
    (:func:`params_to_dict`).
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
        from repro.trace.records import Trace

        trace = Trace(name=name, instructions=[])
    return model_for_params(params).factory(params, trace)


def params_to_dict(params: Any) -> dict[str, Any]:
    """Serialise machine parameters to a JSON-compatible dictionary.

    Its ``kind`` is the name of the model registered for exactly
    ``type(params)``: a subclassed parameter type (e.g. the ``inorder``
    machine's) is a different design point and must not serialise under
    its parent's kind, so it raises like an unregistered type.  Enum
    members are stored by value, and the nested latency/memory blocks as
    dictionaries.
    """
    _ensure_builtin()
    for model in _REGISTRY.values():
        if type(params) is model.params_type:
            break
    else:
        raise ConfigurationError(
            f"cannot serialise parameters of type {type(params)!r}; "
            "register the machine model first"
        )
    payload: dict[str, Any] = {"kind": model.name}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, (FunctionalUnitLatencies, MemoryParams)):
            value = {sub.name: getattr(value, sub.name) for sub in fields(value)}
        payload[f.name] = value
    return payload


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> dict[str, Any]:
    """Resolved annotations of a parameter dataclass (cached per class).

    Every stored-result load deserialises parameters; re-evaluating the
    string annotations each time would dominate warm store scans.
    """
    return typing.get_type_hints(cls)


def params_from_dict(payload: dict[str, Any]) -> Any:
    """Rebuild machine parameters from :func:`params_to_dict` output.

    The ``kind`` names the registered model whose parameter type is
    rebuilt.  Nested latency/memory blocks (when the dataclass has them —
    third-party parameter types need not) rebuild their dataclasses, and
    enum-typed fields (discovered from the dataclass annotations) are
    coerced from their stored values.
    """
    _ensure_builtin()
    data = dict(payload)
    kind = data.pop("kind", None)
    model = _REGISTRY.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise ConfigurationError(f"unknown machine-parameter kind {kind!r}")
    if "latencies" in data:
        data["latencies"] = FunctionalUnitLatencies(**data["latencies"])
    if "memory" in data:
        data["memory"] = MemoryParams(**data["memory"])
    hints = _field_hints(model.params_type)
    for name, value in list(data.items()):
        target = hints.get(name)
        if isinstance(target, type) and issubclass(target, enum.Enum):
            data[name] = target(value)
    try:
        return model.params_type(**data)
    except TypeError as exc:
        raise ConfigurationError(
            f"cannot rebuild {kind!r} parameters from stored payload: {exc}"
        ) from exc


def _reference_run(params: Any, trace: Trace) -> Machine:
    from repro.refsim.machine import _ReferenceRun

    return _ReferenceRun(params, trace)


def _ooo_run(params: Any, trace: Trace) -> Machine:
    from repro.ooo.machine import _OOORun

    return _OOORun(params, trace)


def _inorder_run(params: Any, trace: Trace) -> Machine:
    from repro.machine.inorder import _InOrderRun

    return _InOrderRun(params, trace)


def _ensure_builtin() -> None:
    """Register the built-in machines on first registry use.

    Registering imports only their parameter types: each factory imports
    its machine model, and with it large parts of the package, on its first
    call.  The paper's two machines seed the registry directly; the
    ``inorder`` intermediate (in-order issue *with* renaming) goes through
    the public :func:`register_machine` path — the same path third-party
    models use.
    """
    global _BUILTIN_REGISTERED
    if _BUILTIN_REGISTERED:
        return
    _BUILTIN_REGISTERED = True
    _REGISTRY["reference"] = MachineModel(
        name="reference", params_type=ReferenceParams, factory=_reference_run)
    _REGISTRY["ooo"] = MachineModel(
        name="ooo", params_type=OOOParams, factory=_ooo_run)
    register_machine(MachineModel(
        name="inorder", params_type=InOrderParams, factory=_inorder_run))
