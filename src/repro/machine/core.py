"""The staged-execution machine kernel: :class:`StagedMachine`.

Both of the paper's timing models — and any model registered through
:mod:`repro.core.machines` that wants the same plumbing — share one
execution shape: instructions stream through a front end (*decode*), are
executed by a per-instruction-class handler (*dispatch*), and retire
through a back end (*retire*).  All mutable state lives in named
:class:`~repro.machine.component.MachineComponent`\\ s plus a handful of
scalar cycle counters, so a machine is *declared* rather than hand-wired:

* ``DISPATCH`` maps :class:`~repro.isa.opcodes.InstrKind` to the handler
  method run for that instruction class (``DEFAULT_HANDLER`` catches the
  rest);
* ``SNAPSHOT_SCALARS`` names the scalar state fields (with their reset
  values in ``SCALAR_DEFAULTS``);
* components are attached with :meth:`register_component`.

From those declarations the kernel derives ``snapshot``/``restore``/
``reset``/``digest`` instead of each machine maintaining them by hand.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.stats import SimStats
from repro.isa.opcodes import InstrKind, Opcode
from repro.machine.component import state_digest
from repro.trace.records import DynInstr, Trace

#: a per-instruction-class handler: ``(instruction, decode context) -> result``
Handler = Callable[[DynInstr, Any], Any]

#: per-class dispatch cache: ``{cls: ({kind: function}, default function)}``.
#: The functions are the *unbound* class attributes, resolved once per class
#: (first instantiation) instead of rebuilding a bound-method table per
#: instance; ``run_slice`` calls them as ``func(self, dyn, ctx)``.  The
#: batched stepper compiler (:mod:`repro.machine.batched`) keys its
#: per-machine lowerings off the same table.
_DISPATCH_CACHE: Dict[type, Tuple[Dict[InstrKind, Callable[..., Any]],
                                  Optional[Callable[..., Any]]]] = {}


class StagedMachine:
    """Base class of component-declared, dispatch-table-driven machines.

    Subclasses set the class-level declarations below, attach their
    components in ``__init__`` (after calling ``super().__init__``) and
    implement the dispatch handlers plus :meth:`finalise`.  Snapshotting,
    reset and digests are then derived from the declarations.
    """

    #: the ``snapshot()["kind"]`` tag of this machine's snapshots
    KIND: str = ""
    #: scalar state fields included in snapshots, in snapshot order
    SNAPSHOT_SCALARS: Tuple[str, ...] = ()
    #: reset value per scalar field (missing fields default to 0)
    SCALAR_DEFAULTS: Mapping[str, int] = {}
    #: instruction-class dispatch table: kind -> handler method name
    DISPATCH: Mapping[InstrKind, str] = {}
    #: handler method name for kinds absent from :attr:`DISPATCH`
    DEFAULT_HANDLER: str = ""

    #: latest cycle any completed work has reached (every machine tracks it)
    horizon: int

    def __init__(self, params: Any, trace: Trace) -> None:
        self.params = params
        self.trace = trace
        self.lat = getattr(params, "latencies", None)
        self.horizon = 0
        self.stats = SimStats()
        self._components: Dict[str, Any] = {}
        for name in self.SNAPSHOT_SCALARS:
            setattr(self, name, self.SCALAR_DEFAULTS.get(name, 0))

    # -- component registry ---------------------------------------------------

    def register_component(self, name: str, component: Any) -> Any:
        """Attach ``component`` under ``name`` (its snapshot key) and return it.

        ``None`` is allowed — it declares an optional component that this
        configuration does not instantiate (e.g. the load-elimination unit
        when elimination is off); it snapshots as ``None``.
        """
        reserved = {"kind", "stats"} | set(self.SNAPSHOT_SCALARS)
        if name in reserved:
            raise ReproError(
                f"component name {name!r} collides with a reserved snapshot key"
            )
        if name in self._components:
            raise ReproError(f"machine component {name!r} is already registered")
        self._components[name] = component
        return component

    @property
    def components(self) -> Mapping[str, Any]:
        """The registered components, keyed by snapshot name."""
        return dict(self._components)

    # -- dispatch -------------------------------------------------------------

    @classmethod
    def dispatch_functions(
        cls,
    ) -> Tuple[Dict[InstrKind, Callable[..., Any]], Optional[Callable[..., Any]]]:
        """The class's resolved dispatch table: ``({kind: func}, default)``.

        Resolved once per class and cached — the functions are the plain
        class attributes (subclass overrides resolve through the MRO), so
        callers invoke them as ``func(machine, dyn, ctx)``.
        """
        cached = _DISPATCH_CACHE.get(cls)
        if cached is None:
            table: Dict[InstrKind, Callable[..., Any]] = {
                kind: getattr(cls, name) for kind, name in cls.DISPATCH.items()
            }
            default: Optional[Callable[..., Any]] = (
                getattr(cls, cls.DEFAULT_HANDLER) if cls.DEFAULT_HANDLER else None
            )
            cached = _DISPATCH_CACHE[cls] = (table, default)
        return cached

    @property
    def _handlers(self) -> Dict[InstrKind, Handler]:
        """Bound handler table (kept for introspection; built on demand)."""
        table, _ = type(self).dispatch_functions()
        return {kind: func.__get__(self) for kind, func in table.items()}

    @property
    def _default_handler(self) -> Optional[Handler]:
        """Bound default handler (kept for introspection; built on demand)."""
        _, default = type(self).dispatch_functions()
        return default.__get__(self) if default is not None else None

    # -- execution ------------------------------------------------------------

    def execute(self) -> SimStats:
        """Run the whole trace and return the final statistics."""
        self.run_slice(self.trace)
        return self.finalise()

    def run_slice(self, instructions: Iterable[DynInstr]) -> None:
        """Process ``instructions`` (any iterable of :class:`DynInstr`).

        State carries over between calls, so a simulation can be split into
        resumable segments: ``run_slice`` each segment in order, then
        :meth:`finalise` once.
        """
        table, default = type(self).dispatch_functions()
        get = table.get
        decode = self.decode
        retire = self.retire
        for dyn in instructions:
            ctx = decode(dyn)
            func = get(dyn.kind, default)
            if func is None:
                raise ReproError(
                    f"machine {self.KIND!r} has no handler for {dyn.kind}"
                )
            result = func(self, dyn, ctx)
            retire(dyn, ctx, result)

    def decode(self, dyn: DynInstr) -> Any:
        """Front-end stage run before dispatch (default: nothing)."""
        return None

    def retire(self, dyn: DynInstr, ctx: Any, result: Any) -> None:
        """Back-end stage run after the class handler (default: nothing)."""

    def finalise(self) -> SimStats:
        """Derive the final :class:`SimStats` from the accumulated state."""
        raise NotImplementedError

    # -- derived state plumbing ----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible snapshot of all mutable machine state.

        ``stats`` holds only what accumulates *during* :meth:`run_slice`;
        fields derived in :meth:`finalise` are recomputed from the restored
        components, never carried through a snapshot.
        """
        state: dict = {"kind": self.KIND}
        for name in self.SNAPSHOT_SCALARS:
            state[name] = getattr(self, name)
        for name, component in self._components.items():
            state[name] = None if component is None else component.snapshot()
        state["stats"] = self.stats.to_dict()
        return state

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` (replaces all current state)."""
        for name in self.SNAPSHOT_SCALARS:
            setattr(self, name, int(state[name]))
        for name, component in self._components.items():
            if component is not None:
                component.restore(state[name])
        self.stats = SimStats.from_dict(state["stats"])

    def reset(self) -> None:
        """Return every scalar, component and statistic to its fresh state."""
        for name in self.SNAPSHOT_SCALARS:
            setattr(self, name, self.SCALAR_DEFAULTS.get(name, 0))
        for component in self._components.values():
            if component is not None:
                component.reset()
        self.stats = SimStats()

    def digest(self) -> str:
        """Stable hex digest of the full machine snapshot."""
        return state_digest(self.snapshot())

    # -- shared timing helpers -------------------------------------------------

    def _advance_horizon(self, *times: int) -> None:
        for time in times:
            if time > self.horizon:
                self.horizon = time

    def _vector_effective_latency(self, opcode: Opcode) -> int:
        op_latency = self.lat.vector_op_latency(opcode.info.latency_class)
        return self.lat.read_crossbar + op_latency + self.lat.write_crossbar

    def _scalar_latency(self, opcode: Opcode) -> int:
        latency_class = opcode.info.latency_class
        if latency_class in ("scalar_alu", "scalar_mul", "scalar_div"):
            return self.lat.vector_op_latency(latency_class)
        return self.lat.scalar_alu
