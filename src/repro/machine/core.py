"""The staged-execution machine kernel: :class:`StagedMachine`.

Both of the paper's timing models — and any model registered through
:mod:`repro.core.machines` that wants the same plumbing — share one
execution shape: instructions stream through a front end (*decode*), are
executed by a per-instruction-class handler (*dispatch*), and retire
through a back end (*retire*).  A machine is a plain object: its
components (rename tables, queues, functional units, …) and scalar cycle
counters are ordinary attributes assigned in ``__init__``, and the
dispatch shape is *declared*:

* ``DISPATCH`` maps :class:`~repro.isa.opcodes.InstrKind` to the handler
  method run for that instruction class (``DEFAULT_HANDLER`` catches the
  rest).

The batched-vs-scalar tests (``tests/test_batched_kernel.py``) compare
every attribute reachable from the machine object, so no state needs a
hand-written serialisation to be checked.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.stats import SimStats
from repro.isa.opcodes import InstrKind, Opcode
from repro.trace.records import DynInstr, Trace

#: per-class dispatch cache: ``{cls: ({kind: function}, default function)}``.
#: The functions are the *unbound* class attributes, resolved once per class
#: (first instantiation) instead of rebuilding a bound-method table per
#: instance; ``run_slice`` calls them as ``func(self, dyn, ctx)``.
_DISPATCH_CACHE: Dict[type, Tuple[Dict[InstrKind, Callable[..., Any]],
                                  Optional[Callable[..., Any]]]] = {}


class StagedMachine:
    """Base class of dispatch-table-driven machines.

    Subclasses set the class-level declarations below, assign their
    components and scalar state in ``__init__`` (after calling
    ``super().__init__``) and implement the dispatch handlers plus
    :meth:`finalise`.
    """

    #: short machine tag used in error messages
    KIND: str = ""
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
