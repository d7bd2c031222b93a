"""The staged-execution machine kernel: :class:`StagedMachine`.

Both of the paper's timing models — and any model registered through
:mod:`repro.core.machines` that wants the same plumbing — share one
execution shape: instructions stream through a front end (*decode*), are
executed by a per-instruction-class handler (*dispatch*), and retire
through a back end (*retire*).  A machine is a plain object: its
components (rename tables, queues, functional units, …) and scalar cycle
state are ordinary attributes assigned in ``__init__``, and the
dispatch shape is *declared*:

* ``DISPATCH`` maps :class:`~repro.isa.opcodes.InstrKind` to the handler
  method run for that instruction class (``DEFAULT_HANDLER`` catches the
  rest).

What the instructions alone decide — their classes, vector operations
and bus traffic — no handler counts: :meth:`StagedMachine.run_slice` adds
each slice's counts through :func:`repro.trace.stats.count_instructions`
before it dispatches, and a machine only moves the traffic of a load it
eliminates (:meth:`~repro.common.stats.MemoryTraffic.eliminate_load`).

``run_slice`` is the executable spec, and it is resumable: the
whole-state tests (``tests/test_machine_kernel.py``) compare every
attribute reachable from the machine object, so no state needs a
hand-written serialisation to be checked.  A component keeps only state
that decides timing or that ``finalise`` reads.  The batched stepper
(:mod:`repro.machine.batched`) is held to the spec's
:class:`~repro.common.stats.SimStats` only: it steps one whole slice on a
fresh machine on state of its own, and writes back what ``finalise``
reads.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.common.errors import ReproError
from repro.common.stats import SimStats
from repro.isa.opcodes import InstrKind, Opcode
from repro.trace.records import DynInstr, Trace
from repro.trace.stats import count_instructions


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

    # -- execution ------------------------------------------------------------

    def execute(self) -> SimStats:
        """Run the whole trace and return the final statistics."""
        self.run_slice(self.trace)
        return self.finalise()

    def run_slice(self, instructions: Iterable[DynInstr]) -> None:
        """Process ``instructions`` (any iterable of :class:`DynInstr`).

        State carries over between calls, so a simulation can be split into
        resumable segments: ``run_slice`` each segment in order, then
        :meth:`finalise` once.  The slice's counts are added first, and the
        :attr:`DISPATCH` table is resolved to bound handlers once per call.
        """
        dyns = list(instructions)
        self.stats.add_counts(count_instructions(dyns))
        handlers = {kind: getattr(self, name) for kind, name in self.DISPATCH.items()}
        default = getattr(self, self.DEFAULT_HANDLER) if self.DEFAULT_HANDLER else None
        for dyn in dyns:
            ctx = self.decode(dyn)
            handler = handlers.get(dyn.kind, default)
            if handler is None:
                raise ReproError(
                    f"machine {self.KIND!r} has no handler for {dyn.kind}"
                )
            self.retire(dyn, ctx, handler(dyn, ctx))

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
