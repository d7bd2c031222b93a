"""The third registered machine: in-order single issue *with* renaming.

The paper compares two extremes — the in-order reference machine with
architected registers only, and the OOOVA with renaming plus out-of-order
issue.  This module fills in the natural intermediate design point the
comparison implies: a machine with the OOOVA's whole front end (renaming,
reorder buffer, queues, branch prediction, memory disambiguation, load
elimination) but *in-order, one-per-cycle issue*.  Its distance from each
neighbour separates how much of the OOOVA's win comes from renaming alone
and how much needs out-of-order issue.

The model is a short registration, not a fork: it subclasses the OOOVA
run, adds one scalar (the issue pointer) and overrides exactly one timing
hook (the issue gate).
"""

from __future__ import annotations

# InOrderParams lives in repro.common.params, so decoding a stored result
# imports no machine; it stays importable from here
from repro.common.params import InOrderParams
from repro.ooo.machine import _ExecResult, _OOORun, _StepContext
from repro.trace.records import DynInstr, Trace


class _InOrderRun(_OOORun):
    """OOOVA pipeline with program-order, one-per-cycle issue.

    ``issue_ready`` is the only extra state: every instruction's earliest
    issue cycle is gated on it (:meth:`_issue_gate`), and it advances to
    one past each instruction's actual issue cycle, so no instruction may
    begin execution before an older one has — the defining constraint the
    OOOVA relaxes.  Load-eliminated instructions never reach an issue
    port; they only advance the gate.
    """

    KIND = "inorder"

    def __init__(self, params: InOrderParams, trace: Trace) -> None:
        super().__init__(params, trace)
        #: the in-order issue pointer (cycle the next instruction may issue at)
        self.issue_ready = 0

    def _issue_gate(self, earliest: int) -> int:
        """Issue in program order: never before the previous instruction."""
        return max(earliest, self.issue_ready)

    def retire(self, dyn: DynInstr, ctx: _StepContext, result: _ExecResult) -> None:
        super().retire(dyn, ctx, result)
        # single issue per cycle, in order (monotone even on the ungated
        # load-elimination path, whose pipe exit can trail the gate)
        self.issue_ready = max(self.issue_ready, result.start + 1)

