"""Branch prediction structures of the OOOVA.

Section 2.2: the machine has a 64-entry branch target buffer where each
entry holds a 2-bit saturating counter, plus an 8-deep return stack used to
predict call/return sequences.

The simulator is trace driven, so wrong-path instructions are never
simulated; a misprediction simply stalls the fetch of younger instructions
until the branch resolves (plus a small redirect penalty).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.records import DynInstr


@dataclass
class _BTBEntry:
    tag: int
    counter: int = 2  # weakly taken


class BranchPredictor:
    """64-entry BTB with 2-bit counters plus an 8-deep return-address stack."""

    def __init__(self, btb_entries: int = 64, ras_depth: int = 8) -> None:
        if btb_entries < 1 or ras_depth < 1:
            raise ValueError("predictor sizes must be positive")
        self.btb_entries = btb_entries
        self.ras_depth = ras_depth
        self._btb: dict[int, _BTBEntry] = {}
        #: return addresses on the hardware stack: a trace holds only the
        #: path taken, so a return is predicted correctly whenever the
        #: stack is not empty, and only its depth is kept
        self._ras_count = 0

    def predict_and_update(self, branch: DynInstr) -> bool:
        """Return True when the branch is predicted correctly, updating state."""
        if branch.is_call:
            correct = self._lookup_target(branch)
            self._push_call()
            self._update_counter(branch, taken=True)
        elif branch.is_return:
            correct = self._pop_return()
        elif branch.opcode.info.name == "jmp":
            correct = self._lookup_target(branch)
            self._update_counter(branch, taken=True)
        else:
            correct = self._predict_conditional(branch)
        return correct

    # -- conditional branches -------------------------------------------------

    def _predict_conditional(self, branch: DynInstr) -> bool:
        entry = self._entry_for(branch.pc)
        predicted_taken = entry.counter >= 2
        self._update_counter(branch, taken=branch.taken)
        # A taken prediction also needs the target; a BTB-miss taken branch
        # is treated as a misprediction because the target is unknown.
        if predicted_taken and entry.tag != branch.pc:
            return False
        return predicted_taken == branch.taken

    def _lookup_target(self, branch: DynInstr) -> bool:
        """Unconditional branches are correct once the BTB knows the target."""
        entry = self._btb.get(branch.pc % self.btb_entries)
        hit = entry is not None and entry.tag == branch.pc
        if not hit:
            self._btb[branch.pc % self.btb_entries] = _BTBEntry(tag=branch.pc, counter=3)
        return hit

    def _entry_for(self, pc: int) -> _BTBEntry:
        index = pc % self.btb_entries
        entry = self._btb.get(index)
        if entry is None or entry.tag != pc:
            entry = _BTBEntry(tag=pc)
            self._btb[index] = entry
        return entry

    def _update_counter(self, branch: DynInstr, taken: bool) -> None:
        entry = self._entry_for(branch.pc)
        if taken:
            entry.counter = min(3, entry.counter + 1)
        else:
            entry.counter = max(0, entry.counter - 1)

    # -- call / return stack ------------------------------------------------------

    def _push_call(self) -> None:
        # a full stack drops its oldest entry, so the depth saturates
        self._ras_count = min(self._ras_count + 1, self.ras_depth)

    def _pop_return(self) -> bool:
        if not self._ras_count:
            return False
        self._ras_count -= 1
        return True
