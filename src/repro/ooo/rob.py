"""Reorder buffer and commit models.

Section 2.2: the reorder buffer holds 64 instructions; entries are allocated
at decode and released in strict program order; up to 4 instructions may
commit per cycle.  The reorder buffer only holds a few bits per instruction
(it never holds register values) — what matters for timing is *when* each
entry can retire:

* **early commit** (Section 2.2, "Commit Strategy"): a vector instruction's
  slot is marked ready as soon as the instruction *begins* execution;
* **late commit** (Section 5, precise traps): the slot becomes ready only
  when the instruction has fully completed.

The commit cycle of each instruction also bounds when the physical register
of its destination's *old* mapping returns to the free list, and — under
late commit — when younger stores may finally execute.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.common.errors import ConfigurationError


class ReorderBuffer:
    """Tracks entry allocation, in-order commit and commit bandwidth."""

    def __init__(self, entries: int, commit_width: int) -> None:
        if entries < 1 or commit_width < 1:
            raise ConfigurationError("reorder buffer needs positive size and width")
        self.entries = entries
        self.commit_width = commit_width
        #: commit times of instructions still occupying an entry
        self._occupancy: list[int] = []
        #: commit times of the most recent ``commit_width`` commits
        self._recent_commits: deque[int] = deque(maxlen=commit_width)
        self.last_commit = 0
        #: total cycles allocations spent waiting on a full buffer
        self.allocation_stall_cycles = 0

    def allocate(self, earliest: int) -> int:
        """Allocate an entry at or after ``earliest``; stalls while full.

        A stall is charged for the cycles the allocation actually waited
        (``blocked_until - granted``), not one unit per stall event — the
        statistics report these counters as stall *cycles*.
        """
        granted = earliest
        while len(self._occupancy) >= self.entries:
            oldest_commit = heappop(self._occupancy)
            if oldest_commit > granted:
                self.allocation_stall_cycles += oldest_commit - granted
                granted = oldest_commit
        return granted

    def commit(self, ready_to_commit: int) -> int:
        """Retire the next instruction in program order.

        ``ready_to_commit`` is the cycle at which the instruction's entry is
        eligible (execution start under early commit, completion under late
        commit).  The returned commit cycle respects in-order retirement and
        the machine's commit bandwidth.
        """
        commit_time = max(ready_to_commit, self.last_commit)
        if len(self._recent_commits) == self.commit_width:
            commit_time = max(commit_time, self._recent_commits[0] + 1)
        self._recent_commits.append(commit_time)
        self.last_commit = commit_time
        heappush(self._occupancy, commit_time)
        return commit_time
