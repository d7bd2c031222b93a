"""The out-of-order, register-renaming vector architecture (OOOVA)."""

from repro.ooo.btb import BranchPredictor
from repro.ooo.loadelim import LoadEliminationUnit, MemoryTag, TagTable, tag_for
from repro.ooo.machine import simulate_ooo
from repro.ooo.mempipe import MemoryPipeline
from repro.ooo.queues import IssueQueue, QueueKind, QueueSet, route_queue
from repro.ooo.rename import PhysReg, RegisterFileRenamer, RenameResult, RenameUnit
from repro.ooo.rob import ReorderBuffer

__all__ = [
    "BranchPredictor",
    "LoadEliminationUnit",
    "MemoryTag",
    "TagTable",
    "tag_for",
    "simulate_ooo",
    "MemoryPipeline",
    "IssueQueue",
    "QueueKind",
    "QueueSet",
    "route_queue",
    "PhysReg",
    "RegisterFileRenamer",
    "RenameResult",
    "RenameUnit",
    "ReorderBuffer",
]
