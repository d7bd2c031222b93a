"""Dynamic load elimination: per-physical-register memory tags.

Section 6.1: every physical register (A, S and V) carries a tag describing
the memory it currently mirrors.  For vector registers the tag is the
6-tuple ``(@1, @2, vl, vs, sz, v)`` — the byte range, vector length, stride,
access granularity and a validity bit; scalar tags drop ``vl`` and ``vs``.

* when a **load** executes, the tag of its destination physical register is
  filled with the access description;
* when a **store** executes, the tag of the physical register being stored
  is filled the same way, and every existing tag that *overlaps* the stored
  range is invalidated (conservatively);
* when a **load** reaches the disambiguation stage and its would-be tag
  matches an existing valid tag *exactly*, the load is eliminated: for
  vectors the destination logical register is simply renamed to the matching
  physical register (which may even be on the free list); for scalars the
  value is copied register-to-register.  Either way no memory request is
  made.
* any other write to a physical register invalidates its tag.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.isa.instructions import ELEMENT_BYTES
from repro.trace.records import DynInstr


class MemoryTag(NamedTuple):
    """The memory region currently mirrored by one physical register.

    A ``NamedTuple`` so the exact-match comparisons the tag tables perform on
    every load/store (see :meth:`TagTable.find_exact`) are C-level tuple
    equality rather than generated-dataclass field comparisons.
    """

    region_start: int
    region_end: int
    vl: int
    stride: int
    size: int = ELEMENT_BYTES

    def matches(self, other: "MemoryTag") -> bool:
        """Exact match: every field identical (Section 6.1's match rule)."""
        return self == other

    def overlaps(self, start: int, end: int) -> bool:
        return self.region_start < end and start < self.region_end


def tag_for(instr: DynInstr) -> MemoryTag | None:
    """Build the tag a load or store would attach to its register."""
    if instr.region_start is None or instr.region_end is None:
        return None
    vl = instr.vl if instr.is_vector else 1
    stride = instr.stride if instr.is_vector else ELEMENT_BYTES
    return MemoryTag(
        region_start=instr.region_start,
        region_end=instr.region_end,
        vl=vl,
        stride=stride,
    )


class TagTable:
    """Tags for one register class, keyed by physical register id."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._tags: dict[int, MemoryTag] = {}

    def set_tag(self, phys_id: int, tag: MemoryTag | None) -> None:
        """Attach ``tag`` to a physical register (or clear it with ``None``)."""
        if tag is None:
            self._tags.pop(phys_id, None)
        else:
            self._tags[phys_id] = tag

    def invalidate(self, phys_id: int) -> None:
        """Clear the tag of a physical register (it was overwritten)."""
        self._tags.pop(phys_id, None)

    def invalidate_overlapping(self, region_start: int, region_end: int,
                               keep: int | None = None) -> None:
        """Invalidate every tag overlapping ``[region_start, region_end)``.

        ``keep`` identifies the register whose tag is being (re)created by the
        store itself and must survive.
        """
        victims = [
            phys_id
            for phys_id, tag in self._tags.items()
            if phys_id != keep and tag.overlaps(region_start, region_end)
        ]
        for phys_id in victims:
            del self._tags[phys_id]

    def find_exact(self, tag: MemoryTag) -> int | None:
        """Return the physical register whose tag matches ``tag`` exactly."""
        for phys_id, existing in self._tags.items():
            if existing.matches(tag):
                return phys_id
        return None

    def get(self, phys_id: int) -> MemoryTag | None:
        return self._tags.get(phys_id)

    def __len__(self) -> int:
        return len(self._tags)


class LoadEliminationUnit:
    """The three tag tables (A, S, V) plus store-consistency bookkeeping."""

    def __init__(self) -> None:
        self.vector_tags = TagTable("V")
        self.a_tags = TagTable("A")
        self.s_tags = TagTable("S")
        self.vector_loads_eliminated = 0

    def all_tables(self) -> tuple[TagTable, TagTable, TagTable]:
        return (self.vector_tags, self.a_tags, self.s_tags)

    def store_executed(self, instr: DynInstr, phys_id: int, table: TagTable) -> None:
        """Update tags for a store: tag the stored register, kill overlaps.

        Store addresses must be compared against *all* register tags (scalar
        stores against vector tags and vice versa) to keep every register
        consistent with memory — Section 6.1.
        """
        tag = tag_for(instr)
        if tag is None:
            return
        for candidate in self.all_tables():
            keep = phys_id if candidate is table else None
            candidate.invalidate_overlapping(tag.region_start, tag.region_end, keep=keep)
        table.set_tag(phys_id, tag)

    def load_executed(self, instr: DynInstr, phys_id: int, table: TagTable) -> None:
        """Tag the destination register of a load that went to memory."""
        table.set_tag(phys_id, tag_for(instr))

    def try_eliminate(self, instr: DynInstr, table: TagTable) -> int | None:
        """Return the physical register a redundant load can reuse, if any."""
        tag = tag_for(instr)
        if tag is None:
            return None
        return table.find_exact(tag)
