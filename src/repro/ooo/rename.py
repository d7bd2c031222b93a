"""Register renaming: mapping tables and free lists.

Section 2.2: the OOOVA renames registers with a mechanism very similar to
the MIPS R10000.  There are four independent mapping tables — one per
register class (A, S, V and mask) — each with its own free list.  When an
instruction defines a logical register, a physical register is taken from
the free list, the mapping table is updated, and the *old* mapping is
remembered in the instruction's reorder-buffer slot; when the instruction
commits, that old physical register returns to the free list.

The timing model processes instructions in program order, so the rename
table below always reflects the latest in-order state, and "the free list"
is a set of physical registers each annotated with the cycle at which it
becomes available again (its releasing instruction's commit time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.isa.registers import RegClass, Register


@dataclass
class PhysReg:
    """Timing and provenance state of one physical register."""

    ident: int
    #: cycle at which the full value is available
    ready: int = 0
    #: cycle at which the first element is available (vector chaining)
    first_result: int = 0
    #: True when the value was produced by a memory load (no chaining)
    from_load: bool = False


@dataclass
class RenameResult:
    """Outcome of renaming one destination register."""

    #: the newly mapped physical register
    phys: PhysReg
    #: the previous mapping, to be released when the instruction commits
    previous: PhysReg | None
    #: cycle at which a free physical register was actually available
    available_at: int


class RegisterFileRenamer:
    """Rename table + free list for a single register class."""

    def __init__(self, cls: RegClass, num_physical: int) -> None:
        if num_physical < 1:
            raise SimulationError(f"register class {cls} needs at least one physical register")
        self.cls = cls
        self.num_physical = num_physical
        self.registers = [PhysReg(i) for i in range(num_physical)]
        #: logical index -> physical register (created lazily on first use)
        self.mapping: dict[int, PhysReg] = {}
        #: physical id -> cycle at which it becomes allocatable
        self.free: dict[int, int] = {reg.ident: 0 for reg in self.registers}
        #: total cycles renames spent waiting on an empty free list
        self.allocation_stall_cycles = 0

    # -- sources ------------------------------------------------------------

    def source(self, register: Register) -> PhysReg:
        """Return the physical register currently holding ``register``."""
        self._check_class(register)
        phys = self.mapping.get(register.index)
        if phys is None:
            phys = self._allocate_initial(register.index)
        return phys

    def _pop_free(self) -> int:
        """Pop the next free physical register (R10000-style FIFO).

        The free list is kept in release order (releases happen at commit
        time, which is monotone), so the first entry is also the one that
        becomes available earliest.  Popping by *position* rather than by
        availability value keeps the allocation sequence a pure function of
        the instruction stream.
        """
        return next(iter(self.free))

    def _allocate_initial(self, logical: int) -> PhysReg:
        """Bind a never-written logical register to a physical one (value 0)."""
        if not self.free:
            raise SimulationError(
                f"no physical {self.cls.name} register available for initial mapping"
            )
        ident = self._pop_free()
        del self.free[ident]
        phys = self.registers[ident]
        self.mapping[logical] = phys
        return phys

    # -- destinations ----------------------------------------------------------

    def rename_destination(
        self, register: Register, earliest: int, at_decode: bool = True
    ) -> RenameResult:
        """Allocate a new physical register for a write to ``register``.

        Returns the new mapping, the old mapping (released at commit) and
        the cycle at which a free register was available, which may be later
        than ``earliest`` if the free list was empty.  Only a wait at decode
        is a rename stall and is counted: a late rename (``at_decode``
        false, vector load elimination's single rename point of Section
        6.2) delays its own instruction and leaves decode running.
        """
        self._check_class(register)
        previous = self.mapping.get(register.index)
        if not self.free:
            raise SimulationError(
                f"free list for {self.cls.name} registers is empty and nothing "
                "is pending release — increase the physical register count"
            )
        ident = self._pop_free()
        available_at = self.free[ident]
        if at_decode and available_at > earliest:
            # Charge the cycles actually spent waiting for the register,
            # not one unit per stall event (the stats report stall cycles).
            self.allocation_stall_cycles += available_at - earliest
        del self.free[ident]
        phys = self.registers[ident]
        self.mapping[register.index] = phys
        return RenameResult(phys=phys, previous=previous, available_at=max(available_at, earliest))

    def remap(self, register: Register, phys: PhysReg) -> PhysReg | None:
        """Point ``register`` at an existing physical register (load elimination).

        Returns the previous mapping (to release at commit).  If the target
        physical register is on the free list it is pulled back into use, as
        described in Section 6.1.
        """
        self._check_class(register)
        previous = self.mapping.get(register.index)
        self.free.pop(phys.ident, None)
        self.mapping[register.index] = phys
        return previous

    def release(self, phys: PhysReg | None, at_cycle: int) -> None:
        """Return ``phys`` to the free list, usable from ``at_cycle`` onwards."""
        if phys is None:
            return
        if phys in self.mapping.values():
            # The register is still mapped (it was shared by load elimination);
            # keep it live rather than recycling it under an active mapping.
            return
        self.free[phys.ident] = max(at_cycle, self.free.get(phys.ident, 0))

    # -- queries -------------------------------------------------------------

    def is_free(self, phys: PhysReg) -> bool:
        return phys.ident in self.free

    def _check_class(self, register: Register) -> None:
        if register.cls is not self.cls:
            raise SimulationError(
                f"register {register} passed to the {self.cls.name} renamer"
            )


class RenameUnit:
    """The four per-class renamers of the OOOVA, behind one interface."""

    def __init__(
        self,
        num_phys_aregs: int,
        num_phys_sregs: int,
        num_phys_vregs: int,
        num_phys_maskregs: int,
    ) -> None:
        self.files = {
            RegClass.A: RegisterFileRenamer(RegClass.A, num_phys_aregs),
            RegClass.S: RegisterFileRenamer(RegClass.S, num_phys_sregs),
            RegClass.V: RegisterFileRenamer(RegClass.V, num_phys_vregs),
            RegClass.VM: RegisterFileRenamer(RegClass.VM, num_phys_maskregs),
        }

    def file(self, cls: RegClass) -> RegisterFileRenamer:
        return self.files[cls]

    def source(self, register: Register) -> PhysReg:
        return self.files[register.cls].source(register)

    def rename_destination(
        self, register: Register, earliest: int, at_decode: bool = True
    ) -> RenameResult:
        return self.files[register.cls].rename_destination(register, earliest, at_decode)

    def release(self, register_cls: RegClass, phys: PhysReg | None, at_cycle: int) -> None:
        self.files[register_cls].release(phys, at_cycle)

    @property
    def total_allocation_stall_cycles(self) -> int:
        return sum(f.allocation_stall_cycles for f in self.files.values())
