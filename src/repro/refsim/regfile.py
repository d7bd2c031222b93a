"""The banked vector register file of the reference architecture.

Section 2.1: the eight vector registers are connected to the functional
units through a restricted crossbar.  Pairs of vector registers are grouped
in a register bank and share two read ports and one write port.  The Convex
compiler schedules code to avoid port conflicts; our simulator instead
detects conflicts at dispatch time and delays the instruction until ports
are available, which is a conservative model of the same restriction.

The OOOVA abandons this banking scheme (renaming would shuffle the
compiler's port assignments) and gives every vector register a dedicated
read port and a dedicated write port, so this module is used only by the
reference simulator.
"""

from __future__ import annotations

from repro.common.params import NUM_ARCH_VREGS
from repro.common.resources import GapResource
from repro.isa.registers import RegClass, Register


class BankedVectorRegisterFile:
    """Tracks read/write port occupancy of the banked register file."""

    def __init__(self, regs_per_bank: int, read_ports: int, write_ports: int) -> None:
        self.regs_per_bank = regs_per_bank
        self.num_banks = -(-NUM_ARCH_VREGS // regs_per_bank)
        self._read_ports = [
            [GapResource(f"bank{b}-r{p}") for p in range(read_ports)]
            for b in range(self.num_banks)
        ]
        self._write_ports = [
            [GapResource(f"bank{b}-w{p}") for p in range(write_ports)]
            for b in range(self.num_banks)
        ]

    def bank_of(self, register: Register) -> int:
        if register.cls is not RegClass.V:
            raise ValueError(f"{register} is not a vector register")
        return register.index // self.regs_per_bank

    # -- availability queries -------------------------------------------------

    def earliest_read(self, register: Register, earliest: int, duration: int) -> int:
        """Earliest time a read port in the register's bank can serve the access."""
        ports = self._read_ports[self.bank_of(register)]
        return min(port.next_free(earliest, duration) for port in ports)

    def earliest_write(self, register: Register, earliest: int, duration: int) -> int:
        """Earliest time the bank's write port can accept the result stream."""
        ports = self._write_ports[self.bank_of(register)]
        return min(port.next_free(earliest, duration) for port in ports)

    # -- reservations -----------------------------------------------------------

    def reserve_read(self, register: Register, start: int, duration: int) -> int:
        """Reserve a read port; returns the granted start time (>= start)."""
        ports = self._read_ports[self.bank_of(register)]
        best = min(ports, key=lambda port: port.next_free(start, duration))
        return best.reserve(start, duration)

    def reserve_write(self, register: Register, start: int, duration: int) -> int:
        """Reserve the write port; returns the granted start time (>= start)."""
        ports = self._write_ports[self.bank_of(register)]
        best = min(ports, key=lambda port: port.next_free(start, duration))
        return best.reserve(start, duration)
