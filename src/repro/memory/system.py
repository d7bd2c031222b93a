"""Main-memory timing model.

Section 2.2 of the paper describes the memory system of both machines:

* a **single address bus** shared by all types of memory transactions
  (scalar and vector, loads and stores), issuing one address per cycle;
* physically separate data busses for sending and receiving data, so a load
  stream and a store stream never collide on data wires;
* vector loads pay an initial latency and then receive one datum per cycle;
* vector stores do not expose any observed latency;
* scalar accesses hit a small scalar cache (the C34 caches scalar data) with
  a short fixed latency.

The class below owns the address bus as a :class:`GapResource` so that the
out-of-order machine can slip memory requests into idle bus slots, and
reports the bus's busy cycles behind Figures 4 and 6; the machines count
the memory traffic themselves, in :class:`~repro.common.stats.MemoryTraffic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import FunctionalUnitLatencies, MemoryParams
from repro.common.resources import GapResource


@dataclass(frozen=True)
class MemoryTiming:
    """Timing of one memory access as granted by the memory system."""

    #: cycle at which the first address is driven on the address bus
    start: int
    #: cycle at which the last address has been sent (bus released)
    address_done: int
    #: cycle at which the last datum has been delivered to the register file
    data_ready: int


class MemorySystem:
    """Allocates address-bus slots and computes access completion times."""

    def __init__(
        self,
        params: MemoryParams,
        latencies: FunctionalUnitLatencies | None = None,
    ) -> None:
        self.params = params
        self.latencies = latencies or FunctionalUnitLatencies()
        self.address_bus = GapResource("address-bus")

    # -- vector accesses ----------------------------------------------------

    def vector_load(self, earliest: int, elements: int) -> MemoryTiming:
        """Issue a vector load: ``elements`` addresses, then one datum/cycle."""
        elements = max(elements, 1)
        start = self.address_bus.reserve(earliest, elements)
        address_done = start + elements
        data_ready = start + self.params.latency + elements
        return MemoryTiming(start, address_done, data_ready)

    def vector_store(self, earliest: int, elements: int) -> MemoryTiming:
        """Issue a vector store: addresses and data stream out, no latency seen."""
        elements = max(elements, 1)
        start = self.address_bus.reserve(earliest, elements)
        address_done = start + elements
        return MemoryTiming(start, address_done, address_done)

    # -- scalar accesses ----------------------------------------------------

    def scalar_load(self, earliest: int) -> MemoryTiming:
        """Issue a scalar load (served by the scalar data cache)."""
        start = self.address_bus.reserve(earliest, 1)
        return MemoryTiming(start, start + 1, start + self.latencies.scalar_mem)

    def scalar_store(self, earliest: int) -> MemoryTiming:
        """Issue a scalar store."""
        start = self.address_bus.reserve(earliest, 1)
        return MemoryTiming(start, start + 1, start + 1)

    # -- statistics -----------------------------------------------------------

    @property
    def busy_cycles(self) -> int:
        """Total cycles during which the address bus carried a request."""
        return self.address_bus.busy_cycles()
