"""The in-order reference architecture simulator (Convex C3400 model)."""

from repro.refsim.machine import simulate_reference
from repro.refsim.regfile import BankedVectorRegisterFile

__all__ = ["simulate_reference", "BankedVectorRegisterFile"]
