"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import OOOParams, ReferenceParams
from repro.common.stats import SimStats
from repro.core.machines import params_from_dict, params_to_dict


@dataclass(frozen=True)
class SimulationResult:
    """One simulation run: which workload, which machine, what happened."""

    workload: str
    config_name: str
    params: ReferenceParams | OOOParams
    stats: SimStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def memory_latency(self) -> int:
        return self.params.memory.latency

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to ``baseline`` (cycle ratio)."""
        if self.cycles == 0:
            raise ValueError("run reports zero cycles")
        return baseline.cycles / self.cycles

    def traffic_reduction_over(self, baseline: "SimulationResult") -> float:
        """Traffic-reduction ratio relative to ``baseline`` (Section 6.4)."""
        own = self.stats.traffic.total_ops
        if own == 0:
            raise ValueError("run performed no memory operations")
        return baseline.stats.traffic.total_ops / own

    def copy(self) -> "SimulationResult":
        """Return an independent copy of this result.

        The result store hands every caller a copy so that mutating a
        returned :class:`SimStats` can never corrupt the cached canonical
        instance.  The stats are flat counters, so the copy is cheap.
        """
        return SimulationResult(
            workload=self.workload,
            config_name=self.config_name,
            params=self.params,  # frozen, safe to share
            stats=self.stats.copy(),
        )

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary (persistent store)."""
        return {
            "workload": self.workload,
            "config_name": self.config_name,
            "params": params_to_dict(self.params),
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            workload=payload["workload"],
            config_name=payload["config_name"],
            params=params_from_dict(payload["params"]),
            stats=SimStats.from_dict(payload["stats"]),
        )

    def __str__(self) -> str:
        return (
            f"{self.workload} on {self.config_name}: {self.cycles} cycles, "
            f"{self.stats.vector_operations} vector ops, "
            f"{100 * self.stats.memory_port_idle_fraction():.1f}% memory-port idle"
        )
