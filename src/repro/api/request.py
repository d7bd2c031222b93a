"""Typed request/result values for the programmatic API.

* :class:`RunRequest` — a declarative workload × configuration sweep grid
  at one scale, executed by :meth:`repro.api.Session.run`;
* :class:`RunResult` — the resolved grid: every
  :class:`~repro.core.results.SimulationResult`, addressable by
  ``(workload, configuration)`` instead of scraped from printed reports;
* :class:`ExhibitResult` / :class:`ExhibitSet` — the paper's tables and
  figures as *data* with rendering attached: ``.data`` for programmatic
  consumers, ``render()``/``to_text()``/``to_json()``/``to_csv()`` for
  exactly the documents the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.common.errors import ReproError
from repro.core.config import MachineConfig, get_config
from repro.core.results import SimulationResult
from repro.workloads.registry import WORKLOAD_NAMES

#: user-facing scale names; ``full`` maps to the largest built-in workload
#: scale (the CLI has always spelled it this way)
SCALE_ALIASES = {"small": "small", "full": "medium"}

#: workload scales accepted verbatim (the registry's own vocabulary)
_RAW_SCALES = ("small", "medium")


def resolve_scale(scale: str) -> str:
    """Map a user-facing scale name to the workload registry's scale."""
    if scale in SCALE_ALIASES:
        return SCALE_ALIASES[scale]
    if scale in _RAW_SCALES:
        return scale
    raise ReproError(
        f"unknown scale {scale!r}; available: "
        f"{', '.join(sorted(set(SCALE_ALIASES) | set(_RAW_SCALES)))}"
    )


@dataclass(frozen=True)
class RunRequest:
    """A declarative sweep: ``workloads`` × ``configs`` at one scale.

    ``workloads`` are registry names (default: all ten benchmark
    programs); ``configs`` mixes standard configuration names and fully
    built :class:`~repro.core.config.MachineConfig` objects.  The grid
    runs on the session's engine, with the session's ``jobs`` and
    ``fleet``.
    """

    workloads: tuple[str, ...] = WORKLOAD_NAMES
    configs: tuple[str | MachineConfig, ...] = ("reference", "ooo")
    scale: str = "small"

    def resolved_workloads(self) -> tuple[str, ...]:
        """Validated workload names, in request order."""
        workloads = tuple(self.workloads)
        if not workloads:
            raise ReproError("RunRequest.workloads selected nothing")
        unknown = [name for name in workloads if name not in WORKLOAD_NAMES]
        if unknown:
            raise ReproError(
                f"unknown workload(s) {', '.join(unknown)}; "
                f"available: {', '.join(WORKLOAD_NAMES)}"
            )
        return workloads

    def resolved_configs(self) -> tuple[MachineConfig, ...]:
        """Fully built machine configurations, in request order."""
        configs = tuple(self.configs)
        if not configs:
            raise ReproError("RunRequest.configs selected nothing")
        return tuple(
            config if isinstance(config, MachineConfig) else get_config(config)
            for config in configs
        )

    def resolved_scale(self) -> str:
        """The workload-registry scale this request runs at."""
        return resolve_scale(self.scale)


@dataclass(frozen=True)
class RunResult:
    """A resolved :class:`RunRequest`: every grid point's result, as data."""

    request: RunRequest
    #: (workload, machine configuration) → simulation result
    results: Mapping[tuple[str, MachineConfig], SimulationResult]

    def get(self, workload: str, config: str | MachineConfig) -> SimulationResult:
        """The result for one grid point.

        Accepts the exact :class:`~repro.core.config.MachineConfig` of the
        request or a configuration *name*.  Names are convenient but can be
        ambiguous (e.g. ``ooo_config(phys_vregs=9)`` and ``…(phys_vregs=64)``
        are both named ``"ooo"``); an ambiguous name raises — pass the
        configuration object instead.
        """
        if isinstance(config, MachineConfig):
            try:
                return self.results[(workload, config)]
            except KeyError as exc:
                raise ReproError(
                    f"no result for ({workload!r}, {config.name!r}) "
                    "in this request"
                ) from exc
        matches = [
            result
            for (point_workload, point_config), result in self.results.items()
            if point_workload == workload and point_config.name == config
        ]
        if not matches:
            raise ReproError(
                f"no result for ({workload!r}, {config!r}) in this request"
            )
        if len(matches) > 1:
            raise ReproError(
                f"configuration name {config!r} is ambiguous for "
                f"{workload!r} ({len(matches)} grid points); pass the "
                "MachineConfig object instead"
            )
        return matches[0]

    def speedup(
        self,
        workload: str,
        config: str | MachineConfig,
        baseline: str | MachineConfig = "reference",
    ) -> float:
        """Cycles ratio ``baseline / config`` for one workload."""
        return self.get(workload, config).speedup_over(self.get(workload, baseline))

    def __iter__(self) -> Iterator[tuple[tuple[str, MachineConfig], SimulationResult]]:
        return iter(self.results.items())

    def __len__(self) -> int:
        return len(self.results)

    def to_dict(self) -> dict:
        """JSON-compatible dump: ``{workload: [result_dict, …]}``.

        Each result dictionary self-describes its configuration (name and
        parameters), so duplicate configuration names stay distinguishable.
        """
        payload: dict[str, list[dict]] = {}
        for (workload, _config), result in self.results.items():
            payload.setdefault(workload, []).append(result.to_dict())
        return payload


@dataclass(frozen=True)
class ExhibitResult:
    """One computed table or figure: its data plus how to print it."""

    #: registry name (``table1`` … ``figure13``)
    name: str
    #: human-readable title, as printed by the CLI
    title: str
    #: the exhibit's raw data (exact shape documented per experiment fn)
    data: Any
    #: wall-clock seconds spent computing this exhibit
    elapsed_s: float
    #: the exhibit's ASCII formatter (data → report)
    renderer: Callable[[Any], str] = field(repr=False, compare=False, default=str)

    def render(self) -> str:
        """The paper-style ASCII report for this exhibit."""
        return self.renderer(self.data)


@dataclass(frozen=True)
class ExhibitSet:
    """Every requested exhibit of one run, reachable as data *and* text."""

    #: the user-facing scale label the set was requested at
    scale: str
    #: the program subset requested (``None``: all ten)
    programs: tuple[str, ...] | None
    #: computed exhibits, in paper order
    exhibits: tuple[ExhibitResult, ...]
    #: engine cache/execution counters captured after the run (if any)
    engine_summary: Mapping[str, Any] | None = None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(exhibit.name for exhibit in self.exhibits)

    @property
    def data(self) -> dict[str, Any]:
        """``{exhibit name: exhibit data}`` for programmatic consumption."""
        return {exhibit.name: exhibit.data for exhibit in self.exhibits}

    def __iter__(self) -> Iterator[ExhibitResult]:
        return iter(self.exhibits)

    def __len__(self) -> int:
        return len(self.exhibits)

    def __getitem__(self, name: str) -> ExhibitResult:
        for exhibit in self.exhibits:
            if exhibit.name == name:
                return exhibit
        raise KeyError(name)

    def render(self, name: str) -> str:
        """The ASCII report of one exhibit."""
        return self[name].render()

    def to_text(self) -> str:
        """All reports concatenated in the CLI's ``run-all`` text layout."""
        blocks = []
        for exhibit in self.exhibits:
            blocks.append("=" * 78)
            blocks.append(
                f"{exhibit.title}  [{exhibit.name}, {exhibit.elapsed_s:.2f}s]")
            blocks.append("=" * 78)
            blocks.append(exhibit.render())
            blocks.append("")
        return "\n".join(blocks)

    def payload(self) -> dict:
        """The machine-readable document (same shape as ``run-all --format json``)."""
        from repro.analysis.export import exhibits_payload

        return exhibits_payload(
            self.data,
            self.scale,
            self.programs,
            engine_summary=self.engine_summary,
        )

    def to_json(self) -> str:
        """One JSON document covering the whole set."""
        from repro.analysis.export import render_json

        return render_json(self.payload())

    def to_csv(self) -> str:
        """Flat ``exhibit,path,value`` CSV rows covering the whole set."""
        from repro.analysis.export import render_csv

        return render_csv(self.payload())


def split_names(csv: str | None) -> tuple[str, ...] | None:
    """Parse a comma-separated name list (CLI style); ``None`` passes through."""
    if csv is None:
        return None
    return tuple(part.strip() for part in csv.split(",") if part.strip())


def validate_programs(programs: Sequence[str] | None) -> tuple[str, ...] | None:
    """Validate an optional program subset against the workload registry."""
    if programs is None:
        return None
    programs = tuple(programs)
    if not programs:
        raise ReproError(
            "program subset selected nothing; available: "
            + ", ".join(WORKLOAD_NAMES)
        )
    unknown = [name for name in programs if name not in WORKLOAD_NAMES]
    if unknown:
        raise ReproError(
            f"unknown program(s) {', '.join(unknown)}; "
            f"available: {', '.join(WORKLOAD_NAMES)}"
        )
    return programs
