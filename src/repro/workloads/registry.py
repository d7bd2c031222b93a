"""Workload registry: the ten benchmark programs of the paper, by name.

Listing the programs imports none of them: program ``name`` lives in the
module ``repro.workloads.<name>``, which (with the compiler) is imported
only when :func:`get_workload` builds it.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro.common.errors import WorkloadError

if TYPE_CHECKING:
    from repro.workloads.base import Workload

#: the paper's benchmark set, in Table 2 order: program name -> class name
_CLASS_NAMES: dict[str, str] = {
    "swm256": "SWM256",
    "hydro2d": "Hydro2D",
    "arc2d": "Arc2D",
    "flo52": "Flo52",
    "nasa7": "Nasa7",
    "su2cor": "Su2Cor",
    "tomcatv": "Tomcatv",
    "bdna": "Bdna",
    "trfd": "Trfd",
    "dyfesm": "Dyfesm",
}

#: program names in the order the paper lists them
WORKLOAD_NAMES: tuple[str, ...] = tuple(_CLASS_NAMES)


def workload_class(name: str) -> type[Workload]:
    """The class of program ``name``, importing its module on first use."""
    try:
        class_name = _CLASS_NAMES[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {', '.join(WORKLOAD_NAMES)}"
        ) from exc
    return getattr(importlib.import_module(f"repro.workloads.{name}"), class_name)


def get_workload(name: str, scale: str = "small") -> Workload:
    """Instantiate a workload by its paper name (e.g. ``"trfd"``)."""
    return workload_class(name)(scale)


def all_workloads(scale: str = "small") -> list[Workload]:
    """Instantiate the full benchmark suite."""
    return [get_workload(name, scale) for name in WORKLOAD_NAMES]
