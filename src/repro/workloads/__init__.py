"""Synthetic re-creations of the paper's ten benchmark programs.

Only the registry loads with the package.  The workload base class and the
ten programs, which need the compiler, load on first access to one of
their names.
"""

import importlib
from typing import Any

from repro.workloads.registry import WORKLOAD_NAMES, all_workloads, get_workload, workload_class

#: re-exported name -> the submodule that defines it, imported on first access
_LAZY = {
    "SCALES": "base",
    "Workload": "base",
    "WorkloadCharacteristics": "base",
    "clear_workload_caches": "base",
    "scaled": "base",
    "Arc2D": "arc2d",
    "Bdna": "bdna",
    "Dyfesm": "dyfesm",
    "Flo52": "flo52",
    "Hydro2D": "hydro2d",
    "Nasa7": "nasa7",
    "Su2Cor": "su2cor",
    "SWM256": "swm256",
    "Tomcatv": "tomcatv",
    "Trfd": "trfd",
}

__all__ = [
    "Arc2D",
    "SCALES",
    "Workload",
    "WorkloadCharacteristics",
    "clear_workload_caches",
    "scaled",
    "Bdna",
    "Dyfesm",
    "Flo52",
    "Hydro2D",
    "Nasa7",
    "WORKLOAD_CLASSES",
    "WORKLOAD_NAMES",
    "all_workloads",
    "get_workload",
    "Su2Cor",
    "SWM256",
    "Tomcatv",
    "Trfd",
]


def __getattr__(name: str) -> Any:
    if name == "WORKLOAD_CLASSES":
        # the paper's benchmark set in Table 2 order; imports all ten
        return {program: workload_class(program) for program in WORKLOAD_NAMES}
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
