"""Trace representation, generation (the Dixie substitute) and statistics.

Only the trace store and the statistics load with the package.  The
records and the generator, which need the ISA, load on first access to one
of their names, so a process that only reads stored results imports
neither.
"""

import importlib
from typing import Any

from repro.trace.stats import TraceStatistics, compute_trace_statistics
from repro.trace.store import TRACE_STORE_VERSION, TraceStore

#: re-exported name -> the submodule that defines it, imported on first access
_LAZY = {
    "DEFAULT_MAX_DYNAMIC_INSTRUCTIONS": "generator",
    "TraceGenerator": "generator",
    "generate_trace": "generator",
    "DynInstr": "records",
    "Trace": "records",
}

__all__ = [
    "DEFAULT_MAX_DYNAMIC_INSTRUCTIONS",
    "TraceGenerator",
    "generate_trace",
    "DynInstr",
    "Trace",
    "TraceStatistics",
    "compute_trace_statistics",
    "TRACE_STORE_VERSION",
    "TraceStore",
]


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
