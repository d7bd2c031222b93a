"""Workload base class and sizing.

The paper evaluates ten highly vectorisable programs from the Perfect Club
and SPECfp92 suites, compiled by the Convex compiler and traced with Dixie
(Section 3, Table 2).  Those binaries and traces are not available, so each
workload in this package is a *synthetic re-creation*: a kernel written in
the compiler IR whose trace-level characteristics — vectorisation
percentage, average vector length, spill-traffic fraction, loop-carried
memory dependences, basic-block size and scalar/vector mix — are modelled on
what the paper reports for the original program.  Each program's module
docstring names the published results its kernel is built to show (trfd's
short vectors and loop-carried store→load dependence, for instance, behind
Figures 5, 9 and 12).  Nothing in the repository argues why these
properties, and not others, are the ones the paper's results depend on.

Each workload exposes a ``scale`` knob so the full experiment suite stays
tractable under a pure-Python cycle-level simulator:

* ``tiny``   — a few hundred dynamic instructions, for unit tests;
* ``small``  — a few thousand dynamic instructions, the default used by the
  benchmark harness;
* ``medium`` — tens of thousands of dynamic instructions, for spot checks
  that the scale-down does not change the qualitative results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.common.errors import WorkloadError
from repro.compiler.ir import Kernel
from repro.compiler.pipeline import CompilationResult, compile_kernel
from repro.trace.generator import generate_trace
from repro.trace.records import Trace
from repro.trace.stats import TraceStatistics, compute_trace_statistics

#: recognised workload scales and the factor they apply to iteration counts
SCALES = {"tiny": 0.25, "small": 1.0, "medium": 4.0}


def scaled(value: int, scale: str, minimum: int = 1) -> int:
    """Scale an iteration/size parameter, clamped below at ``minimum``."""
    if scale not in SCALES:
        raise WorkloadError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    return max(minimum, int(round(value * SCALES[scale])))


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """The published characteristics this workload is modelled on (Table 2/3)."""

    #: percentage of all operations performed by vector instructions
    vectorization_percent: float
    #: average vector length used by vector instructions
    average_vector_length: float
    #: approximate fraction of memory traffic that is spill traffic
    spill_fraction: float
    #: a one-line description of the original program
    description: str = ""


class Workload:
    """Base class: builds a kernel, compiles it and produces a trace."""

    #: short name, matching the paper's program name
    name: str = ""
    #: the original benchmark suite ("Perfect" or "Specfp92")
    suite: str = ""
    characteristics: WorkloadCharacteristics = WorkloadCharacteristics(90.0, 100.0, 0.1)

    def __init__(self, scale: str = "small") -> None:
        if scale not in SCALES:
            raise WorkloadError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
        self.scale = scale

    # -- to be provided by each workload ------------------------------------

    def build_kernel(self) -> Kernel:
        """Construct the IR kernel for this workload at the current scale."""
        raise NotImplementedError

    # -- derived products, cached per (class, scale) --------------------------

    def compile(self) -> CompilationResult:
        """Compile the kernel (cached)."""
        return _compile_cached(type(self), self.scale)

    @property
    def program(self):
        return self.compile().program

    def trace(self) -> Trace:
        """Generate the dynamic trace (cached)."""
        return _trace_cached(type(self), self.scale)

    def statistics(self) -> TraceStatistics:
        """Trace statistics in the shape of Tables 2 and 3."""
        return compute_trace_statistics(self.trace())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale!r})"


@functools.lru_cache(maxsize=None)
def _compile_cached(workload_cls: type, scale: str) -> CompilationResult:
    workload = workload_cls(scale)
    kernel = workload.build_kernel()
    return compile_kernel(kernel)


@functools.lru_cache(maxsize=None)
def _trace_cached(workload_cls: type, scale: str) -> Trace:
    result = _compile_cached(workload_cls, scale)
    return generate_trace(result.program)


def clear_workload_caches() -> None:
    """Drop all cached compilations and traces (mainly for tests)."""
    _compile_cached.cache_clear()
    _trace_cached.cache_clear()
