"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A machine or experiment configuration is inconsistent or out of range."""


class CompilationError(ReproError):
    """The kernel compiler could not lower a kernel to vector code."""


class RegisterAllocationError(CompilationError):
    """Register allocation failed (e.g. more live values than spillable slots)."""


class TraceError(ReproError):
    """A trace is malformed or inconsistent with the ISA."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (internal invariant broken)."""


class WorkloadError(ReproError):
    """A workload was requested with invalid parameters or an unknown name."""
