"""Public re-export of the :class:`~repro.core.settings.Settings` resolver.

The implementation lives one layer down in :mod:`repro.core.settings` so
the experiment engine can depend on it without reaching *up* into the
façade package; this module is the supported import path::

    from repro.api import Settings            # preferred
    from repro.api.settings import Settings   # equivalent

See :mod:`repro.core.settings` for the precedence contract (**explicit
kwargs > environment > defaults**) and the environment-variable table.
"""

from __future__ import annotations

from repro.core.settings import (
    CACHE_DIR_ENV,
    FLEET_ENV,
    JOBS_ENV,
    ExecutionPlan,
    Settings,
)

__all__ = [
    "CACHE_DIR_ENV",
    "FLEET_ENV",
    "JOBS_ENV",
    "ExecutionPlan",
    "Settings",
]
