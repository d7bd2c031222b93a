"""Typed runtime settings with one documented precedence rule.

:class:`Settings` is the frozen value a :class:`~repro.api.Session` is
built from, resolved once by :meth:`Settings.resolve`:

    **explicit keyword arguments  >  environment variables  >  defaults**

An *explicitly passed* keyword always wins, even when its value is falsy:
``Settings.resolve(fleet=0)`` pins in-process execution no matter what
``REPRO_FLEET`` says, and ``Settings.resolve(cache_dir=None)`` disables
persistence even with ``REPRO_CACHE_DIR`` set.  This module is the only
place that reads the environment; the experiment engine takes its
settings as constructor arguments.

Environment variables (all optional):

============================  =============================================
``REPRO_CACHE_DIR``           persistent cache directory: results in the
                              object store under ``objects/``, compiled
                              traces under ``traces/`` (empty: disabled)
``REPRO_JOBS``                worker processes per sweep (clamped to ≥ 1;
                              unparsable values fall back to the default)
``REPRO_FLEET``               distributed execution: number of local
                              ``repro worker`` processes the engine spawns
                              and dispatches to through the object-store
                              lease queue (0, the default, disables fleet
                              dispatch; clamped to ≥ 0)
============================  =============================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping

from repro.common.errors import ReproError

#: environment variable naming the persistent cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: environment variable for sweep-level worker processes
JOBS_ENV = "REPRO_JOBS"
#: environment variable enabling fleet dispatch (worker count to spawn)
FLEET_ENV = "REPRO_FLEET"

#: sentinel distinguishing "not passed" from every real value (incl. falsy)
_UNSET: Any = object()


def _env_int(env: Mapping[str, str], name: str, default: int, minimum: int) -> int:
    """Integer environment knob: unparsable → default, else clamped."""
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    try:
        return max(minimum, int(raw))
    except ValueError:
        return default


@dataclass(frozen=True)
class Settings:
    """Resolved, immutable runtime configuration for a :class:`~repro.api.Session`.

    Build instances with :meth:`resolve` (the precedence resolver) rather
    than the bare constructor, unless every field is intentionally pinned.
    """

    #: persistent cache directory (``None``: purely in-memory stores)
    cache_dir: str | None = None
    #: worker processes fanning out the points of a sweep grid
    jobs: int = 1
    #: local fleet workers to spawn (0: in-process execution, the default)
    fleet: int = 0

    @classmethod
    def resolve(
        cls,
        *,
        cache_dir: Any = _UNSET,
        jobs: Any = _UNSET,
        fleet: Any = _UNSET,
        env: Mapping[str, str] | None = None,
    ) -> "Settings":
        """Resolve settings as **explicit kwargs > environment > defaults**.

        ``env`` defaults to ``os.environ`` and exists for tests.  Explicit
        values are validated strictly (:class:`~repro.common.errors.ReproError`
        on a non-integer, ``jobs < 1`` or ``fleet < 0``);
        unparsable integer *environment* values fall back to the default
        and out-of-range ones are clamped, matching the engine's historical
        tolerance for a sloppy environment.
        """
        environ: Mapping[str, str] = os.environ if env is None else env

        if cache_dir is _UNSET:
            resolved_cache = environ.get(CACHE_DIR_ENV) or None
        else:
            resolved_cache = os.fspath(cache_dir) if cache_dir else None

        def _explicit_int(name: str, value: Any, minimum: int) -> int:
            try:
                number = int(value)
            except (TypeError, ValueError) as exc:
                raise ReproError(f"{name} must be an integer, got {value!r}") from exc
            if number < minimum:
                raise ReproError(f"{name} must be at least {minimum}, got {number}")
            return number

        if jobs is _UNSET:
            resolved_jobs = _env_int(environ, JOBS_ENV, default=1, minimum=1)
        else:
            resolved_jobs = _explicit_int("jobs", jobs, minimum=1)

        if fleet is _UNSET:
            resolved_fleet = _env_int(environ, FLEET_ENV, default=0, minimum=0)
        else:
            resolved_fleet = _explicit_int("fleet", fleet, minimum=0)

        return cls(cache_dir=resolved_cache, jobs=resolved_jobs, fleet=resolved_fleet)

    def override(self, **changes: Any) -> "Settings":
        """A copy with ``changes`` applied.

        Unknown field names raise :class:`~repro.common.errors.ReproError`;
        the same strict validation as explicit :meth:`resolve` arguments
        applies, re-using the resolver with this instance's values as the
        environment-free baseline.
        """
        fields = {"cache_dir", "jobs", "fleet"}
        unknown = set(changes) - fields
        if unknown:
            raise ReproError(
                f"unknown settings field(s): {', '.join(sorted(unknown))}"
            )
        merged: dict[str, Any] = {name: getattr(self, name) for name in fields}
        merged.update(changes)
        return Settings.resolve(env={}, **merged)


__all__ = ["CACHE_DIR_ENV", "FLEET_ENV", "JOBS_ENV", "Settings"]
