"""``repro.api`` — the one public, typed entry point to the reproduction.

Everything the command line can do is reachable programmatically from
here, with no environment variables and no process-global state:

* :class:`Settings` — frozen runtime configuration with the documented
  precedence **explicit kwargs > environment > defaults**
  (:meth:`Settings.resolve`);
* :class:`Session` — owns the cache directory, result and trace stores
  and the experiment engine (``session.engine``, the ``engine=`` argument
  of every ``table*``/``figure*`` experiment function); a context
  manager, one per driver;
* :class:`RunRequest` / :class:`RunResult` — declarative workload ×
  configuration sweep grids and their resolved results, as data;
* :meth:`Session.submit` / :class:`RunHandle` / :class:`RunStatus` — the
  submit-and-watch form of grid execution: one handle shape whether the
  grid runs in-process, on a local pool, or on a fleet of workers
  (``Settings(fleet=N)`` / ``REPRO_FLEET``) sharing the object-store
  bucket; ``Session.run`` is ``submit(...).result()``;
* :class:`ExhibitSet` / :class:`ExhibitResult` — every table and figure
  of the paper's evaluation as data plus its text/JSON/CSV renderings;
* :class:`Machine` / :class:`MachineModel` / :func:`register_machine` —
  the timing-model protocol and registry: new machine models plug into
  single-point simulation and sweep grids without touching any driver
  code.

Quickstart::

    from repro.api import RunRequest, Session

    with Session(cache_dir=".repro-cache", jobs=4) as session:
        exhibits = session.exhibits(names=("table2", "figure5"))
        print(exhibits.render("figure5"))        # the paper's ASCII figure
        curves = exhibits["figure5"].data        # …or the raw data

        grid = session.run(RunRequest(workloads=("trfd", "swm256"),
                                      configs=("reference", "ooo")))
        print(grid.speedup("trfd", "ooo"))

``python -m repro.cli`` and the example scripts are thin adapters over
this module.  Its ``__all__`` is a locked
public surface (see ``tests/test_api_surface.py``): additions are
deliberate, removals are breaking.
"""

from repro.api.machine import (
    Machine,
    MachineConfig,
    MachineModel,
    create_run,
    get_machine_model,
    machine_config,
    machine_names,
    model_for_params,
    register_machine,
)
from repro.api.request import (
    SCALE_ALIASES,
    ExhibitResult,
    ExhibitSet,
    RunRequest,
    RunResult,
    resolve_scale,
)
from repro.api.handle import RunHandle, RunStatus
from repro.api.session import Session, engine_summary_dict
from repro.api.settings import CACHE_DIR_ENV, FLEET_ENV, JOBS_ENV, Settings

__all__ = [
    "CACHE_DIR_ENV",
    "ExhibitResult",
    "ExhibitSet",
    "FLEET_ENV",
    "JOBS_ENV",
    "Machine",
    "MachineConfig",
    "MachineModel",
    "RunHandle",
    "RunRequest",
    "RunResult",
    "RunStatus",
    "SCALE_ALIASES",
    "Session",
    "Settings",
    "create_run",
    "engine_summary_dict",
    "get_machine_model",
    "machine_config",
    "machine_names",
    "model_for_params",
    "register_machine",
    "resolve_scale",
]
