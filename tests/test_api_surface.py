"""Public-surface lock for :mod:`repro.api`.

``repro.api.__all__`` is the repository's public API contract: CI fails
when a name disappears or appears without this snapshot being updated on
purpose.  Removing or renaming an entry is a breaking change; additions
must extend the snapshot (and the README's PUBLIC API section) in the
same commit.
"""

import inspect

import repro.api

#: the locked surface — update deliberately, never incidentally
PUBLIC_SURFACE = (
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
)


def test_public_surface_is_locked():
    assert tuple(sorted(repro.api.__all__)) == PUBLIC_SURFACE


def test_every_export_resolves():
    for name in repro.api.__all__:
        assert hasattr(repro.api, name), f"repro.api.{name} does not resolve"


def test_every_class_and_function_is_documented():
    for name in repro.api.__all__:
        export = getattr(repro.api, name)
        if inspect.isclass(export) or inspect.isfunction(export):
            assert inspect.getdoc(export), f"repro.api.{name} has no docstring"


def test_session_public_methods_are_documented():
    from repro.api import Session

    for name, member in vars(Session).items():
        if name.startswith("_") or not callable(member):
            continue
        assert inspect.getdoc(member), f"Session.{name} has no docstring"


def test_surface_is_sorted_for_stable_diffs():
    assert list(repro.api.__all__) == sorted(repro.api.__all__)
