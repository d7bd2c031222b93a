"""Precedence and validation tests for :class:`repro.api.Settings`.

The contract under test: **explicit kwargs > environment > defaults**,
with explicitly passed falsy values (``0``, ``None``) beating a set
environment variable, strict validation of explicit values, and the
engine's historical tolerance (fallback/clamping) for sloppy environment
values.
"""

import dataclasses

import pytest

from repro.api import (
    CACHE_DIR_ENV,
    FLEET_ENV,
    JOBS_ENV,
    Settings,
)
from repro.common.errors import ReproError


class TestDefaults:
    def test_empty_environment_gives_documented_defaults(self):
        settings = Settings.resolve(env={})
        assert settings.cache_dir is None
        assert settings.jobs == 1
        assert settings.fleet == 0

    def test_resolve_defaults_to_process_environment(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert Settings.resolve().jobs == 7


class TestEnvironmentLayer:
    def test_env_values_apply_when_not_explicit(self):
        env = {
            CACHE_DIR_ENV: "/tmp/cache",
            JOBS_ENV: "4",
            FLEET_ENV: "3",
        }
        settings = Settings.resolve(env=env)
        assert settings.cache_dir == "/tmp/cache"
        assert settings.jobs == 4
        assert settings.fleet == 3

    def test_empty_env_cache_dir_means_disabled(self):
        assert Settings.resolve(env={CACHE_DIR_ENV: ""}).cache_dir is None

    @pytest.mark.parametrize("bad", ["abc", "1.5", " "])
    def test_unparsable_env_integers_fall_back_to_defaults(self, bad):
        env = {JOBS_ENV: bad, FLEET_ENV: bad}
        settings = Settings.resolve(env=env)
        assert (settings.jobs, settings.fleet) == (1, 0)

    def test_out_of_range_env_integers_are_clamped(self):
        env = {JOBS_ENV: "0", FLEET_ENV: "-100"}
        settings = Settings.resolve(env=env)
        assert (settings.jobs, settings.fleet) == (1, 0)


class TestExplicitLayer:
    def test_explicit_beats_environment(self):
        env = {JOBS_ENV: "4", CACHE_DIR_ENV: "/tmp/env"}
        settings = Settings.resolve(jobs=2, cache_dir="/tmp/mine", env=env)
        assert settings.jobs == 2
        assert settings.cache_dir == "/tmp/mine"

    def test_falsy_explicit_fleet_beats_environment(self):
        settings = Settings.resolve(fleet=0, env={FLEET_ENV: "4"})
        assert settings.fleet == 0

    def test_explicit_none_cache_dir_beats_environment(self):
        settings = Settings.resolve(
            cache_dir=None, env={CACHE_DIR_ENV: "/tmp/persist"})
        assert settings.cache_dir is None

    def test_explicit_empty_cache_dir_normalises_to_none(self):
        assert Settings.resolve(cache_dir="", env={}).cache_dir is None

    def test_path_like_cache_dir_accepted(self, tmp_path):
        assert Settings.resolve(cache_dir=tmp_path, env={}).cache_dir == str(tmp_path)

    @pytest.mark.parametrize(
        "kwargs",
        [{"jobs": 0}, {"jobs": -1}, {"fleet": -1}, {"jobs": "nope"}],
    )
    def test_invalid_explicit_values_raise(self, kwargs):
        with pytest.raises(ReproError):
            Settings.resolve(env={}, **kwargs)


class TestOverride:
    def test_override_carries_unchanged_fields(self):
        base = Settings.resolve(env={JOBS_ENV: "4"})
        derived = base.override(fleet=2)
        assert derived.jobs == 4  # carried over from the environment
        assert derived.fleet == 2

    def test_override_validates(self):
        with pytest.raises(ReproError):
            Settings.resolve(env={}).override(jobs=0)
        with pytest.raises(ReproError, match="unknown settings field"):
            Settings.resolve(env={}).override(velocity=11)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Settings.resolve(env={}).jobs = 9  # type: ignore[misc]


class TestNoStoreSetting:
    """A cache dir always means the object store: there is no store knob."""

    def test_resolve_rejects_store(self):
        with pytest.raises(TypeError):
            Settings.resolve(store="json", env={})  # type: ignore[call-arg]

    def test_override_rejects_store(self):
        with pytest.raises(ReproError, match="unknown settings field"):
            Settings.resolve(env={}).override(store="json")
