"""The staged machine kernel and the machine-model registry.

Everything here is auto-parameterised over *all* registered machines via
:func:`repro.core.machines.machine_names`, so a newly registered model is
covered by the resumability and determinism battery without touching this
file.  Machine state is every attribute reachable from the machine
(:func:`machine_state.state`), and these tests hold the spec's
``run_slice`` to it; the batched stepper is held to the spec's
``SimStats`` in ``tests/test_batched_kernel.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from machine_state import mutable_parts, state

from repro.core.config import machine_config
from repro.core.machines import get_machine_model, machine_names
from repro.machine import StagedMachine
from repro.workloads.registry import get_workload

MACHINES = machine_names()

#: a short but non-trivial prefix of a real workload trace
TRACE = get_workload("trfd", "tiny").trace()


def _fresh_run(name):
    model = get_machine_model(name)
    return model.factory(model.params_type(), TRACE)


class TestMachineState:
    """Resumability and determinism, compared over the whole machine state."""

    @pytest.mark.parametrize("name", MACHINES)
    def test_split_run_matches_whole_run(self, name):
        """run_slice is resumable: two calls land where one call does."""
        cut = len(TRACE) // 2
        whole = _fresh_run(name)
        whole.run_slice(TRACE.instructions)
        split = _fresh_run(name)
        split.run_slice(TRACE.instructions[:cut])
        split.run_slice(TRACE.instructions[cut:])
        assert state(split) == state(whole)
        assert split.finalise().to_dict() == whole.finalise().to_dict()

    @pytest.mark.parametrize("name", MACHINES)
    def test_equal_inputs_reach_equal_state(self, name):
        first = _fresh_run(name)
        second = _fresh_run(name)
        assert state(first) == state(second)
        for run in (first, second):
            run.run_slice(TRACE.instructions[:100])
        assert state(first) == state(second)

    @pytest.mark.parametrize("name", MACHINES)
    def test_state_changes_as_the_run_advances(self, name):
        """The oracle is not vacuous: stepping the machine moves its state."""
        run = _fresh_run(name)
        fresh = state(run)
        run.run_slice(TRACE.instructions[:100])
        advanced = state(run)
        assert advanced != fresh
        run.run_slice(TRACE.instructions[100:110])
        assert state(run) != advanced

    @pytest.mark.parametrize("name", MACHINES)
    def test_runs_share_no_mutable_state(self, name):
        """A run neither sees nor disturbs another run of the same trace."""
        first = _fresh_run(name)
        second = _fresh_run(name)
        shared = (
            {id(part) for part in mutable_parts(first)}
            & {id(part) for part in mutable_parts(second)}
        )
        assert not shared
        fresh = state(first)
        second.run_slice(TRACE.instructions)
        assert state(first) == fresh


class TestDispatchTable:
    @pytest.mark.parametrize("name", MACHINES)
    def test_dispatch_covers_the_trace(self, name):
        """Every instruction kind in a real trace has a handler."""
        run = _fresh_run(name)
        if not isinstance(run, StagedMachine):
            pytest.skip("model is not built on the staged kernel")
        for dyn in TRACE.instructions:
            handler = run.DISPATCH.get(dyn.kind, run.DEFAULT_HANDLER)
            assert callable(getattr(run, handler, None)), dyn.kind


class TestMachineConfigResolution:
    def test_every_registered_machine_has_a_default_config(self):
        for name in MACHINES:
            config = machine_config(name)
            assert config.params is not None

    def test_machine_config_resolves_standard_names_too(self):
        assert machine_config("ooo-late").name == "ooo-late"

    def test_unknown_machine_rejected(self):
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            machine_config("warp-drive")


class TestInOrderIntermediate:
    """The registered third machine: in-order issue + renaming."""

    def test_params_round_trip_under_their_own_kind(self):
        from repro.core.machines import params_from_dict, params_to_dict
        from repro.machine.inorder import InOrderParams

        params = InOrderParams(num_phys_vregs=32).with_memory_latency(7)
        payload = json.loads(json.dumps(params_to_dict(params)))
        assert payload["kind"] == "inorder"
        rebuilt = params_from_dict(payload)
        assert type(rebuilt) is InOrderParams
        assert rebuilt == params

    def test_issue_is_in_program_order(self):
        """No instruction may begin execution before an older one."""
        from repro.machine.inorder import _InOrderRun, InOrderParams

        starts = []

        class Probe(_InOrderRun):
            def retire(self, dyn, ctx, result):
                starts.append(result.start)
                super().retire(dyn, ctx, result)

        run = Probe(InOrderParams(), TRACE)
        run.run_slice(TRACE.instructions[:300])
        assert starts == sorted(starts)
        # single issue per cycle: strictly increasing
        assert all(b > a for a, b in zip(starts, starts[1:], strict=False))


class TestMinimalRegisteredMachine:
    """A third-party machine with a minimal params dataclass (no nested
    latency/memory blocks) must survive the engine's serialisation path."""

    @pytest.fixture(scope="class")
    def registered(self):
        from dataclasses import dataclass

        from repro.api import MachineModel, register_machine
        from repro.common.stats import SimStats

        @dataclass(frozen=True)
        class FlatParams:
            cost_per_instruction: int = 2

        class FlatRun:
            def __init__(self, params, trace):
                self.params = params
                self.cycles = 0

            def run_slice(self, instructions):
                for _ in instructions:
                    self.cycles += self.params.cost_per_instruction

            def finalise(self):
                stats = SimStats()
                stats.cycles = self.cycles
                return stats

        model = register_machine(MachineModel(
            name="kernel-test-flat",
            params_type=FlatParams,
            factory=lambda params, trace: FlatRun(params, trace),
        ))
        yield model
        # the registry is process-global; drop the stub so registry-
        # driven tests elsewhere keep seeing only the real machines
        from repro.core import machines as machines_module

        machines_module._REGISTRY.pop("kernel-test-flat", None)

    def test_params_round_trip_without_latency_blocks(self, registered):
        from repro.core.machines import params_from_dict, params_to_dict

        params = registered.params_type(cost_per_instruction=3)
        payload = json.loads(json.dumps(params_to_dict(params)))
        assert payload == {"kind": "kernel-test-flat", "cost_per_instruction": 3}
        assert params_from_dict(payload) == params

    def test_engine_grid_and_store_round_trip(self, registered, tmp_path):
        from repro.api import MachineConfig, RunRequest, Session

        config = MachineConfig("kernel-test-flat", registered.params_type())
        with Session(cache_dir=str(tmp_path)) as session:
            grid = session.run(RunRequest(workloads=("trfd",),
                                          configs=(config,), scale="small"))
            first = grid.get("trfd", config).cycles
        # a second session must read the persisted result back
        with Session(cache_dir=str(tmp_path)) as session:
            again = session.result("trfd", config, scale="small")
            assert again.cycles == first
            assert session.engine.simulated == 0

    def test_corrupt_payload_raises_configuration_error(self, registered):
        from repro.common.errors import ConfigurationError
        from repro.core.machines import params_from_dict

        with pytest.raises(ConfigurationError):
            params_from_dict({"kind": "kernel-test-flat", "no_such_field": 1})


def test_custom_machine_example_runs():
    """The worked third-party registration example must keep working."""
    example = Path(__file__).resolve().parent.parent / "examples" / "custom_machine.py"
    result = subprocess.run(
        [sys.executable, str(example), "dyfesm"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "bit-identical when resumed across two run_slice calls" in result.stdout
