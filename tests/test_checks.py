"""The static analyzer (`repro check`, :mod:`repro.checks`).

Each rule family is exercised against a deliberately broken toy
component, pinned to rule id and line; the whole-repository-clean
assertion at the end is the tier-1 gate the CI ``check`` job mirrors.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.checks import (
    DEFAULT_PATHS,
    USAGE_ERROR,
    CheckPass,
    Finding,
    exit_code_for,
    register_pass,
    registered_passes,
    run_checks,
)
from repro.checks.runner import main as checks_main

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKDATA = REPO_ROOT / "tests" / "checkdata"


def write_fixture(tmp_path, source: str) -> Path:
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    return path


def findings_for(tmp_path, source: str) -> list[Finding]:
    return run_checks([write_fixture(tmp_path, source)])


# ---------------------------------------------------------------------------
# rule families, each demonstrated on a seeded-broken component
# ---------------------------------------------------------------------------


MISSING_STATE = """\
    class Counter:
        def __init__(self):
            self.ticks = 0
            self.drops = 0

        def bump(self):
            self.ticks += 1
            self.drops += 1

        def snapshot(self):
            return {"ticks": self.ticks}

        def restore(self, state):
            self.ticks = state["ticks"]

        def reset(self):
            self.ticks = 0
    """


class TestStateCoverage:
    def test_missing_snapshot_key_is_flagged(self, tmp_path):
        findings = findings_for(tmp_path, MISSING_STATE)
        assert [f.rule for f in findings] == ["state-coverage"]
        finding = findings[0]
        # reported on the __init__ assignment of the drifting attribute
        assert finding.line == 4
        assert "self.drops" in finding.message
        assert "snapshot" in finding.message
        assert finding.hint

    def test_covered_attribute_is_clean(self, tmp_path):
        covered = """\
            class Counter:
                def __init__(self):
                    self.ticks = 0
                    self.drops = 0

                def bump(self):
                    self.ticks += 1
                    self.drops += 1

                def snapshot(self):
                    return {"ticks": self.ticks, "drops": self.drops}

                def restore(self, state):
                    self.ticks = state["ticks"]
                    self.drops = state["drops"]

                def reset(self):
                    self.ticks = 0
                    self.drops = 0
            """
        assert findings_for(tmp_path, covered) == []

    def test_helper_closure_counts_as_coverage(self, tmp_path):
        # snapshot/restore/reset delegating through a self-method still
        # covers the attributes the helper touches (all_tables() pattern)
        delegating = """\
            class Tables:
                def __init__(self):
                    self.left = []
                    self.right = []

                def grow(self):
                    self.left.append(1)
                    self.right.append(2)

                def all_tables(self):
                    return (self.left, self.right)

                def snapshot(self):
                    return {"tables": [list(t) for t in self.all_tables()]}

                def restore(self, state):
                    for table, stored in zip(self.all_tables(), state["tables"]):
                        table[:] = stored

                def reset(self):
                    for table in self.all_tables():
                        table[:] = []
            """
        assert findings_for(tmp_path, delegating) == []

    def test_exit_code_bit(self, tmp_path):
        fixture = write_fixture(tmp_path, MISSING_STATE)
        assert checks_main([str(fixture)]) == 1

    def test_suppression_with_reason_silences(self, tmp_path):
        suppressed = MISSING_STATE.replace(
            "self.drops = 0",
            "self.drops = 0  # check: ignore[state-coverage] scratch tally, never read",
            1,
        )
        assert findings_for(tmp_path, suppressed) == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        suppressed = MISSING_STATE.replace(
            "        self.drops = 0",
            "        # check: ignore[state-coverage] scratch tally, never read\n"
            "            self.drops = 0",
            1,
        )
        assert findings_for(tmp_path, suppressed) == []

    def test_suppression_without_reason_is_malformed(self, tmp_path):
        bad = MISSING_STATE.replace(
            "self.drops = 0",
            "self.drops = 0  # check: ignore[state-coverage]",
            1,
        )
        findings = findings_for(tmp_path, bad)
        rules = sorted(f.rule for f in findings)
        # the bare suppression does not suppress, and is itself a finding
        assert rules == ["malformed-suppression", "state-coverage"]

    def test_suppression_with_unknown_rule_is_malformed(self, tmp_path):
        bad = MISSING_STATE.replace(
            "self.drops = 0",
            "self.drops = 0  # check: ignore[no-such-rule] because",
            1,
        )
        findings = findings_for(tmp_path, bad)
        assert "malformed-suppression" in {f.rule for f in findings}


ASYMMETRIC = """\
    class Pipe:
        def __init__(self):
            self.depth = 0
            self.width = 0

        def stretch(self):
            self.depth += 1
            self.width += 1

        def snapshot(self):
            return {"depth": self.depth, "width": self.width}

        def restore(self, state):
            self.depth = state["depth"]
            self.width = state["breadth"]

        def reset(self):
            self.depth = 0
            self.width = 0
    """


class TestSnapshotSymmetry:
    def test_key_mismatch_is_flagged_both_ways(self, tmp_path):
        findings = findings_for(tmp_path, ASYMMETRIC)
        symmetry = [f for f in findings if f.rule == "snapshot-symmetry"]
        messages = sorted(f.message for f in symmetry)
        assert len(symmetry) == 2
        assert "snapshot writes key 'width'" in messages[1]
        assert "restore reads key 'breadth'" in messages[0]
        # anchored on the snapshot / restore definitions
        assert {f.line for f in symmetry} == {10, 13}

    def test_exit_code_bit(self, tmp_path):
        fixture = write_fixture(tmp_path, ASYMMETRIC)
        assert checks_main([str(fixture)]) == 2

    def test_dynamic_snapshot_is_skipped(self, tmp_path):
        dynamic = """\
            class Bag:
                def __init__(self):
                    self.items = {}

                def put(self, key, value):
                    self.items[key] = value

                def snapshot(self):
                    return {key: value for key, value in sorted(self.items.items())}

                def restore(self, state):
                    self.items = dict(state)

                def reset(self):
                    self.items = {}
            """
        assert findings_for(tmp_path, dynamic) == []


MUTATING_DIGEST = """\
    class Table:
        def __init__(self):
            self.entries = []
            self.digests = 0

        def push(self, item):
            self.entries.append(item)

        def snapshot(self):
            return {"entries": list(self.entries), "digests": self.digests}

        def restore(self, state):
            self.entries = list(state["entries"])
            self.digests = int(state["digests"])

        def reset(self):
            self.entries = []
            self.digests = 0

        def digest(self):
            self.digests += 1
            return str(self.snapshot())
    """


class TestDigestPurity:
    def test_mutating_digest_is_flagged(self, tmp_path):
        findings = findings_for(tmp_path, MUTATING_DIGEST)
        assert [f.rule for f in findings] == ["digest-purity"]
        finding = findings[0]
        assert finding.line == 21
        assert "Table.digest" in finding.message
        assert "self.digests" in finding.message

    def test_digest_calling_restore_is_flagged(self, tmp_path):
        source = """\
            class Clock:
                def __init__(self):
                    self.now = 0

                def tick(self):
                    self.now += 1

                def snapshot(self):
                    return {"now": self.now}

                def restore(self, state):
                    self.now = state["now"]

                def reset(self):
                    self.now = 0

                def digest(self):
                    self.restore(self.snapshot())
                    return str(self.now)
            """
        findings = findings_for(tmp_path, source)
        assert [f.rule for f in findings] == ["digest-purity"]
        assert "self.restore()" in findings[0].message

    def test_exit_code_bit(self, tmp_path):
        fixture = write_fixture(tmp_path, MUTATING_DIGEST)
        assert checks_main([str(fixture)]) == 4


SET_ITERATION = """\
    class Scheduler:
        def __init__(self):
            self.waiting: set[int] = set()

        def admit(self, item):
            self.waiting.add(item)

        def step(self):
            total = 0
            for item in self.waiting:
                total += item
            return total

        def snapshot(self):
            return {"waiting": sorted(self.waiting)}

        def restore(self, state):
            self.waiting = set(state["waiting"])

        def reset(self):
            self.waiting = set()
    """


class TestDeterminism:
    def test_set_iteration_in_step_method(self, tmp_path):
        findings = findings_for(tmp_path, SET_ITERATION)
        assert [f.rule for f in findings] == ["determinism"]
        finding = findings[0]
        assert finding.line == 10
        assert "self.waiting" in finding.message

    def test_sorted_iteration_is_clean(self, tmp_path):
        fixed = SET_ITERATION.replace(
            "for item in self.waiting:", "for item in sorted(self.waiting):"
        )
        assert findings_for(tmp_path, fixed) == []

    def test_exit_code_bit(self, tmp_path):
        fixture = write_fixture(tmp_path, SET_ITERATION)
        assert checks_main([str(fixture)]) == 8

    def test_ambient_state_lints(self, tmp_path):
        source = """\
            import os
            import random

            def seed():
                key = os.environ.get("SEED", "0")
                return id(key) + hash(key) + random.random()

            def drain(table):
                return table.popitem()

            def total(values: set):
                return sum({1.0, 2.0})
            """
        findings = findings_for(tmp_path, source)
        assert all(f.rule == "determinism" for f in findings)
        text = "\n".join(f.message for f in findings)
        for marker in ("random", "os.environ", "popitem", "id()", "hash()", "sum()"):
            assert marker in text, f"expected a finding mentioning {marker}"


# ---------------------------------------------------------------------------
# CLI, report formats, exit-code model
# ---------------------------------------------------------------------------


class TestCli:
    def test_repro_check_verb(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        fixture = write_fixture(tmp_path, MISSING_STATE)
        code = cli_main(["check", str(fixture), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["state-coverage"]
        assert payload["findings"][0]["line"] == 4

    def test_module_entry_point_clean_run(self, tmp_path, capsys):
        clean = write_fixture(tmp_path, "x = 1\n")
        assert checks_main([str(clean)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        # 255: outside the rule-bit space the families own (1..128)
        assert checks_main([str(tmp_path / "nope.py")]) == USAGE_ERROR
        assert USAGE_ERROR == 255

    def test_seeded_corpus_exit_code(self, capsys):
        # the same number CI's seeded-corpus step asserts: one fixture per
        # kernel-parity, ambient-effects and fleet-protocol family
        code = checks_main([str(CHECKDATA), "--format", "json"])
        assert code == 32 | 64 | 128 == 224
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {
            "kernel-parity", "ambient-effects", "fleet-protocol"}

    def test_json_report_carries_the_rules_table(self, tmp_path, capsys):
        clean = write_fixture(tmp_path, "x = 1\n")
        assert checks_main([str(clean), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["exit_code"] == 0
        bits = {rule: entry["bit"] for rule, entry in payload["rules"].items()}
        assert bits == {
            "state-coverage": 1,
            "snapshot-symmetry": 2,
            "digest-purity": 4,
            "determinism": 8,
            "malformed-suppression": 16,
            "kernel-parity": 32,
            "ambient-effects": 64,
            "fleet-protocol": 128,
        }

    def test_exit_code_accumulates_bits(self):
        findings = [
            Finding(file="f", line=1, rule="state-coverage", message="m"),
            Finding(file="f", line=2, rule="digest-purity", message="m"),
        ]
        assert exit_code_for(findings) == 5


# ---------------------------------------------------------------------------
# the pass registry
# ---------------------------------------------------------------------------


def _noop_pass(**overrides) -> CheckPass:
    spec = dict(
        rule="x", bit=32, summary="s", scope="module", run=lambda module: []
    )
    spec.update(overrides)
    return CheckPass(**spec)


class TestPassRegistry:
    def test_families_registered_in_bit_order(self):
        passes = registered_passes()
        assert [p.bit for p in passes] == sorted(p.bit for p in passes)
        assert {p.rule: p.bit for p in passes} == {
            "state-coverage": 1,
            "snapshot-symmetry": 2,
            "digest-purity": 4,
            "determinism": 8,
            "kernel-parity": 32,
            "ambient-effects": 64,
            "fleet-protocol": 128,
        }

    def test_register_rejects_multi_bit_codes(self):
        with pytest.raises(ValueError, match="not a single bit"):
            register_pass(_noop_pass(bit=3))

    def test_register_rejects_bits_beyond_the_exit_code(self):
        with pytest.raises(ValueError, match="exceeds"):
            register_pass(_noop_pass(bit=256))

    def test_register_rejects_allocated_bits(self):
        with pytest.raises(ValueError, match="collides"):
            register_pass(_noop_pass(bit=32))

    def test_register_rejects_duplicate_rule_ids(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pass(_noop_pass(rule="determinism", bit=8))

    def test_register_is_idempotent_per_identical_pass(self):
        existing = next(
            p for p in registered_passes() if p.rule == "determinism"
        )
        assert register_pass(existing) is existing

    def test_unknown_scope_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="scope"):
            _noop_pass(scope="file")

    def test_third_party_pass_plugs_in_with_a_shared_bit(self, tmp_path):
        from repro.checks import model as check_model

        custom = register_pass(
            _noop_pass(
                rule="no-todo",
                bit=64,
                summary="third-party demo pass",
                run=lambda module: [
                    Finding(
                        file=module.display,
                        line=1,
                        rule="no-todo",
                        message="flagged",
                    )
                ],
                shares_bit=True,
            )
        )
        try:
            fixture = write_fixture(tmp_path, "x = 1\n")
            findings = run_checks([fixture])
            assert [f.rule for f in findings] == [custom.rule]
            # piggybacks on the ambient-effects bit
            assert exit_code_for(findings) == 64
            # inline suppressions work for third-party rules too
            fixture.write_text(
                "x = 1  # check: ignore[no-todo] demo exemption\n"
            )
            assert run_checks([fixture]) == []
        finally:
            check_model._PASSES.pop("no-todo", None)
            check_model.RULES.pop("no-todo", None)


# ---------------------------------------------------------------------------
# kernel-parity: scalar DISPATCH vs batched segment branches
# ---------------------------------------------------------------------------

#: the modules that define the three real machine/stepper pairings (plus
#: the InstrKind enum and K_* kind codes they share)
KERNEL_SOURCES = (
    "src/repro/isa/opcodes.py",
    "src/repro/machine/batched.py",
    "src/repro/refsim/machine.py",
    "src/repro/refsim/batched.py",
)


def parity_pass() -> CheckPass:
    return next(p for p in registered_passes() if p.rule == "kernel-parity")


def copy_kernel_sources(tmp_path, mutate=None) -> list[Path]:
    copies = []
    for rel in KERNEL_SOURCES:
        source = (REPO_ROOT / rel).read_text()
        if mutate is not None:
            source = mutate(rel, source)
        dest = tmp_path / rel.replace("/", "_")
        dest.write_text(source)
        copies.append(dest)
    return copies


class TestKernelParity:
    def test_fires_on_seeded_fixture(self):
        findings = run_checks([CHECKDATA / "parity_drift.py"], root=REPO_ROOT)
        assert [f.rule for f in findings] == ["kernel-parity"]
        assert "InstrKind.VECTOR_LOAD" in findings[0].message
        assert "kc == K_VECTOR_LOAD" in findings[0].message
        assert exit_code_for(findings) == 32

    def test_exit_code_bit(self):
        assert checks_main([str(CHECKDATA / "parity_drift.py")]) == 32

    def test_real_kernels_prove_dispatch_coverage(self):
        from repro.checks.astutil import collect_files, load_module
        from repro.checks.contract import Project
        from repro.checks.parity import stepper_bindings

        roots = ("src/repro/isa", "src/repro/machine", "src/repro/ooo",
                 "src/repro/refsim")
        files = collect_files([REPO_ROOT / path for path in roots])
        modules = [load_module(file, root=REPO_ROOT) for file in files]
        bindings = {
            b.machine: b for b in stepper_bindings(Project.build(modules))
        }
        assert set(bindings) == {"_OOORun", "_InOrderRun", "_ReferenceRun"}
        for binding in bindings.values():
            assert binding.dispatch is not None, binding.machine
            assert binding.dispatch.handlers, binding.machine
            missing = set(binding.dispatch.handlers) - set(
                binding.coverage.kinds
            )
            assert not missing, (binding.machine, missing)
            assert binding.coverage.has_default, binding.machine
            assert not binding.coverage.unresolved, binding.machine

    def test_removing_a_stepper_branch_is_caught(self, tmp_path):
        # the acceptance scenario: delete the batched kernel's K_BRANCH
        # arm and the pass must pin the uncovered DISPATCH entry
        def drop_branch_arm(rel: str, source: str) -> str:
            if rel.endswith("refsim/batched.py"):
                assert "kc == K_BRANCH" in source
                return source.replace("kc == K_BRANCH", "False")
            return source

        mutated = copy_kernel_sources(tmp_path, mutate=drop_branch_arm)
        findings = run_checks(mutated, passes=[parity_pass()])
        assert findings, "removed branch went undetected"
        assert all(f.rule == "kernel-parity" for f in findings)
        assert any(
            "InstrKind.BRANCH" in f.message and "_step_reference" in f.message
            for f in findings
        ), [f.message for f in findings]
        assert exit_code_for(findings) == 32

    def test_unmutated_kernels_are_clean(self, tmp_path):
        copies = copy_kernel_sources(tmp_path)
        assert run_checks(copies, passes=[parity_pass()]) == []


# ---------------------------------------------------------------------------
# ambient-effects: transitive purity of simulation entry points
# ---------------------------------------------------------------------------


class TestAmbientEffects:
    def test_fires_on_seeded_fixture(self):
        findings = run_checks([CHECKDATA / "effects_leak.py"], root=REPO_ROOT)
        assert {f.rule for f in findings} == {"ambient-effects"}
        assert len(findings) == 2
        messages = sorted(f.message for f in findings)
        assert "os.getpid()" in messages[0]
        assert "uuid.uuid4()" in messages[1]
        for message in messages:
            # findings carry the full call path from the entry point
            assert "run_slice -> _trace_label -> _worker_identity" in message
        assert exit_code_for(findings) == 64

    def test_exit_code_bit(self):
        assert checks_main([str(CHECKDATA / "effects_leak.py")]) == 64

    def test_unreachable_effect_is_clean(self, tmp_path):
        source = """\
            import uuid

            def fresh_name():
                return uuid.uuid4().hex

            def run_slice(machine, budget):
                for _ in range(budget):
                    machine.step()
                return machine.digest()
            """
        assert findings_for(tmp_path, source) == []

    def test_method_entry_points_are_roots(self, tmp_path):
        source = """\
            import uuid

            class Port:
                def digest(self):
                    return self._tag()

                def _tag(self):
                    return uuid.uuid4().hex
            """
        findings = findings_for(tmp_path, source)
        assert [f.rule for f in findings] == ["ambient-effects"]
        assert "Port.digest -> Port._tag" in findings[0].message

    def test_suppression_with_reason_silences(self, tmp_path):
        source = """\
            import uuid

            def run_slice(machine):
                # check: ignore[ambient-effects] trace tag is diagnostic-only
                return uuid.uuid4().hex
            """
        assert findings_for(tmp_path, source) == []


# ---------------------------------------------------------------------------
# fleet-protocol: lease-queue coordination lints
# ---------------------------------------------------------------------------


class TestFleetProtocol:
    def test_fires_on_seeded_fixture(self):
        findings = run_checks(
            [CHECKDATA / "fleet_bad_queue.py"], root=REPO_ROOT
        )
        assert [f.rule for f in findings] == ["fleet-protocol"] * 4
        text = "\n".join(f.message for f in findings)
        assert "hardcoded queue-prefix key" in text
        assert "f-string splicing self.prefix" in text
        assert "calls time.time() directly" in text
        assert "thread-shared state 'self.beats'" in text
        assert exit_code_for(findings) == 128

    def test_exit_code_bit(self):
        assert checks_main([str(CHECKDATA / "fleet_bad_queue.py")]) == 128

    def test_scope_is_path_based(self, tmp_path):
        # the same defects outside the fleet tree: fleet-protocol stays
        # silent and the determinism family owns the terrain instead
        # (tmp_path inherits the test name, so "fleet" must not appear in it)
        copy = tmp_path / "plain_queue.py"
        copy.write_text((CHECKDATA / "fleet_bad_queue.py").read_text())
        rules = {f.rule for f in run_checks([copy])}
        assert "fleet-protocol" not in rules
        assert "determinism" in rules

    def test_key_helpers_and_injected_clock_are_clean(self, tmp_path):
        source = """\
            class Queue:
                def __init__(self, store, prefix, clock):
                    self.store = store
                    self.prefix = prefix
                    self.clock = clock

                def _task_key(self, task_id):
                    return f"{self.prefix}/tasks/{task_id}.json"

                def put(self, task_id, payload):
                    now = self.clock()
                    self.store.put(self._task_key(task_id), payload)
                    return now
            """
        path = tmp_path / "fleet_fixture.py"
        path.write_text(textwrap.dedent(source))
        assert run_checks([path]) == []


# ---------------------------------------------------------------------------
# the repository itself is clean
# ---------------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_default_paths_exist(self):
        for path in DEFAULT_PATHS:
            assert (REPO_ROOT / path).is_dir(), path

    def test_simulation_packages_are_clean(self):
        findings = run_checks(root=REPO_ROOT)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"repo has check findings:\n{rendered}"

    def test_examples_are_clean(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert examples, "examples directory is empty"
        findings = run_checks(examples, root=REPO_ROOT)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"examples have check findings:\n{rendered}"
