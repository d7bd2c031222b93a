"""The static analyzer (`repro check`, :mod:`repro.checks`).

Each rule family is exercised against a deliberately broken toy
module, pinned to rule id and line; the whole-repository-clean
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
# rule families, each demonstrated on a seeded-broken module
# ---------------------------------------------------------------------------


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


class TestSuppressions:
    """Inline suppressions, shown on the determinism fixture."""

    def test_suppression_with_reason_silences(self, tmp_path):
        suppressed = SET_ITERATION.replace(
            "for item in self.waiting:",
            "for item in self.waiting:  # check: ignore[determinism] sum is order-free",
            1,
        )
        assert findings_for(tmp_path, suppressed) == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        suppressed = SET_ITERATION.replace(
            "            for item in self.waiting:",
            "            # check: ignore[determinism] sum is order-free\n"
            "            for item in self.waiting:",
            1,
        )
        assert findings_for(tmp_path, suppressed) == []

    def test_suppression_without_reason_is_malformed(self, tmp_path):
        bad = SET_ITERATION.replace(
            "for item in self.waiting:",
            "for item in self.waiting:  # check: ignore[determinism]",
            1,
        )
        findings = findings_for(tmp_path, bad)
        rules = sorted(f.rule for f in findings)
        # the bare suppression does not suppress, and is itself a finding
        assert rules == ["determinism", "malformed-suppression"]

    def test_suppression_with_unknown_rule_is_malformed(self, tmp_path):
        bad = SET_ITERATION.replace(
            "for item in self.waiting:",
            "for item in self.waiting:  # check: ignore[no-such-rule] because",
            1,
        )
        findings = findings_for(tmp_path, bad)
        assert "malformed-suppression" in {f.rule for f in findings}

    def test_suppression_naming_a_deleted_family_is_malformed(self, tmp_path):
        # the snapshot-contract families are gone: a suppression left
        # behind for one of them is reported, never silently honoured
        for rule in ("state-coverage", "snapshot-symmetry", "digest-purity",
                     "kernel-parity"):
            stale = SET_ITERATION.replace(
                "for item in self.waiting:",
                f"for item in self.waiting:  # check: ignore[{rule}] stale",
                1,
            )
            findings = findings_for(tmp_path, stale)
            assert sorted(f.rule for f in findings) == [
                "determinism", "malformed-suppression",
            ], rule
            assert any(rule in f.message for f in findings), rule


# ---------------------------------------------------------------------------
# CLI, report formats, exit-code model
# ---------------------------------------------------------------------------


class TestCli:
    def test_repro_check_verb(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        fixture = write_fixture(tmp_path, SET_ITERATION)
        code = cli_main(["check", str(fixture), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 8
        assert payload["exit_code"] == 8
        assert [f["rule"] for f in payload["findings"]] == ["determinism"]
        assert payload["findings"][0]["line"] == 10

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
        # ambient-effects and fleet-protocol family
        code = checks_main([str(CHECKDATA), "--format", "json"])
        assert code == 64 | 128 == 192
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {
            "ambient-effects", "fleet-protocol"}

    def test_json_report_carries_the_rules_table(self, tmp_path, capsys):
        clean = write_fixture(tmp_path, "x = 1\n")
        assert checks_main([str(clean), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["exit_code"] == 0
        bits = {rule: entry["bit"] for rule, entry in payload["rules"].items()}
        assert bits == {
            "determinism": 8,
            "malformed-suppression": 16,
            "ambient-effects": 64,
            "fleet-protocol": 128,
        }

    def test_exit_code_accumulates_bits(self):
        findings = [
            Finding(file="f", line=1, rule="determinism", message="m"),
            Finding(file="f", line=2, rule="ambient-effects", message="m"),
        ]
        assert exit_code_for(findings) == 72


# ---------------------------------------------------------------------------
# the pass registry
# ---------------------------------------------------------------------------


def _noop_pass(**overrides) -> CheckPass:
    spec = dict(rule="x", bit=32, summary="s", run=lambda module: [])
    spec.update(overrides)
    return CheckPass(**spec)


class TestPassRegistry:
    def test_families_registered_in_bit_order(self):
        passes = registered_passes()
        assert [p.bit for p in passes] == sorted(p.bit for p in passes)
        assert {p.rule: p.bit for p in passes} == {
            "determinism": 8,
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
            register_pass(_noop_pass(bit=64))

    def test_register_rejects_duplicate_rule_ids(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pass(_noop_pass(rule="determinism", bit=8))

    def test_register_is_idempotent_per_identical_pass(self):
        existing = next(
            p for p in registered_passes() if p.rule == "determinism"
        )
        assert register_pass(existing) is existing

    def test_third_party_pass_plugs_in_on_a_free_bit(self, tmp_path):
        from repro.checks import model as check_model

        custom = register_pass(
            _noop_pass(
                rule="no-todo",
                summary="third-party demo pass",
                run=lambda module: [
                    Finding(
                        file=module.display,
                        line=1,
                        rule="no-todo",
                        message="flagged",
                    )
                ],
            )
        )
        try:
            fixture = write_fixture(tmp_path, "x = 1\n")
            findings = run_checks([fixture])
            assert [f.rule for f in findings] == [custom.rule]
            # bit 32 is free for third-party families
            assert exit_code_for(findings) == 32
            # inline suppressions work for third-party rules too
            fixture.write_text(
                "x = 1  # check: ignore[no-todo] demo exemption\n"
            )
            assert run_checks([fixture]) == []
        finally:
            check_model._PASSES.pop("no-todo", None)
            check_model.RULES.pop("no-todo", None)


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
                return machine.finalise()
            """
        assert findings_for(tmp_path, source) == []

    def test_method_entry_points_are_roots(self, tmp_path):
        source = """\
            import uuid

            class Port:
                def run_slice(self, instructions):
                    return self._tag()

                def _tag(self):
                    return uuid.uuid4().hex
            """
        findings = findings_for(tmp_path, source)
        assert [f.rule for f in findings] == ["ambient-effects"]
        assert "Port.run_slice -> Port._tag" in findings[0].message

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
