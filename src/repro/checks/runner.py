"""Orchestration: run every registered pass over a path set and report.

:func:`run_checks` is the library API (used by the pytest gate and
``repro.api``); :func:`main` backs both ``repro check`` and
``python -m repro.checks``.

The runner is pass-agnostic: it parses the target files one at a time
(CPython's AST constructor is not thread-safe), hands each
:class:`~repro.checks.model.CheckPass` the files it ``wants``, filters
inline suppressions uniformly, and ORs the exit bits of the families
that fired.  New rule families plug in through
:func:`~repro.checks.model.register_pass` without touching this module.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

# importing the pass modules registers the built-in rule families
import repro.checks.effects  # noqa: F401  (registration side effect)
import repro.checks.fleetlint  # noqa: F401  (registration side effect)
import repro.checks.rules  # noqa: F401  (registration side effect)
from repro.checks.astutil import collect_files, load_module
from repro.checks.model import (
    CheckPass,
    Finding,
    exit_code_for,
    registered_passes,
)
from repro.checks.report import render_json, render_text

#: packages the check passes protect by default: the machine kernel, both
#: timing models, their shared libraries, the ISA, the memory system and
#: the fleet coordination layer
DEFAULT_PATHS: tuple[str, ...] = (
    "src/repro/machine",
    "src/repro/ooo",
    "src/repro/refsim",
    "src/repro/common",
    "src/repro/isa",
    "src/repro/memory",
    "src/repro/fleet",
)

#: exit code for usage errors (bad paths, syntax errors) — deliberately
#: outside the rule-bit space [1, 255), which the families own
USAGE_ERROR = 255


def _default_paths(root: Path) -> list[Path]:
    present = [root / path for path in DEFAULT_PATHS if (root / path).exists()]
    if not present:
        raise FileNotFoundError(
            f"none of the default check paths exist under {root} — "
            "pass explicit paths"
        )
    return present


def run_checks(
    paths: Sequence[str | Path] | None = None,
    *,
    root: str | Path | None = None,
    passes: Sequence[CheckPass] | None = None,
) -> list[Finding]:
    """Run every registered pass over ``paths``; return unsuppressed findings.

    ``paths`` may mix files and directories; when omitted, the default
    simulation-path packages (:data:`DEFAULT_PATHS`) are analyzed
    relative to ``root`` (default: the current working directory).
    ``passes`` overrides the registry (useful for running one family in
    isolation).  Findings carry paths relative to ``root`` when possible.
    Inline ``# check: ignore[rule] reason`` comments on a finding's line
    suppress it; malformed suppressions are themselves findings.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    if paths is None:
        targets = _default_paths(root_path)
    else:
        targets = [Path(p) for p in paths]
    files = collect_files(targets)
    active = tuple(passes) if passes is not None else registered_passes()

    findings: list[Finding] = []
    modules = [load_module(file, root=root_path) for file in files]
    for module in modules:
        for check_pass in active:
            if check_pass.wants(module):
                findings.extend(check_pass.run(module))

    by_display = {module.display: module for module in modules}
    kept: list[Finding] = []
    for finding in findings:
        module = by_display.get(finding.file)
        if module is not None and module.suppressed(finding.rule, finding.line):
            continue
        kept.append(finding)
    for module in modules:
        kept.extend(module.malformed)
    kept.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return kept


def build_parser(prog: str = "repro check") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "statically analyze simulation code: determinism, ambient "
            "effects and fleet protocol rules"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze (default: the simulation-path "
            "packages: " + ", ".join(DEFAULT_PATHS) + ")"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    return parser


def run_and_report(paths: Sequence[str] | None, fmt: str = "text") -> int:
    """Run the checks, print a report, and return the CLI exit code."""
    try:
        findings = run_checks(paths or None)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = render_json(findings) if fmt == "json" else render_text(findings)
    print(report)
    return exit_code_for(findings)


def main(argv: Sequence[str] | None = None, prog: str = "repro check") -> int:
    """CLI entry point; the exit code ORs one bit per rule family that fired."""
    parser = build_parser(prog=prog)
    options = parser.parse_args(argv)
    return run_and_report(options.paths, options.format)
