"""The ambient-effects pass: transitive purity of simulation entry points.

The determinism rule family flags ambient *sources* (``import time``,
``os.environ``, …) wherever they appear.  This pass generalizes it along
the call graph: simulation-critical entry points — ``run_slice``, the
result fingerprint, and any function registered as a batched stepper —
must not *reach* an ambient effect through any chain of same-module
calls, even when the effect lives in an innocuously named helper three
hops away.

Detected effect classes:

* **wall clock** — ``time.time``/``monotonic``/``perf_counter``/…,
  ``datetime`` ``now``/``utcnow``/``today``;
* **randomness** — the ``random`` module (attribute calls or names
  imported from it), ``os.urandom``, ``uuid.uuid*``;
* **process identity** — ``os.getpid``/``getppid``/``uname``,
  ``platform.node``, ``socket.gethostname``;
* **environment** — ``os.environ`` access, ``os.getenv``;
* **filesystem** — builtin ``open``, ``os.listdir``/``scandir``/``stat``,
  ``tempfile`` factories.

The call graph is per module (the checker never imports code, so
cross-module calls are out of reach): module-level functions resolve by
name, ``self.<method>()`` calls resolve within the defining class.
Findings carry the full call path from the entry point to the effect
site, so the fix — thread the value through parameters — is obvious.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.checks.astutil import SourceModule, is_self_attr, self_arg_name
from repro.checks.model import CheckPass, Finding, register_pass

#: def names treated as simulation-critical roots wherever they appear
ENTRY_POINTS = frozenset({"run_slice", "run_slice_batched", "fingerprint"})

_TIME_READS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
        "strftime",
    }
)
_DATETIME_READS = frozenset({"now", "utcnow", "today"})
_OS_IDENTITY = frozenset({"getpid", "getppid", "uname", "urandom"})
_OS_FILESYSTEM = frozenset({"listdir", "scandir", "stat"})
_UUID_CALLS = frozenset({"uuid1", "uuid3", "uuid4", "uuid5", "getnode"})
_TEMPFILE_CALLS = frozenset(
    {"mkstemp", "mkdtemp", "mktemp", "NamedTemporaryFile", "TemporaryFile",
     "TemporaryDirectory"}
)

_EFFECTS_HINT = (
    "simulation-critical code must be a pure function of its inputs; "
    "thread the value in as a parameter (like LeaseQueue's injected "
    "clock) or hoist the effect out of the entry point's call graph"
)


@dataclass(frozen=True)
class _Node:
    """One function in the module call graph (``cls`` empty at top level)."""

    cls: str
    name: str

    def label(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


def _random_imports(tree: ast.Module) -> set[str]:
    """Local names bound by ``from random import …``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _registered_stepper_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        call_name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if call_name == "register_stepper" and len(node.args) >= 2:
            fn_arg = node.args[1]
            if isinstance(fn_arg, ast.Name):
                names.add(fn_arg.id)
    return names


def _effects_in(
    fn: ast.FunctionDef, random_names: set[str]
) -> Iterator[tuple[int, str]]:
    """``(line, description)`` for every ambient effect in ``fn``'s body."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield node.lineno, "os.environ access"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                yield node.lineno, "builtin open() filesystem access"
            elif func.id in random_names:
                yield node.lineno, f"random.{func.id}() call"
            continue
        if not isinstance(func, ast.Attribute):
            continue
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None
        if base_name == "time" and func.attr in _TIME_READS:
            yield node.lineno, f"wall-clock read time.{func.attr}()"
        elif base_name == "random":
            yield node.lineno, f"random.{func.attr}() call"
        elif base_name == "os" and func.attr in _OS_IDENTITY:
            yield node.lineno, f"os.{func.attr}() call"
        elif base_name == "os" and func.attr in _OS_FILESYSTEM:
            yield node.lineno, f"os.{func.attr}() filesystem access"
        elif base_name == "os" and func.attr == "getenv":
            yield node.lineno, "os.getenv() environment read"
        elif base_name == "uuid" and func.attr in _UUID_CALLS:
            yield node.lineno, f"uuid.{func.attr}() call"
        elif base_name == "tempfile" and func.attr in _TEMPFILE_CALLS:
            yield node.lineno, f"tempfile.{func.attr}() filesystem access"
        elif base_name == "platform" and func.attr == "node":
            yield node.lineno, "platform.node() host identity read"
        elif base_name == "socket" and func.attr == "gethostname":
            yield node.lineno, "socket.gethostname() host identity read"
        elif func.attr in _DATETIME_READS and base_name in (
            "datetime", "date", "dt"
        ):
            yield node.lineno, f"{base_name}.{func.attr}() wall-clock read"


def _collect_graph(
    tree: ast.Module,
) -> tuple[dict[_Node, ast.FunctionDef], dict[_Node, list[_Node]]]:
    functions: dict[_Node, ast.FunctionDef] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            functions[_Node("", stmt.name)] = stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    functions[_Node(stmt.name, sub.name)] = sub

    module_level = {node.name for node in functions if not node.cls}
    edges: dict[_Node, list[_Node]] = {}
    for node, fn in functions.items():
        receiver = self_arg_name(fn) if node.cls else None
        callees: list[_Node] = []
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Name) and func.id in module_level:
                callees.append(_Node("", func.id))
            elif receiver is not None:
                attr = is_self_attr(func, receiver)
                if attr is not None and _Node(node.cls, attr) in functions:
                    callees.append(_Node(node.cls, attr))
        edges[node] = callees
    return functions, edges


def check_ambient_effects(module: SourceModule) -> list[Finding]:
    """No ambient effect may be reachable from a simulation entry point."""
    functions, edges = _collect_graph(module.tree)
    random_names = _random_imports(module.tree)
    entries = ENTRY_POINTS | _registered_stepper_names(module.tree)

    findings: list[Finding] = []
    reported: set[tuple[int, str]] = set()
    roots = sorted(
        (node for node in functions if node.name in entries),
        key=lambda node: (node.cls, node.name),
    )
    for root in roots:
        paths: dict[_Node, tuple[str, ...]] = {root: (root.label(),)}
        queue = [root]
        while queue:
            current = queue.pop(0)
            path = paths[current]
            for line, effect in _effects_in(functions[current], random_names):
                key = (line, effect)
                if key in reported:
                    continue
                reported.add(key)
                chain = " -> ".join(path)
                findings.append(
                    Finding(
                        file=module.display,
                        line=line,
                        rule="ambient-effects",
                        message=(
                            f"{effect} is reachable from simulation entry "
                            f"point '{root.label()}' (via {chain})"
                        ),
                        hint=_EFFECTS_HINT,
                    )
                )
            for callee in edges[current]:
                if callee not in paths:
                    paths[callee] = path + (callee.label(),)
                    queue.append(callee)
    return findings


register_pass(
    CheckPass(
        rule="ambient-effects",
        bit=64,
        summary=(
            "no wall-clock, randomness, identity, environment or filesystem "
            "access reachable from simulation entry points"
        ),
        run=check_ambient_effects,
    )
)


__all__ = ["ENTRY_POINTS", "check_ambient_effects"]
