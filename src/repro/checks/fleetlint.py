"""The fleet-protocol pass: lints for the lease-queue coordination code.

The fleet's correctness argument (see :mod:`repro.fleet.queue`) leans on
three disciplines that are easy to erode one edit at a time:

* **key hygiene** — every object key under the queue prefix is built by
  a designated helper method (``_*_key`` / ``_*_prefix`` / ``_*_root``),
  so the bucket layout has exactly one authority.  Inline f-strings that
  splice ``self.prefix`` (or extend a helper's result) anywhere else,
  and hardcoded ``"queue/…"`` literals, are flagged;
* **injected time** — classes that accept a ``clock`` callable (the
  queue's testability seam) must route *every* wall-clock read through
  it.  A raw ``time.time()``/``time.time_ns()``/``time.monotonic()``
  call inside such a class silently escapes the injected clock and
  breaks the simulated-time tests (``time.sleep`` and the ``time.time``
  default-argument reference are fine — they are not clock reads);
* **declared thread state** — attributes a ``threading.Thread`` subclass
  assigns from its ``run`` loop are shared across threads; every one of
  them must be declared in ``__init__`` (or as a class annotation) so
  the sharing is visible at a glance and never racing an ``AttributeError``.

The pass only looks at fleet modules (files with ``fleet`` in their
path); the rest of the tree is covered by the determinism and
ambient-effects families.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.checks.astutil import (
    SourceModule,
    is_fleet_module,
    is_self_attr,
    iter_self_mutations,
    self_arg_name,
)
from repro.checks.model import CheckPass, Finding, register_pass

#: method names allowed to construct queue keys
_KEY_HELPER_RE = re.compile(r"^_\w*_(key|prefix|root)$")

#: ``time`` attributes that read a clock (``sleep`` pauses, it does not read)
_CLOCK_READS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)

_KEY_HINT = (
    "route the key through a LeaseQueue helper method (_*_key/_*_prefix) "
    "so the bucket layout has a single authority"
)
_CLOCK_HINT = (
    "read the injected clock callable (self.clock()) instead, so tests "
    "can drive the protocol on simulated time"
)
_THREAD_HINT = (
    "declare the attribute in __init__ so the cross-thread sharing is "
    "explicit and reads can never race an unbound attribute"
)


def _docstring_nodes(tree: ast.Module) -> set[int]:
    """ids of every docstring constant (module, class and function)."""
    nodes: set[int] = set()
    scopes: list[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    for scope in scopes:
        body = getattr(scope, "body", [])
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            nodes.add(id(body[0].value))
    return nodes


def _is_prefix_read(node: ast.AST, receiver: str) -> bool:
    return is_self_attr(node, receiver) == "prefix"


def _helper_call_in(node: ast.AST, receiver: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            attr = is_self_attr(sub.func, receiver)
            if attr is not None and _KEY_HELPER_RE.match(attr):
                return True
    return False


def _key_constructions(
    method: ast.FunctionDef, receiver: str
) -> Iterator[tuple[int, str]]:
    """Key-building expressions in ``method``: ``(line, what)``."""
    for node in ast.walk(method):
        if isinstance(node, ast.JoinedStr):
            if any(_is_prefix_read(sub, receiver) for sub in ast.walk(node)):
                yield node.lineno, "f-string splicing self.prefix"
            elif _helper_call_in(node, receiver):
                yield node.lineno, "f-string extending a key helper's result"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if any(
                _is_prefix_read(side, receiver)
                for side in (node.left, node.right)
            ):
                yield node.lineno, "string concatenation onto self.prefix"


def _check_key_hygiene(module: SourceModule) -> Iterator[Finding]:
    docstrings = _docstring_nodes(module.tree)
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "queue/" in node.value
            and id(node) not in docstrings
        ):
            yield Finding(
                file=module.display,
                line=node.lineno,
                rule="fleet-protocol",
                message=(
                    f"hardcoded queue-prefix key {node.value!r} bypasses "
                    "the LeaseQueue key helpers"
                ),
                hint=_KEY_HINT,
            )
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name == "__init__" or _KEY_HELPER_RE.match(method.name):
                continue
            receiver = self_arg_name(method)
            if receiver is None:
                continue
            for line, what in _key_constructions(method, receiver):
                yield Finding(
                    file=module.display,
                    line=line,
                    rule="fleet-protocol",
                    message=(
                        f"{cls.name}.{method.name} builds a queue key "
                        f"inline ({what}) outside the designated key "
                        "helpers"
                    ),
                    hint=_KEY_HINT,
                )


def _has_clock_parameter(init: ast.FunctionDef) -> bool:
    args = init.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return "clock" in names


def _check_injected_clock(module: SourceModule) -> Iterator[Finding]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        init = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        if init is None or not _has_clock_parameter(init):
            continue
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _CLOCK_READS
            ):
                yield Finding(
                    file=module.display,
                    line=node.lineno,
                    rule="fleet-protocol",
                    message=(
                        f"{cls.name} takes an injected clock but calls "
                        f"time.{func.attr}() directly"
                    ),
                    hint=_CLOCK_HINT,
                )


def _is_thread_subclass(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = (
            base.id
            if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else ""
        )
        if "Thread" in name:
            return True
    return False


def _check_thread_state(module: SourceModule) -> Iterator[Finding]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef) or not _is_thread_subclass(cls):
            continue
        declared: set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                declared.add(stmt.target.id)
        init = None
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                init = stmt
        if init is not None:
            receiver = self_arg_name(init) or "self"
            for attr, _line, kind in iter_self_mutations(init.body, receiver):
                if kind in ("store", "augmented store"):
                    declared.add(attr)
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method is init:
                continue
            receiver = self_arg_name(method)
            if receiver is None:
                continue
            flagged: set[str] = set()
            for attr, line, kind in iter_self_mutations(method.body, receiver):
                if kind not in ("store", "augmented store"):
                    continue
                if attr in declared or attr in flagged:
                    continue
                flagged.add(attr)
                yield Finding(
                    file=module.display,
                    line=line,
                    rule="fleet-protocol",
                    message=(
                        f"{cls.name}.{method.name} assigns thread-shared "
                        f"state 'self.{attr}' that __init__ never declares"
                    ),
                    hint=_THREAD_HINT,
                )


def check_fleet_protocol(module: SourceModule) -> list[Finding]:
    """Key hygiene, injected-clock discipline and declared thread state."""
    findings: list[Finding] = []
    findings.extend(_check_key_hygiene(module))
    findings.extend(_check_injected_clock(module))
    findings.extend(_check_thread_state(module))
    return findings


register_pass(
    CheckPass(
        rule="fleet-protocol",
        bit=128,
        summary=(
            "fleet queue keys go through LeaseQueue helpers, clock reads "
            "through the injected clock, and thread state is declared"
        ),
        run=check_fleet_protocol,
        wants=is_fleet_module,
    )
)


__all__ = ["check_fleet_protocol"]
