"""AST and token plumbing for the checker: parsing, suppressions, walkers.

Everything here is purely syntactic — target modules are read and parsed
with :mod:`ast`/:mod:`tokenize`, never imported, so the checker can run
against broken or heavyweight code without side effects.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.checks.model import Finding, RULES, Suppression

#: methods whose call on an object mutates it in place
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: free functions that mutate their first (or listed) argument in place
MUTATOR_FUNCTIONS = frozenset(
    {"heappush", "heappop", "heapify", "heapreplace", "heappushpop"}
)

_SUPPRESSION_RE = re.compile(
    r"#\s*check:\s*ignore\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$"
)
_SUPPRESSION_HINT = (
    "write '# check: ignore[<rule-id>] <reason>' with a known rule id "
    "and a non-empty justification"
)


@dataclass
class SourceModule:
    """One parsed source file plus its suppression comments."""

    path: Path
    display: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    malformed: list[Finding] = field(default_factory=list)
    _used: set[int] = field(default_factory=set)

    def suppressed(self, rule: str, line: int) -> bool:
        """True (and marks the comment used) when ``line`` suppresses ``rule``."""
        suppression = self.suppressions.get(line)
        if suppression is not None and suppression.covers(rule):
            self._used.add(line)
            return True
        return False


def _parse_suppressions(
    source: str, display: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    suppressions: dict[int, Suppression] = {}
    malformed: list[Finding] = []
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        return suppressions, malformed
    for token in comments:
        if "check:" not in token.string:
            continue
        line = token.start[0]
        # a comment on its own line suppresses the line below; a trailing
        # comment suppresses its own line
        before = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
        if not before.strip():
            line += 1
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            malformed.append(
                Finding(
                    file=display,
                    line=line,
                    rule="malformed-suppression",
                    message=f"unparseable check comment {token.string.strip()!r}",
                    hint=_SUPPRESSION_HINT,
                )
            )
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        reason = match.group("reason").strip()
        unknown = [rule for rule in rules if rule not in RULES]
        if not rules or unknown:
            named = ", ".join(unknown) if unknown else "<none>"
            malformed.append(
                Finding(
                    file=display,
                    line=line,
                    rule="malformed-suppression",
                    message=f"suppression names unknown rule(s): {named}",
                    hint=_SUPPRESSION_HINT,
                )
            )
            continue
        if not reason:
            malformed.append(
                Finding(
                    file=display,
                    line=line,
                    rule="malformed-suppression",
                    message="suppression has no justification",
                    hint=_SUPPRESSION_HINT,
                )
            )
            continue
        suppressions[line] = Suppression(line=line, rules=rules, reason=reason)
    return suppressions, malformed


def load_module(path: Path, root: Path | None = None) -> SourceModule:
    """Read and parse one file; suppression comments are indexed by line."""
    source = path.read_text(encoding="utf-8")
    display = str(path)
    if root is not None:
        try:
            display = str(path.relative_to(root))
        except ValueError:
            display = str(path)
    tree = ast.parse(source, filename=display)
    suppressions, malformed = _parse_suppressions(source, display)
    return SourceModule(
        path=path, display=display, tree=tree, suppressions=suppressions,
        malformed=malformed,
    )


def is_fleet_module(module: SourceModule) -> bool:
    """True for files of the fleet package (any path part naming 'fleet').

    The fleet's coordination code *legitimately* reads wall clocks and
    process identity (leases expire in wall time, workers self-identify by
    pid); the determinism pass therefore skips these modules and the
    fleet-protocol pass applies its own discipline instead.
    """
    return any("fleet" in part for part in Path(module.display).parts)


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                seen.setdefault(file.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(seen)


# ---------------------------------------------------------------------------
# self.<attr> access analysis
# ---------------------------------------------------------------------------


def is_self_attr(node: ast.AST, self_name: str = "self") -> str | None:
    """``self.X`` -> ``"X"``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def root_self_attr(node: ast.AST, self_name: str = "self") -> str | None:
    """The ``X`` of any ``self.X``, ``self.X.Y…`` or ``self.X[...]…`` chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        attr = is_self_attr(node, self_name)
        if attr is not None:
            return attr
        node = node.value
    return None


def iter_self_mutations(
    body: Iterable[ast.stmt], self_name: str = "self"
) -> Iterator[tuple[str, int, str]]:
    """Yield ``(attr, line, kind)`` for every mutation of ``self.<attr>``.

    Detected mutation kinds: direct stores (``self.x = …``, including
    augmented, annotated, ``for`` targets and ``with … as`` bindings),
    nested stores (``self.x.y = …``, ``self.x[k] = …``), deletions,
    in-place mutator method calls (``self.x.append(…)``) and mutating
    free functions (``heappush(self.x, …)``).
    """
    for node in _walk_body(body):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue  # a bare annotation declares, it does not store
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for element in _iter_store_targets(target):
                    attr = is_self_attr(element, self_name)
                    if attr is not None:
                        kind = "store" if not isinstance(node, ast.AugAssign) else "augmented store"
                        yield attr, element.lineno, kind
                        continue
                    root = root_self_attr(element, self_name)
                    if root is not None:
                        yield root, element.lineno, "nested store"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = root_self_attr(target, self_name)
                if root is not None:
                    yield root, target.lineno, "deletion"
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for element in _iter_store_targets(node.target):
                root = root_self_attr(element, self_name)
                if root is not None:
                    yield root, element.lineno, "loop-target store"
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is None:
                    continue
                for element in _iter_store_targets(item.optional_vars):
                    root = root_self_attr(element, self_name)
                    if root is not None:
                        yield root, element.lineno, "context-manager store"
        elif isinstance(node, ast.Call):
            yield from _call_mutations(node, self_name)


def _call_mutations(
    node: ast.Call, self_name: str
) -> Iterator[tuple[str, int, str]]:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
        root = root_self_attr(func.value, self_name)
        if root is not None:
            yield root, node.lineno, f".{func.attr}() call"
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name in MUTATOR_FUNCTIONS:
        for arg in node.args:
            root = root_self_attr(arg, self_name)
            if root is not None:
                yield root, node.lineno, f"{name}() call"
                break


def _iter_store_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _iter_store_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _iter_store_targets(target.value)
    else:
        yield target


def _walk_body(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    for stmt in body:
        yield from ast.walk(stmt)


def self_arg_name(node: ast.FunctionDef) -> str | None:
    """The receiver argument name of an instance method (``None`` if static)."""
    for decorator in node.decorator_list:
        name = decorator.id if isinstance(decorator, ast.Name) else (
            decorator.attr if isinstance(decorator, ast.Attribute) else None
        )
        if name == "staticmethod":
            return None
    if node.args.posonlyargs:
        return node.args.posonlyargs[0].arg
    if node.args.args:
        return node.args.args[0].arg
    return None
