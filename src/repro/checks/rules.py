"""The determinism rule family enforced by ``repro check``.

A rule is a pure function from one parsed :class:`SourceModule` to a list
of :class:`Finding`\\ s.  Rules report findings on the line a
suppression comment must sit on; the runner filters suppressed findings
afterwards so suppression behaviour is uniform across rules.

The family is wrapped in a :class:`~repro.checks.model.CheckPass` and
registered at the bottom of this module; the ambient-effects and
fleet-protocol families live in their own modules
(:mod:`repro.checks.effects`, :mod:`repro.checks.fleetlint`) on the same
registry.
"""

from __future__ import annotations

import ast

from repro.checks.astutil import SourceModule, is_fleet_module, is_self_attr
from repro.checks.model import CheckPass, Finding, register_pass

# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

_SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "MutableSet"})
_DETERMINISM_HINT = (
    "simulation results must not depend on hash order or ambient state; "
    "sort before iterating, or use an ordered container"
)


def check_determinism(module: SourceModule) -> list[Finding]:
    """No unordered iteration or ambient nondeterminism in simulation code."""
    findings: list[Finding] = []
    set_attrs = _set_annotated_attrs(module.tree)

    def flag(line: int, message: str, hint: str = _DETERMINISM_HINT) -> None:
        findings.append(
            Finding(
                file=module.display,
                line=line,
                rule="determinism",
                message=message,
                hint=hint,
            )
        )

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = (
                [node.module]
                if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
            for name in names:
                top = (name or "").split(".")[0]
                if top in ("random", "time"):
                    flag(
                        node.lineno,
                        f"import of {top!r} in simulation-path code",
                        "simulation must be a pure function of trace and "
                        "parameters; thread explicit seeds/cycle counts instead",
                    )
        elif isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                flag(
                    node.lineno,
                    "os.environ read in simulation-path code",
                    "pass configuration through machine parameters, not the "
                    "process environment",
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            line = node.iter.lineno
            reason = _unordered_reason(node.iter, set_attrs)
            if reason is not None:
                flag(line, f"iteration over {reason}")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "popitem":
                flag(node.lineno, "dict.popitem() removes an arbitrary entry")
            elif isinstance(func, ast.Name) and func.id == "id":
                flag(
                    node.lineno,
                    "id() depends on object allocation addresses",
                )
            elif isinstance(func, ast.Name) and func.id == "hash":
                flag(
                    node.lineno,
                    "builtin hash() is salted per-process (PYTHONHASHSEED)",
                    "hash a canonical encoding with hashlib for stable digests",
                )
            elif (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple", "sum")
                and len(node.args) >= 1
            ):
                reason = _unordered_reason(node.args[0], set_attrs)
                if reason is not None:
                    if func.id == "sum":
                        flag(
                            node.lineno,
                            f"sum() over {reason} (float accumulation is "
                            "order-sensitive)",
                        )
                    else:
                        flag(
                            node.lineno,
                            f"{func.id}() materialises {reason} in hash order",
                        )
    return findings


def _unordered_reason(node: ast.expr, set_attrs: set[str]) -> str | None:
    if isinstance(node, ast.Set):
        return "a set literal (unordered)"
    if isinstance(node, ast.SetComp):
        return "a set comprehension (unordered)"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return f"a {node.func.id}() (unordered)"
    attr = is_self_attr(node)
    if attr is not None and attr in set_attrs:
        return f"set-typed attribute 'self.{attr}' (unordered)"
    return None


def _set_annotated_attrs(tree: ast.Module) -> set[str]:
    """Attribute names annotated as sets anywhere in the module."""
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.AnnAssign):
            continue
        annotation = node.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        name = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        if name not in _SET_TYPES:
            continue
        target = node.target
        attr = is_self_attr(target)
        if attr is not None:
            attrs.add(attr)
        elif isinstance(target, ast.Name):
            attrs.add(target.id)
    return attrs


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

register_pass(
    CheckPass(
        rule="determinism",
        bit=8,
        summary=(
            "simulation code must not depend on unordered iteration or "
            "ambient state"
        ),
        run=check_determinism,
        # the fleet coordinates over wall clocks and process ids by design;
        # its own protocol rules live in the fleet-protocol pass instead
        wants=lambda module: not is_fleet_module(module),
    )
)


__all__ = ["check_determinism"]
