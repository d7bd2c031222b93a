"""The component-contract rule families enforced by ``repro check``.

Every rule is a pure function from the parsed :class:`Project` (or a
single :class:`SourceModule`) to a list of :class:`Finding`\\ s.  Rules
report findings on the line a suppression comment must sit on; the
runner filters suppressed findings afterwards so suppression behaviour
is uniform across rules.

Each family is wrapped in a :class:`~repro.checks.model.CheckPass` and
registered at the bottom of this module; the kernel-parity,
ambient-effects and fleet-protocol families live in their own modules
(:mod:`repro.checks.parity`, :mod:`repro.checks.effects`,
:mod:`repro.checks.fleetlint`) on the same registry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.astutil import (
    SourceModule,
    is_fleet_module,
    is_self_attr,
    iter_self_calls,
    iter_self_mutations,
    method_is_abstract,
    self_arg_name,
)
from repro.checks.contract import (
    ClassModel,
    Project,
    attribute_report,
    covered_attrs_staged,
    coverage_mentions,
    iter_components,
)
from repro.checks.model import CheckPass, Finding, register_pass

# ---------------------------------------------------------------------------
# state-coverage
# ---------------------------------------------------------------------------

_COVERAGE_HINT = (
    "add the attribute to snapshot/restore/reset (or register it as a "
    "component / snapshot scalar), or suppress with "
    "'# check: ignore[state-coverage] <why it is exempt>' on this line"
)


def check_state_coverage(project: Project) -> list[Finding]:
    """Mutable state must round-trip through snapshot/restore/reset."""
    findings: list[Finding] = []
    for model, staged in iter_components(project):
        report = attribute_report(project, model)
        if staged:
            covered = covered_attrs_staged(project, model)
            mentions = None
        else:
            covered = set()
            mentions = coverage_mentions(project, model)
        for attr, (mut_line, kind) in sorted(report.mutations.items()):
            if staged:
                missing = [] if attr in covered else ["snapshot", "restore", "reset"]
                detail = (
                    "is neither a snapshot scalar nor a registered component"
                )
            else:
                assert mentions is not None
                missing = [
                    name
                    for name in ("snapshot", "restore", "reset")
                    if attr not in mentions[name]
                ]
                detail = f"is missing from {', '.join(missing)}"
            if not missing:
                continue
            line = report.init_lines.get(attr, mut_line)
            findings.append(
                Finding(
                    file=model.file,
                    line=line,
                    rule="state-coverage",
                    message=(
                        f"{model.name}: mutable attribute 'self.{attr}' "
                        f"({kind} at line {mut_line}) {detail}"
                    ),
                    hint=_COVERAGE_HINT,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# snapshot-symmetry
# ---------------------------------------------------------------------------

_SYMMETRY_HINT = (
    "snapshot and restore must agree on the literal key set; rename or "
    "remove the odd key out"
)


def check_snapshot_symmetry(project: Project) -> list[Finding]:
    """Literal snapshot keys must be read back by restore, and vice versa.

    Classes whose snapshot or restore is *dynamic* (dict comprehensions,
    computed keys, iteration over the state mapping — e.g. the derived
    ``StagedMachine`` plumbing) are skipped: symmetry is only decidable
    when both sides use literal keys.
    """
    findings: list[Finding] = []
    for model, staged in iter_components(project):
        if staged:
            continue
        snapshot = model.methods.get("snapshot")
        restore = model.methods.get("restore")
        if snapshot is None or restore is None:
            continue
        if method_is_abstract(snapshot) or method_is_abstract(restore):
            continue
        written = _literal_snapshot_keys(snapshot)
        read = _literal_restore_keys(restore)
        if written is None or read is None:
            continue
        for key in sorted(written - read):
            findings.append(
                Finding(
                    file=model.file,
                    line=snapshot.lineno,
                    rule="snapshot-symmetry",
                    message=(
                        f"{model.name}: snapshot writes key {key!r} "
                        "that restore never reads"
                    ),
                    hint=_SYMMETRY_HINT,
                )
            )
        for key in sorted(read - written):
            findings.append(
                Finding(
                    file=model.file,
                    line=restore.lineno,
                    rule="snapshot-symmetry",
                    message=(
                        f"{model.name}: restore reads key {key!r} "
                        "that snapshot never writes"
                    ),
                    hint=_SYMMETRY_HINT,
                )
            )
    return findings


def _literal_snapshot_keys(method: ast.FunctionDef) -> set[str] | None:
    """Keys of the returned dict, or ``None`` when the shape is dynamic."""
    returns = [
        node for node in ast.walk(method) if isinstance(node, ast.Return)
    ]
    if not returns:
        return None
    keys: set[str] = set()
    returned_names = set()
    for node in returns:
        value = node.value
        if isinstance(value, ast.Dict):
            literal = _dict_literal_keys(value)
            if literal is None:
                return None
            keys.update(literal)
        elif isinstance(value, ast.Name):
            returned_names.add(value.id)
        else:
            return None
    for name in returned_names:
        contributed = _keys_of_local_dict(method, name)
        if contributed is None:
            return None
        keys.update(contributed)
    return keys


def _dict_literal_keys(node: ast.Dict) -> set[str] | None:
    keys: set[str] = set()
    for key in node.keys:
        if key is None:  # ** unpacking
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def _keys_of_local_dict(method: ast.FunctionDef, name: str) -> set[str] | None:
    """Literal keys accumulated into the local ``name`` before return."""
    keys: set[str] = set()
    initialised = False
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    if not isinstance(node.value, ast.Dict):
                        return None
                    literal = _dict_literal_keys(node.value)
                    if literal is None:
                        return None
                    keys.update(literal)
                    initialised = True
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    key = target.slice
                    if not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        return None
                    keys.add(key.value)
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id == name:
                if not isinstance(node.value, ast.Dict):
                    return None
                literal = _dict_literal_keys(node.value)
                if literal is None:
                    return None
                keys.update(literal)
                initialised = True
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == name
                and func.attr in ("update", "setdefault", "pop")
            ):
                return None
    return keys if initialised else None


def _literal_restore_keys(method: ast.FunctionDef) -> set[str] | None:
    """Keys restore reads from its state argument, or ``None`` if dynamic."""
    receiver = self_arg_name(method)
    positional = method.args.posonlyargs + method.args.args
    params = [a.arg for a in positional if a.arg != receiver]
    if not params:
        return None
    state = params[0]
    keys: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Subscript):
            if isinstance(node.value, ast.Name) and node.value.id == state:
                key = node.slice
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                else:
                    return None
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == state
            ):
                if func.attr == "get" and node.args:
                    key = node.args[0]
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
                        continue
                return None
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            if isinstance(iterable, ast.Name) and iterable.id == state:
                return None
    # the bare state name used outside a subscript/get (e.g. handed to a
    # helper wholesale) makes the read set undecidable
    for node in ast.walk(method):
        if isinstance(node, ast.Name) and node.id == state:
            parent_ok = False
            for candidate in ast.walk(method):
                if isinstance(candidate, ast.Subscript) and candidate.value is node:
                    parent_ok = True
                elif (
                    isinstance(candidate, ast.Attribute)
                    and candidate.value is node
                    and candidate.attr == "get"
                ):
                    parent_ok = True
            if not parent_ok:
                return None
    return keys


# ---------------------------------------------------------------------------
# digest-purity
# ---------------------------------------------------------------------------

_PURE_METHODS = ("snapshot", "digest")
_IMPURE_CALLS = frozenset({"restore", "reset"})
_PURITY_HINT = (
    "observation methods feed digests and the differential tests' state "
    "oracle; compute the value without mutating the component"
)


def check_digest_purity(project: Project) -> list[Finding]:
    """snapshot/digest must leave ``self`` untouched."""
    findings: list[Finding] = []
    seen: set[tuple[str, int, str]] = set()
    for model, _staged in iter_components(project):
        for method_name in _PURE_METHODS:
            node = model.methods.get(method_name)
            if node is None or method_is_abstract(node):
                continue
            for finding in _purity_violations(project, model, method_name):
                key = (finding.file, finding.line, finding.message)
                if key not in seen:
                    seen.add(key)
                    findings.append(finding)
    return findings


def _purity_violations(
    project: Project, model: ClassModel, entry: str
) -> Iterator[Finding]:
    visited: set[str] = set()
    queue = [entry]
    while queue:
        name = queue.pop()
        if name in visited:
            continue
        visited.add(name)
        found = project.find_method(model, name)
        if found is None:
            continue
        owner, node = found
        receiver = self_arg_name(node)
        if receiver is None:
            continue
        for attr, line, kind in iter_self_mutations(node.body, receiver):
            yield Finding(
                file=owner.file,
                line=line,
                rule="digest-purity",
                message=(
                    f"{model.name}.{entry} mutates 'self.{attr}' "
                    f"({kind}, reached via {owner.name}.{name})"
                ),
                hint=_PURITY_HINT,
            )
        for called in iter_self_calls(node.body, receiver):
            if called in _IMPURE_CALLS:
                yield Finding(
                    file=owner.file,
                    line=node.lineno,
                    rule="digest-purity",
                    message=(
                        f"{model.name}.{entry} calls mutating method "
                        f"'self.{called}()' (via {owner.name}.{name})"
                    ),
                    hint=_PURITY_HINT,
                )
            else:
                queue.append(called)


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
                    "use repro.machine.component.state_digest for stable digests",
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
        rule="state-coverage",
        bit=1,
        summary="mutable component state must be covered by snapshot/restore/reset",
        scope="project",
        run=check_state_coverage,
    )
)
register_pass(
    CheckPass(
        rule="snapshot-symmetry",
        bit=2,
        summary="snapshot keys and restore reads must mirror each other",
        scope="project",
        run=check_snapshot_symmetry,
    )
)
register_pass(
    CheckPass(
        rule="digest-purity",
        bit=4,
        summary="snapshot/digest must not mutate the component",
        scope="project",
        run=check_digest_purity,
    )
)
register_pass(
    CheckPass(
        rule="determinism",
        bit=8,
        summary=(
            "simulation code must not depend on unordered iteration or "
            "ambient state"
        ),
        scope="module",
        run=check_determinism,
        # the fleet coordinates over wall clocks and process ids by design;
        # its own protocol rules live in the fleet-protocol pass instead
        wants=lambda module: not is_fleet_module(module),
    )
)


__all__ = [
    "check_determinism",
    "check_digest_purity",
    "check_snapshot_symmetry",
    "check_state_coverage",
]
