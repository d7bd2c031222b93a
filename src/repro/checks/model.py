"""Finding, rule and pass model shared by the check passes, runner and reports.

Each rule family owns one bit of the process exit code, so CI (and
scripts) can tell *which* families fired from the status alone:
``exit 72`` means determinism plus ambient-effects findings, and
``exit 0`` means the analyzed tree is clean.  (Usage errors — unreadable
paths, syntax errors — exit 255, outside the rule-bit space.)

Rule families are **pluggable**: each one is a :class:`CheckPass`
registered through :func:`register_pass`, mirroring how machine models
plug into :func:`repro.api.register_machine`.  The built-in passes
register themselves when :mod:`repro.checks` is imported; third-party
code registers its own the same way and ``repro check`` picks it up
with no runner changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.checks.astutil import SourceModule

#: rule id -> (exit-code bit, one-line description).  Live registry view:
#: seeded with the runner-owned suppression-hygiene rule, extended by
#: every :func:`register_pass` call.
RULES: dict[str, tuple[int, str]] = {
    "malformed-suppression": (
        16,
        "check suppression comments must name a known rule and give a reason",
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source line.

    ``hint`` is the actionable half: what to change (or how to suppress
    with a justification) to make the finding go away.
    """

    file: str
    line: int
    rule: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# check: ignore[rule, ...] reason`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str

    def covers(self, rule: str) -> bool:
        return rule in self.rules


def exit_code_for(findings: Iterable[Finding]) -> int:
    """Bitwise OR of the exit bits of every rule family that fired."""
    code = 0
    for finding in findings:
        bit, _ = RULES.get(finding.rule, (0, ""))
        code |= bit
    return code


# ---------------------------------------------------------------------------
# the pass registry
# ---------------------------------------------------------------------------


def _every_module(module: "SourceModule") -> bool:
    return True


@dataclass(frozen=True)
class CheckPass:
    """One pluggable rule family: an analysis plus its exit-code identity.

    ``run`` is called once per analyzed file with a
    :class:`~repro.checks.astutil.SourceModule`; ``wants`` narrows the
    pass to the files it understands (e.g. the fleet-protocol lints only
    look at fleet modules).

    Bits 1, 2, 4 and 32 are free for third-party passes; the built-in
    families own 8, 16, 64 and 128.
    """

    rule: str
    bit: int
    summary: str
    run: Callable[["SourceModule"], list[Finding]]
    wants: Callable[["SourceModule"], bool] = field(default=_every_module)


_PASSES: dict[str, CheckPass] = {}


def register_pass(check_pass: CheckPass) -> CheckPass:
    """Add a rule family to the registry (idempotent per rule id).

    The pass's exit bit must be unique across every registered family
    (and must not collide with the runner-owned ``malformed-suppression``
    bit): the bit *is* the family's identity in the process exit code.
    Returns the pass, so it can be used as a definition-site one-liner.
    """
    existing = _PASSES.get(check_pass.rule)
    if existing is not None:
        if existing == check_pass:
            return check_pass
        raise ValueError(f"check pass {check_pass.rule!r} already registered")
    if check_pass.bit <= 0 or check_pass.bit & (check_pass.bit - 1):
        raise ValueError(
            f"pass {check_pass.rule!r} bit {check_pass.bit} is not a single bit"
        )
    if check_pass.bit > 128:
        raise ValueError(
            f"pass {check_pass.rule!r} bit {check_pass.bit} exceeds the "
            "8-bit process exit code (255 is reserved for usage errors)"
        )
    for rule, (bit, _) in RULES.items():
        if bit == check_pass.bit:
            raise ValueError(
                f"pass {check_pass.rule!r} bit {check_pass.bit} collides "
                f"with {rule!r}"
            )
    _PASSES[check_pass.rule] = check_pass
    RULES[check_pass.rule] = (check_pass.bit, check_pass.summary)
    return check_pass


def registered_passes() -> tuple[CheckPass, ...]:
    """Every registered pass, in ascending exit-bit order."""
    return tuple(sorted(_PASSES.values(), key=lambda p: p.bit))
