"""Machine-parameter dataclasses shared by both simulators.

The numbers follow Section 2 and Table 1 of the paper.  Table 1 in the
scanned text is partially garbled; where a value is unreadable we use the
closest value consistent with the prose.  Nothing in the repository records
which values were read and which were inferred; the qualitative results
depend on the *relative* cost of memory versus computation.

Two architectures are parameterised here:

* :class:`ReferenceParams` — the in-order Convex C3400-like reference
  machine (Section 2.1).
* :class:`OOOParams` — the out-of-order, register-renaming OOOVA machine
  (Section 2.2), including the commit model of Section 5 and the dynamic
  load elimination configuration of Section 6.

:class:`InOrderParams` — the same knobs for the registered ``inorder``
intermediate machine — lives here too, so building or decoding a
configuration never imports a machine implementation.
"""

from __future__ import annotations

import enum
import functools
import typing
from dataclasses import dataclass, field, fields, replace

from repro.common.errors import ConfigurationError

#: Maximum number of 64-bit elements held by one vector register.
MAX_VECTOR_LENGTH = 128

#: Number of architected registers per class in the Convex-like ISA.
NUM_ARCH_VREGS = 8
NUM_ARCH_AREGS = 8
NUM_ARCH_SREGS = 8
NUM_ARCH_MASKREGS = 8


class CommitModel(enum.Enum):
    """How the OOOVA releases physical registers and retires stores.

    ``EARLY``  — the aggressive model of Section 2.2: a vector instruction's
    reorder-buffer slot becomes committable as soon as the instruction
    *begins* execution, and the old physical register is released when the
    slot reaches the head of the buffer.  Stores may execute as soon as
    their data is ready.  Precise exceptions are not possible.

    ``LATE`` — the precise-trap model of Section 5: an instruction commits
    only after it has fully completed, and stores execute only when they are
    the oldest uncommitted instruction (head of the reorder buffer).
    """

    EARLY = "early"
    LATE = "late"


class LoadElimination(enum.Enum):
    """Dynamic load elimination configuration (Section 6)."""

    NONE = "none"
    #: scalar load elimination only (A and S registers)
    SLE = "sle"
    #: scalar and vector load elimination
    SLE_VLE = "sle+vle"


@dataclass(frozen=True)
class FunctionalUnitLatencies:
    """Pipeline depths, in cycles, of the vector and scalar functional units.

    A vector instruction produces its first result ``<latency>`` cycles after
    it starts and one further element per cycle after that; the functional
    unit is occupied for ``vector_length`` cycles.
    """

    #: simple integer/logical/shift vector operations (FU1 or FU2)
    logical: int = 3
    #: floating point add/subtract/compare
    add: int = 4
    #: floating point / integer multiply (FU2 only)
    mul: int = 4
    #: divide (FU2 only)
    div: int = 9
    #: square root (FU2 only)
    sqrt: int = 9
    #: cycles to cross the read crossbar from a register to a unit
    read_crossbar: int = 1
    #: cycles to cross the write crossbar back into the register file
    write_crossbar: int = 2
    #: fixed start-up overhead charged to every vector instruction
    vector_startup: int = 4
    #: scalar ALU operation latency
    scalar_alu: int = 1
    #: scalar multiply latency
    scalar_mul: int = 3
    #: scalar divide latency
    scalar_div: int = 9
    #: latency of a scalar memory access (the C34 caches scalar data)
    scalar_mem: int = 8

    def vector_op_latency(self, op_class: str) -> int:
        """Return the pipeline depth for a vector op class name.

        ``op_class`` is one of ``logical``, ``add``, ``mul``, ``div``,
        ``sqrt``.
        """
        try:
            return int(getattr(self, op_class))
        except AttributeError as exc:
            raise ConfigurationError(f"unknown vector op class: {op_class!r}") from exc


@dataclass(frozen=True)
class MemoryParams:
    """Main-memory timing model (Section 2.2, "Machine Parameters").

    There is a single address bus shared by all memory transactions and
    physically separate data busses for sending and receiving data.  Vector
    loads pay ``latency`` cycles and then receive one datum per cycle;
    vector stores occupy the address bus but do not expose latency.
    """

    #: main-memory latency in cycles (the paper varies this from 1 to 100)
    latency: int = 50

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("memory latency must be non-negative")


@dataclass(frozen=True)
class ReferenceParams:
    """Parameters of the in-order reference architecture (Convex C3400)."""

    latencies: FunctionalUnitLatencies = field(default_factory=FunctionalUnitLatencies)
    memory: MemoryParams = field(default_factory=MemoryParams)
    #: number of architected vector registers
    num_vregs: int = NUM_ARCH_VREGS
    #: vector registers per register-file bank (banks share 2R + 1W ports)
    vregs_per_bank: int = 2
    #: read ports per register bank
    bank_read_ports: int = 2
    #: write ports per register bank
    bank_write_ports: int = 1
    #: chaining from functional units to functional units and to stores
    #: (the C34 never chains memory loads into functional units or stores)
    chain_fu_to_fu: bool = True
    chain_fu_to_store: bool = True
    #: fetch bubble charged after a taken branch on the in-order machine
    taken_branch_penalty: int = 2

    def with_memory_latency(self, latency: int) -> "ReferenceParams":
        """Return a copy of these parameters with a different memory latency."""
        return replace(self, memory=replace(self.memory, latency=latency))


@dataclass(frozen=True)
class OOOParams:
    """Parameters of the out-of-order, renaming OOOVA architecture."""

    latencies: FunctionalUnitLatencies = field(default_factory=FunctionalUnitLatencies)
    memory: MemoryParams = field(default_factory=MemoryParams)

    #: number of *physical* vector registers (the paper sweeps 9..64)
    num_phys_vregs: int = 16
    #: physical scalar register files (Section 2.2: 64 each)
    num_phys_aregs: int = 64
    num_phys_sregs: int = 64
    #: physical mask registers
    num_phys_maskregs: int = 8

    #: reorder-buffer entries
    rob_entries: int = 64
    #: slots in each of the four instruction queues (A, S, V, M)
    queue_slots: int = 16
    #: maximum instructions committed per cycle
    commit_width: int = 4

    #: branch target buffer entries (2-bit saturating counters)
    btb_entries: int = 64
    #: return-address-stack depth
    ras_depth: int = 8
    #: extra fetch bubble charged on a branch misprediction, on top of
    #: waiting for the branch to resolve
    branch_mispredict_penalty: int = 2

    commit_model: CommitModel = CommitModel.EARLY
    load_elimination: LoadElimination = LoadElimination.NONE

    #: chaining rules carried over from the reference implementation
    #: (loads never chain into functional units or stores)
    chain_fu_to_fu: bool = True
    chain_fu_to_store: bool = True

    def __post_init__(self) -> None:
        if self.num_phys_vregs < NUM_ARCH_VREGS + 1:
            raise ConfigurationError(
                "the OOOVA needs at least one more physical vector register "
                f"than the {NUM_ARCH_VREGS} architected ones "
                f"(got {self.num_phys_vregs})"
            )
        if self.num_phys_aregs < NUM_ARCH_AREGS + 1:
            raise ConfigurationError("too few physical A registers")
        if self.num_phys_sregs < NUM_ARCH_SREGS + 1:
            raise ConfigurationError("too few physical S registers")
        if self.num_phys_maskregs < NUM_ARCH_MASKREGS:
            raise ConfigurationError("too few physical mask registers")
        if self.rob_entries < 1:
            raise ConfigurationError("reorder buffer needs at least one entry")
        if self.queue_slots < 1:
            raise ConfigurationError("instruction queues need at least one slot")
        if self.commit_width < 1:
            raise ConfigurationError("commit width must be positive")

    def with_memory_latency(self, latency: int) -> "OOOParams":
        """Return a copy of these parameters with a different memory latency."""
        return replace(self, memory=replace(self.memory, latency=latency))

    def with_phys_vregs(self, count: int) -> "OOOParams":
        """Return a copy with a different physical vector register count."""
        return replace(self, num_phys_vregs=count)


@dataclass(frozen=True)
class InOrderParams(OOOParams):
    """Parameters of the in-order-issue, renaming intermediate machine.

    Identical knobs to :class:`OOOParams` — the machines differ in issue
    policy, not in resources — but a distinct type, which is what the
    machine-model registry dispatches on (see :mod:`repro.machine.inorder`).
    """


# ---------------------------------------------------------------------------
# Serialisation (used by the persistent result store in repro.core.runner)
# ---------------------------------------------------------------------------

#: serialisation kind -> parameter dataclass, extended by the machine-model
#: registry (repro.core.machines) as models register
_PARAMS_KINDS: dict[str, type] = {}


def register_params_kind(kind: str, params_type: type) -> None:
    """Register a machine-parameter dataclass under a serialisation ``kind``.

    Called by :func:`repro.core.machines.register_machine` for every
    registered model, so any machine's dataclass parameters round-trip
    through :func:`params_to_dict`/:func:`params_from_dict` (and therefore
    through the persistent result store) without bespoke code.
    """
    existing = _PARAMS_KINDS.get(kind)
    if existing is not None and existing is not params_type:
        raise ConfigurationError(
            f"parameter kind {kind!r} is already registered for "
            f"{existing.__name__}"
        )
    _PARAMS_KINDS[kind] = params_type


def _kind_of(params: object) -> str:
    """The serialisation kind of ``params`` (exact type match only).

    Exactness matters: a subclassed parameter type (e.g. the ``inorder``
    machine's) is a different design point and must not serialise under
    its parent's kind.
    """
    for kind, cls in _PARAMS_KINDS.items():
        if type(params) is cls:
            return kind
    raise ConfigurationError(
        f"cannot serialise parameters of type {type(params)!r}; "
        "register the machine model first"
    )


def params_to_dict(params: typing.Any) -> dict:
    """Serialise machine parameters to a JSON-compatible dictionary.

    Accepts any *registered* parameter dataclass (see
    :func:`register_params_kind`), not just the built-in three.

    The dictionary carries a ``kind`` discriminator so the matching dataclass
    can be rebuilt by :func:`params_from_dict`; enum members are stored by
    value.
    """
    payload: dict = {"kind": _kind_of(params)}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, (FunctionalUnitLatencies, MemoryParams)):
            value = {sub.name: getattr(value, sub.name) for sub in fields(value)}
        payload[f.name] = value
    return payload


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> dict:
    """Resolved annotations of a parameter dataclass (cached per class).

    Every stored-result load deserialises parameters; re-evaluating the
    string annotations each time would dominate warm store scans.
    """
    return typing.get_type_hints(cls)


def params_from_dict(payload: dict) -> typing.Any:
    """Rebuild machine parameters (of any registered kind) from :func:`params_to_dict` output.

    Works for any registered parameter kind: nested latency/memory blocks
    (when the dataclass has them — third-party parameter types need not)
    rebuild their dataclasses, and enum-typed fields (discovered from the
    dataclass annotations) are coerced from their stored values.
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _PARAMS_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown machine-parameter kind {kind!r}")
    if "latencies" in data:
        data["latencies"] = FunctionalUnitLatencies(**data["latencies"])
    if "memory" in data:
        data["memory"] = MemoryParams(**data["memory"])
    hints = _field_hints(cls)
    for name, value in list(data.items()):
        target = hints.get(name)
        if isinstance(target, type) and issubclass(target, enum.Enum):
            data[name] = target(value)
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(
            f"cannot rebuild {kind!r} parameters from stored payload: {exc}"
        ) from exc


register_params_kind("reference", ReferenceParams)
register_params_kind("ooo", OOOParams)
register_params_kind("inorder", InOrderParams)
