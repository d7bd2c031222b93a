"""Whole-machine state as plain data: the kernel tests' oracle.

:func:`state` reads every attribute reachable from a machine object, so
two machines compare equal only if nothing anywhere inside them differs.
:func:`mutable_parts` follows the same walk and yields the objects that
can change, so tests can check two runs share none of them.
``tests/test_machine_kernel.py`` checks each registered machine's
resumability and determinism with them, on the spec's ``run_slice``;
``tests/test_batched_kernel.py`` resumes the spec at every instruction
boundary with them and tests the oracle itself.
"""

import collections
import dataclasses
import enum

#: the run's inputs rather than its state: parameters, trace, latencies
INPUTS = frozenset({"params", "trace", "lat"})


def _attributes(obj):
    """``(name, value)`` for each non-input attribute of ``obj``.

    Reads ``__dict__`` and ``__slots__``; raises ``TypeError`` for an
    object with neither, which the walk cannot see into.
    """
    slotted = [cls for cls in type(obj).__mro__ if "__slots__" in cls.__dict__]
    if not hasattr(obj, "__dict__") and not slotted:
        raise TypeError(f"cannot walk into {type(obj).__name__!r} objects")
    names = list(getattr(obj, "__dict__", ()))
    for cls in slotted:
        slots = cls.__dict__["__slots__"]
        names.extend([slots] if isinstance(slots, str) else slots)
    return [
        (name, getattr(obj, name))
        for name in names
        if name not in INPUTS and name not in ("__dict__", "__weakref__")
        and hasattr(obj, name)
    ]


def state(obj):
    """Every value reachable from ``obj``, as plain comparable data.

    Objects become ``(class name, {attribute: state})`` over their
    ``__dict__`` and ``__slots__``; lists, tuples and deques become lists,
    dicts (key, value) pairs in insertion order, sets sorted lists and
    enums their values.  Anything else raises ``TypeError``: a container
    the walker cannot see into must fail loudly, never read as empty.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple, collections.deque)):
        return [state(item) for item in obj]
    if isinstance(obj, dict):
        return [(state(key), state(value)) for key, value in obj.items()]
    if isinstance(obj, (set, frozenset)):
        return sorted(state(item) for item in obj)
    return (type(obj).__name__, {name: state(value) for name, value in _attributes(obj)})


def mutable_parts(obj):
    """Every object reachable from ``obj`` that can change in place.

    Walks what :func:`state` walks; yields lists, deques, dicts, sets and
    objects, but not tuples, frozensets or frozen dataclasses (their
    contents are still walked).
    """
    if obj is None or isinstance(obj, (bool, int, float, str, enum.Enum)):
        return
    if isinstance(obj, dict):
        yield obj
        for key, value in obj.items():
            yield from mutable_parts(key)
            yield from mutable_parts(value)
        return
    if isinstance(obj, (list, tuple, collections.deque, set, frozenset)):
        if not isinstance(obj, (tuple, frozenset)):
            yield obj
        for item in obj:
            yield from mutable_parts(item)
        return
    params = getattr(obj, "__dataclass_params__", None)
    if not (dataclasses.is_dataclass(obj) and params.frozen):
        yield obj
    for _, value in _attributes(obj):
        yield from mutable_parts(value)
