"""Hashable canonical forms of component state.

The incremental checker's transposition table (:mod:`repro.verify.
incremental`) detects that two different prefixes converged on the same
engine state by comparing fingerprints.  :func:`freeze` converts a nest
of state values (for example a protocol FSM's ``snapshot_state()``) into
a hashable canonical form for those fingerprints.
"""

from __future__ import annotations

import dataclasses
from typing import Any


def freeze(value: Any) -> Any:
    """Recursively convert *value* into a hashable canonical form.

    Handles the shapes snapshot state is made of: scalars pass through,
    dicts become sorted item tuples, lists/tuples/sets become tuples,
    and dataclass instances become ``(type-name, frozen field items)``
    pairs so two distinct-but-equal latch objects hash identically.
    """
    if value is None or isinstance(value, (int, float, str, bool, bytes)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple((f.name, freeze(getattr(value, f.name)))
                       for f in dataclasses.fields(value))
        return (type(value).__name__, fields)
    if isinstance(value, dict):
        return tuple(sorted((freeze(k), freeze(v))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(freeze(item) for item in value))
    raise TypeError(f"cannot freeze value of type {type(value).__name__}")
