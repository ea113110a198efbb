"""Executable benchmark models: a two-stage analytic game, automated parking,
and a two-aircraft collision avoidance scenario."""
from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, fields

from ..errors import ModelError
from ..model import FeedForwardNet, GlobalState, NsCsg, RewardStructure


@dataclass(frozen=True)
class BuiltModel:
    """A ready-to-solve bundle: game, initial state, rewards and horizon."""

    model: NsCsg
    initial: GlobalState
    rewards: tuple[RewardStructure, ...]
    horizon: int
    extras: dict = field(default_factory=dict)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: What a parameter takes, by the type of its default: (description, test).
_KINDS = {
    bool: ("a bool", lambda v: isinstance(v, bool)),
    int: ("an integer", _integer),
    float: ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list", lambda v: isinstance(v, (list, tuple))),
}

#: The parameters whose default does not tell what they take.
_FIELD_KINDS = {
    "instant_k": ("null or an integer", lambda v: v is None or _integer(v)),
    "nets": ("a string or a list of networks", lambda v: isinstance(v, (str, os.PathLike)) or (
        isinstance(v, (list, tuple)) and all(isinstance(net, FeedForwardNet) for net in v))),
}


def _tuples(value):
    """``value`` with every list, at any depth, turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


def build(name: str, params: dict | None = None) -> BuiltModel:
    """Construct a named benchmark from a parameter mapping; an unknown name
    or parameter, parameters that are not a mapping, a value of the wrong
    kind, or a type or value error met while building raise :class:`ModelError`."""
    if name == "counterexample":
        from .counterexample import CounterexampleParams as Params, build_counterexample as make
    elif name == "parking":
        from .parking import ParkingParams as Params, build_parking as make
    elif name == "vcas":
        from .vcas import VcasParams as Params, build_vcas as make
    else:
        raise ModelError(f"unknown benchmark {name!r}")
    if params is not None and not isinstance(params, dict):
        raise ModelError(f"{name} parameters must be a JSON object, not {type(params).__name__}")
    params = dict(params or {})
    unknown = sorted(set(params) - {f.name for f in fields(Params)})
    if unknown:
        raise ModelError(f"unknown {name} parameter {unknown[0]!r}")
    for f in fields(Params):
        kind = _FIELD_KINDS.get(f.name) or _KINDS.get(type(f.default))
        if f.name in params and kind is not None and not kind[1](params[f.name]):
            shown = json.dumps(params[f.name], default=repr)
            raise ModelError(f"{name} parameter {f.name!r} must be {kind[0]}, not {shown}")
        if f.name in params and isinstance(f.default, tuple):  # JSON gives lists, e.g. of cells
            params[f.name] = _tuples(params[f.name])
    try:
        return make(Params(**params))
    except (TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"cannot build {name}: {exc}") from None
