"""Executable benchmark models: a two-stage analytic game, automated parking,
and a two-aircraft collision avoidance scenario."""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..errors import ModelError
from ..model import GlobalState, NsCsg, RewardStructure


@dataclass(frozen=True)
class BuiltModel:
    """A ready-to-solve bundle: game, initial state, rewards and horizon."""

    model: NsCsg
    initial: GlobalState
    rewards: tuple[RewardStructure, ...]
    horizon: int
    extras: dict = field(default_factory=dict)


def build(name: str, params: dict | None = None) -> BuiltModel:
    """Construct a named benchmark from a parameter mapping; an unknown name
    or parameter, or parameters that are not a mapping, raise
    :class:`ModelError`."""
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
    return make(Params(**params))
