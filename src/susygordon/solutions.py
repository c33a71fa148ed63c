"""Named solution constructors and their JSON file schema.

A solution file is a JSON object with a ``kind`` and kind-specific fields:

    {"kind": "trivial", "k": 0}
    {"kind": "darboux1", "k": 0, "lambda0": [1.25, 0.0],
     "a0": "a0" | null, "b0": [0.0, 0.0], "c0": [1.0, 0.0]}
    {"kind": "darboux", "k": 0, "iterations": 2, "mode": "chain",
     "seeds": [{"lambda": [...], "a": "a0" | null, "b": [...], "c": [...]}, ...]}
    {"kind": "backlund_trivial", "k": 0, "k_tilde": 1}
    {"kind": "scaled", "mu": 0.3, "sign": 1, "base": {...any solution...}}

Complex numbers are written as ``[re, im]`` (a bare number is accepted and
read as a real).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .darboux import (
    DarbouxChain,
    SeedParams,
    closed_form_sn,
    darboux_chain,
    generator_set,
    seed_trivial,
)
from .errors import ConfigError
from .grassmann import GeneratorSet
from .ssge import scaling_map
from .superfield import BASE_GENERATORS, Superfield


def _is_number(value) -> bool:
    """A finite JSON number (``json`` reads ``NaN`` and ``Infinity`` as floats)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def parse_complex(value) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"expected a number or [re, im] pair, got {value!r}")


def complex_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def json_object(data, what: str) -> dict:
    """``data`` itself if it is a JSON object; anything else is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    return data


def json_list(data, what: str) -> list:
    """``data`` itself if it is a JSON array; anything else is a ConfigError."""
    if not isinstance(data, list):
        raise ConfigError(f"{what} must be a JSON array, got {data!r}")
    return data


def json_number(data, what: str, cast=int):
    """``cast(data)`` for a JSON number (a whole one for ``int``); else a ConfigError."""
    if not _is_number(data) or (cast is int and data != int(data)):
        kind = "whole number" if cast is int else "number"
        raise ConfigError(f"{what} must be a {kind}, got {data!r}")
    return cast(data)


def parse_seed(data: dict, suffix: str = "") -> SeedParams:
    """A seed entry; ``suffix="0"`` reads the ``lambda0``, ``a0``, ... of a darboux1 file."""
    json_object(data, "seed entry")
    try:
        lam = parse_complex(data["lambda" + suffix])
        c = parse_complex(data["c" + suffix])
    except KeyError as missing:
        raise ConfigError(f"seed entry is missing {missing}") from None
    a = data.get("a" + suffix)
    if a is not None and not isinstance(a, str):
        raise ConfigError(f"seed generator name must be a string or null, got {a!r}")
    return SeedParams(lam=lam, c=c, b=parse_complex(data.get("b" + suffix, 0.0)), a=a)


def seed_json(p: SeedParams) -> dict:
    return {"lambda": complex_json(p.lam), "a": p.a,
            "b": complex_json(p.b), "c": complex_json(p.c)}


@dataclass
class SolutionBundle:
    """A loaded solution plus whatever companion data its kind provides."""

    s: Superfield
    gens: GeneratorSet
    k: int = 0
    seeds: list[SeedParams] = field(default_factory=list)
    chain: DarbouxChain | None = None
    #: for backlund_trivial: the partner solution and the odd function f = 0
    partner: Superfield | None = None
    odd_function: Superfield | None = None
    spec_echo: dict = field(default_factory=dict)


def _zero_odd(gens: GeneratorSet) -> Superfield:
    from .grassmann import GrassmannElement, ODD

    return Superfield(lambda pt: GrassmannElement.zero(gens), ODD, "f=0")


def build_solution(data: dict) -> SolutionBundle:
    kind = json_object(data, "solution").get("kind")
    k = json_number(data.get("k", 0), "k")
    if kind == "trivial":
        gens = GeneratorSet(BASE_GENERATORS)
        return SolutionBundle(seed_trivial(k), gens, k=k, spec_echo=data)

    if kind in ("darboux1", "darboux"):
        if kind == "darboux1":
            seeds = [parse_seed(data, suffix="0")]
            n, mode = 1, "chain"
        else:
            seeds = [parse_seed(entry) for entry in json_list(data.get("seeds", []), "seeds")]
            if not seeds:
                raise ConfigError("darboux solution needs at least one seed")
            n = json_number(data.get("iterations", len(seeds)), "iterations")
            mode = data.get("mode", "chain")
        chain = darboux_chain(k, seeds, n)
        if mode == "chain":
            s = chain.solution()
        elif mode == "closed-form":
            s = closed_form_sn(k, seeds, n)
        else:
            raise ConfigError(f"unknown darboux mode {mode!r}")
        return SolutionBundle(s, generator_set(seeds), k=k, seeds=seeds, chain=chain,
                              spec_echo=data)

    if kind == "backlund_trivial":
        k_tilde = json_number(data.get("k_tilde", 0), "k_tilde")
        gens = GeneratorSet(BASE_GENERATORS)
        return SolutionBundle(seed_trivial(k), gens, k=k, partner=seed_trivial(k_tilde),
                              odd_function=_zero_odd(gens), spec_echo=data)

    if kind == "scaled":
        base = build_solution(data["base"])
        mu = json_number(data.get("mu", 0.0), "mu", float)
        sign = json_number(data.get("sign", 1), "sign")
        # the base's chain and seeds describe the base solution, not this one
        return SolutionBundle(scaling_map(base.s, mu, sign), base.gens, k=base.k,
                              spec_echo=data)

    raise ConfigError(f"unknown solution kind {kind!r}")


def load_solution(path: str | Path) -> SolutionBundle:
    with open(path, "r", encoding="utf-8") as handle:
        return build_solution(json.load(handle))
