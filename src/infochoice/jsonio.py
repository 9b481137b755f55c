"""Problem-file schema and canonical JSON output.

The interchange format is a single JSON object:

    {"states": ["x", "y"],
     "prior": [0.5, 0.5],
     "actions": ["1", "0"],
     "utilities": [[1, 0], [0, 1]],
     "cost": {"type": "mutual_information", "scale": 1.0},
     "scr": [[0.7, 0.3], [0.3, 0.7]],            # optional
     "policies": {"p": {...}, "q": {...}},       # optional, comparisons
     "options": {"tol": 1e-10, "max_iter": 100000, "seed": 0}}

Strict parsing rejects unknown fields. Output is canonical: keys sorted,
floats rendered with 17 significant digits, so identical inputs (plus the
seed) produce byte-identical bytes and serialize-parse-serialize round
trips exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .costs import (
    AffinePsi,
    ChiSquareDivergence,
    CostSpec,
    ExpPsi,
    IdentityPsi,
    KLDivergence,
    MaxOverSet,
    MutualInformation,
    PosteriorSeparable,
    PowerPsi,
    Transformed,
)
from .model import Belief, InvalidInputError, Menu, Prior, SCR, SimpleInfoPolicy
from .solver import SolveOptions

_TOP_FIELDS = {"states", "prior", "actions", "utilities", "cost", "scr",
               "policies", "options"}
_OPTION_FIELDS = {"tol", "max_iter", "seed", "grid_resolution"}


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise InvalidInputError("non-finite float in JSON output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def _canonical(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text for a result object, newline terminated."""
    return _canonical(obj) + "\n"


@dataclass(frozen=True)
class Problem:
    prior: Prior
    menu: Menu
    cost: CostSpec | None
    scr: SCR | None
    policies: dict
    options: SolveOptions
    grid_resolution: int | None = None


def _reject_unknown(data: dict, allowed: set, where: str, strict: bool) -> None:
    unknown = set(data) - allowed
    if unknown and strict:
        raise InvalidInputError(f"{where}: unknown fields {sorted(unknown)}")


# Typed readers for the problem file. Each raises InvalidInputError naming
# the offending location, so a malformed file never escapes as a KeyError,
# TypeError or ValueError.


def _field(data: dict, key: str, where: str):
    if key not in data:
        raise InvalidInputError(f"{where}.{key}: missing field")
    return data[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(f"{where}: expected a JSON object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise InvalidInputError(f"{where}: expected a JSON array")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{where}: expected an integer, got {value!r}")
    return value


def _numbers(value, where: str) -> np.ndarray:
    try:
        return np.asarray(_list(value, where), dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{where}: expected an array of numbers") from None


def divergence_from_json(data: dict, prior: Prior, strict: bool = False):
    data = _object(data, "cost.divergence")
    kind = data.get("type")
    _reject_unknown(data, {"type"}, f"cost.divergence ({kind})", strict)
    if kind == "kl":
        return KLDivergence(prior)
    if kind == "chi_square":
        return ChiSquareDivergence(prior)
    raise InvalidInputError(f"cost.divergence: unknown type {kind!r}")


_PSI_FIELDS = {"identity": {"type"}, "affine": {"type", "a", "b"},
               "power": {"type", "exponent"}, "exp": {"type", "rate"}}


def psi_from_json(data: dict, strict: bool = False):
    data = _object(data, "cost.psi")
    kind = data.get("type")
    _reject_unknown(data, _PSI_FIELDS.get(kind, {"type"}), f"cost.psi ({kind})", strict)

    def number(key: str) -> float:
        return _number(_field(data, key, "cost.psi"), f"cost.psi.{key}")

    if kind == "identity":
        return IdentityPsi()
    if kind == "affine":
        return AffinePsi(number("a"), number("b") if "b" in data else 0.0)
    if kind == "power":
        return PowerPsi(number("exponent"))
    if kind == "exp":
        return ExpPsi(number("rate"))
    raise InvalidInputError(f"cost.psi: unknown type {kind!r}")


_COST_FIELDS = {"mutual_information": {"type", "scale"},
                "posterior_separable": {"type", "divergence"},
                "transformed": {"type", "divergence", "psi"},
                "max_over_set": {"type", "divergences"}}


def cost_from_json(data: dict, prior: Prior, strict: bool = False) -> CostSpec:
    data = _object(data, "cost")
    kind = data.get("type")
    _reject_unknown(data, _COST_FIELDS.get(kind, {"type"}), f"cost ({kind})", strict)
    if kind == "mutual_information":
        scale = _number(data["scale"], "cost.scale") if "scale" in data else 1.0
        return MutualInformation(prior, scale)
    if kind == "posterior_separable":
        return PosteriorSeparable(divergence_from_json(
            _field(data, "divergence", "cost"), prior, strict))
    if kind == "transformed":
        return Transformed(
            divergence_from_json(_field(data, "divergence", "cost"), prior, strict),
            psi_from_json(_field(data, "psi", "cost"), strict))
    if kind == "max_over_set":
        divergences = _list(_field(data, "divergences", "cost"), "cost.divergences")
        return MaxOverSet([divergence_from_json(d, prior, strict) for d in divergences])
    raise InvalidInputError(f"cost: unknown type {kind!r}")


def cost_to_json(spec: CostSpec) -> dict:
    if isinstance(spec, MutualInformation):
        return {"type": "mutual_information", "scale": spec.scale}
    if isinstance(spec, PosteriorSeparable):
        return {"type": "posterior_separable",
                "divergence": _divergence_to_json(spec.divergence)}
    if isinstance(spec, Transformed):
        return {"type": "transformed",
                "divergence": _divergence_to_json(spec.divergence),
                "psi": _psi_to_json(spec.psi)}
    if isinstance(spec, MaxOverSet):
        return {"type": "max_over_set",
                "divergences": [_divergence_to_json(d) for d in spec.divergences]}
    raise InvalidInputError(f"cost variant {type(spec).__name__} has no JSON form")


def _divergence_to_json(div) -> dict:
    if isinstance(div, KLDivergence):
        return {"type": "kl"}
    if isinstance(div, ChiSquareDivergence):
        return {"type": "chi_square"}
    raise InvalidInputError("custom divergences have no JSON form")


def _psi_to_json(psi) -> dict:
    if isinstance(psi, IdentityPsi):
        return {"type": "identity"}
    if isinstance(psi, AffinePsi):
        return {"type": "affine", "a": psi.a, "b": psi.b}
    if isinstance(psi, PowerPsi):
        return {"type": "power", "exponent": psi.exponent}
    if isinstance(psi, ExpPsi):
        return {"type": "exp", "rate": psi.rate}
    raise InvalidInputError("psi variant has no JSON form")


def policy_from_json(data: dict, prior: Prior, strict: bool,
                     where: str = "policy") -> SimpleInfoPolicy:
    data = _object(data, where)
    _reject_unknown(data, {"beliefs", "weights"}, where, strict)
    rows = _list(_field(data, "beliefs", where), f"{where}.beliefs")
    beliefs = [Belief(_numbers(b, f"{where}.beliefs[{i}]")) for i, b in enumerate(rows)]
    weights = _numbers(_field(data, "weights", where), f"{where}.weights")
    return SimpleInfoPolicy(prior, beliefs, weights)


def parse_problem(data: dict, strict: bool = False) -> Problem:
    data = _object(data, "problem file")
    _reject_unknown(data, _TOP_FIELDS, "problem file", strict)
    for key in ("states", "prior", "actions", "utilities"):
        if key not in data:
            raise InvalidInputError(f"problem file: missing field {key!r}")
    prior = Prior(_list(data["states"], "states"), _numbers(data["prior"], "prior"))
    menu = Menu(_list(data["actions"], "actions"),
                _numbers(data["utilities"], "utilities"))
    cost = cost_from_json(data["cost"], prior, strict) if "cost" in data else None
    scr = SCR(_numbers(data["scr"], "scr")) if "scr" in data else None
    policies = {}
    for name, pdata in _object(data.get("policies", {}), "policies").items():
        policies[name] = policy_from_json(pdata, prior, strict, f"policies.{name}")
    odata = _object(data.get("options", {}), "options")
    _reject_unknown(odata, _OPTION_FIELDS, "options", strict)

    def option(key: str, read, default):
        return read(odata[key], f"options.{key}") if key in odata else default

    options = SolveOptions(
        tol=option("tol", _number, None),
        max_iter=option("max_iter", _integer, 100_000),
        seed=option("seed", _integer, 0),
    )
    return Problem(prior, menu, cost, scr, policies, options,
                   option("grid_resolution", _integer, None))


def problem_to_json(problem: Problem) -> dict:
    data = {
        "states": list(problem.prior.states),
        "prior": [float(w) for w in problem.prior.weights],
        "actions": list(problem.menu.actions),
        "utilities": [[float(v) for v in row] for row in problem.menu.utilities],
    }
    if problem.cost is not None:
        data["cost"] = cost_to_json(problem.cost)
    if problem.scr is not None:
        data["scr"] = [[float(v) for v in row] for row in problem.scr.probs]
    if problem.policies:
        data["policies"] = {
            name: {
                "beliefs": [[float(v) for v in b.weights] for b in pol.beliefs],
                "weights": [float(w) for w in pol.weights],
            }
            for name, pol in problem.policies.items()
        }
    data["options"] = {
        **({"tol": problem.options.tol} if problem.options.tol is not None else {}),
        **({"grid_resolution": problem.grid_resolution}
           if problem.grid_resolution is not None else {}),
        "max_iter": problem.options.max_iter,
        "seed": problem.options.seed,
    }
    return data


def scr_to_csv(scr: SCR, actions, states) -> str:
    """SCR matrix as CSV: header row of state labels, one row per action."""
    lines = ["action," + ",".join(str(s) for s in states)]
    for label, row in zip(actions, scr.probs):
        lines.append(str(label) + "," + ",".join(_format_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"
