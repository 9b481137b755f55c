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
seed) produce byte-identical bytes. Priors and policies are read by their
constructors, whose normalization keeps a normalized vector bit for bit,
so serialize-parse-serialize round trips exactly: a problem written by
``problem_to_json`` parses back to the same prior and policies.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

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
from .model import InvalidInputError, Menu, Prior, SCR, SimpleInfoPolicy
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


@dataclass(frozen=True, eq=False)
class Problem:
    prior: Prior
    menu: Menu
    cost: CostSpec | None
    scr: SCR | None
    policies: dict
    options: SolveOptions
    grid_resolution: int | None = None
    #: seeds the random draws of ``probe``; no solver reads it
    seed: int = 0


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


def _kind(data: dict, where: str) -> str | None:
    kind = data.get("type")
    if kind is not None and not isinstance(kind, str):
        raise InvalidInputError(f"{where}.type: expected a string, got {kind!r}")
    return kind


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{where}: expected a number, got {value!r}")
    # json accepts NaN and Infinity tokens, and integers too large for a float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InvalidInputError(f"{where}: expected a finite number, got {value!r}")
    return number


def _integer(value, where: str, least: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{where}: expected an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{where}: expected an integer >= {least}, got {value}")
    return value


def _numbers(value, where: str) -> np.ndarray:
    """An array of numbers whose every entry passes ``_number``, so numeric
    strings and booleans, which ``float`` would read, are refused by index."""
    stack = [(_list(value, where), where)]
    while stack:
        item, at = stack.pop()
        if isinstance(item, list):
            stack.extend((item[i], f"{at}[{i}]") for i in reversed(range(len(item))))
        else:
            _number(item, at)
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise InvalidInputError(f"{where}: expected an array of numbers") from None


_DIVERGENCES = {"kl": KLDivergence, "chi_square": ChiSquareDivergence}
_PSIS = {"identity": IdentityPsi, "affine": AffinePsi, "power": PowerPsi, "exp": ExpPsi}


def divergence_from_json(data: dict, prior: Prior, strict: bool = False):
    data = _object(data, "cost.divergence")
    kind = _kind(data, "cost.divergence")
    _reject_unknown(data, {"type"}, f"cost.divergence ({kind})", strict)
    if kind not in _DIVERGENCES:
        raise InvalidInputError(f"cost.divergence: unknown type {kind!r}")
    return _DIVERGENCES[kind](prior)


def psi_from_json(data: dict, strict: bool = False):
    """A psi from its dataclass fields, each required unless it has a default."""
    data = _object(data, "cost.psi")
    kind = _kind(data, "cost.psi")
    psi_fields = fields(_PSIS[kind]) if kind in _PSIS else ()
    _reject_unknown(data, {"type", *(f.name for f in psi_fields)}, f"cost.psi ({kind})",
                    strict)
    if kind not in _PSIS:
        raise InvalidInputError(f"cost.psi: unknown type {kind!r}")
    return _PSIS[kind](**{
        f.name: _number(_field(data, f.name, "cost.psi"), f"cost.psi.{f.name}")
        for f in psi_fields if f.name in data or f.default is MISSING})


_COST_FIELDS = {"mutual_information": {"type", "scale"},
                "posterior_separable": {"type", "divergence"},
                "transformed": {"type", "divergence", "psi"},
                "max_over_set": {"type", "divergences"}}


def cost_from_json(data: dict, prior: Prior, strict: bool = False) -> CostSpec:
    data = _object(data, "cost")
    kind = _kind(data, "cost")
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


def _json_name(table: dict, obj, message: str) -> str:
    for name, cls in table.items():
        if isinstance(obj, cls):
            return name
    raise InvalidInputError(message)


def _divergence_to_json(div) -> dict:
    name = _json_name(_DIVERGENCES, div, "custom divergences have no JSON form")
    return {"type": name}


def _psi_to_json(psi) -> dict:
    name = _json_name(_PSIS, psi, "psi variant has no JSON form")
    return {"type": name, **asdict(psi)}


def policy_from_json(data: dict, prior: Prior, strict: bool,
                     where: str = "policy") -> SimpleInfoPolicy:
    data = _object(data, where)
    _reject_unknown(data, {"beliefs", "weights"}, where, strict)
    at = f"{where}.beliefs"
    rows = _list(_field(data, "beliefs", where), at)
    for i, row in enumerate(rows):
        for j, entry in enumerate(_list(row, f"{at}[{i}]")):
            _number(entry, f"{at}[{i}][{j}]")
    if len({len(row) for row in rows}) > 1:
        raise InvalidInputError(f"{at}: rows of different lengths")
    weights = _numbers(_field(data, "weights", where), f"{where}.weights")
    return SimpleInfoPolicy(prior, np.array(rows, dtype=float), weights)


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
    # the state count is left to the commands' own checks, which name it
    if scr is not None and scr.n_actions != menu.n_actions:
        raise InvalidInputError(
            f"scr: {scr.n_actions} rows for {menu.n_actions} actions, "
            "one row per action"
        )
    policies = {}
    for name, pdata in _object(data.get("policies", {}), "policies").items():
        policies[name] = policy_from_json(pdata, prior, strict, f"policies.{name}")
    odata = _object(data.get("options", {}), "options")
    _reject_unknown(odata, _OPTION_FIELDS, "options", strict)

    def option(key: str, read, default, **bounds):
        return read(odata[key], f"options.{key}", **bounds) if key in odata else default

    options = SolveOptions(**{key: read(odata[key], f"options.{key}") for key, read in
                              (("tol", _number), ("max_iter", _integer)) if key in odata})
    return Problem(prior, menu, cost, scr, policies, options,
                   seed=option("seed", _integer, 0, least=0),
                   grid_resolution=option("grid_resolution", _integer, None))


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
                "beliefs": pol.belief_matrix().tolist(),
                "weights": [float(w) for w in pol.weights],
            }
            for name, pol in problem.policies.items()
        }
    data["options"] = {
        "tol": problem.options.tol,
        **({"grid_resolution": problem.grid_resolution}
           if problem.grid_resolution is not None else {}),
        "max_iter": problem.options.max_iter,
        "seed": problem.seed,
    }
    return data


def scr_to_csv(scr: SCR, actions, states) -> str:
    """SCR matrix as CSV: header row of state labels, one row per action."""
    lines = ["action," + ",".join(str(s) for s in states)]
    for label, row in zip(actions, scr.probs):
        lines.append(str(label) + "," + ",".join(_format_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"
