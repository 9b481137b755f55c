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

Each JSON object kind has one table: ``_COSTS``, ``_DIVERGENCES`` and
``_PSIS`` map a ``type`` name to its class, ``_OPTIONS`` an option to its
reader. A cost, divergence or psi is read from and written as its class's
dataclass fields, and strict parsing rejects any other field.

Output is canonical: keys sorted,
floats rendered with 17 significant digits, so identical inputs (plus the
seed) produce byte-identical bytes. Priors and policies are read by their
constructors, whose normalization keeps a normalized vector bit for bit,
so serialize-parse-serialize round trips exactly: a problem written by
``problem_to_json`` parses back to the same prior and policies.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import partial

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


_COSTS = {"mutual_information": MutualInformation, "posterior_separable": PosteriorSeparable,
          "transformed": Transformed, "max_over_set": MaxOverSet}
_DIVERGENCES = {"kl": KLDivergence, "chi_square": ChiSquareDivergence}
_PSIS = {"identity": IdentityPsi, "affine": AffinePsi, "power": PowerPsi, "exp": ExpPsi}
#: the table of a field that holds objects; ``divergences`` holds an array of them
_NESTED = {"divergence": _DIVERGENCES, "divergences": _DIVERGENCES, "psi": _PSIS}
#: each option's reader; ``SolveOptions`` takes those it has a field for,
#: ``Problem`` the others
_OPTIONS = {"tol": _number, "max_iter": _integer, "seed": partial(_integer, least=0),
            "grid_resolution": _integer}
_SOLVER_OPTIONS = {f.name for f in fields(SolveOptions)}


def _from_json(table: dict, data, where: str, prior: Prior, strict: bool):
    """The object of ``data``'s type in ``table``, built from its class's init
    fields: ``prior`` is the problem's, a field in ``_NESTED`` is read through
    its table, any other is a number, each required unless it has a default."""
    data = _object(data, where)
    kind = _kind(data, where)
    cls = table.get(kind)
    own = {f.name: f for f in fields(cls) if f.init} if cls else {}
    args = {"prior": prior} if own.pop("prior", None) else {}
    _reject_unknown(data, {"type", *own}, f"{where} ({kind})", strict)
    if cls is None:
        raise InvalidInputError(f"{where}: unknown type {kind!r}")
    for name, f in own.items():
        if name not in data and f.default is not MISSING:
            continue
        value, at = _field(data, name, where), f"{where}.{name}"
        if name == "divergences":  # each read where a single divergence is
            args[name] = [_from_json(_DIVERGENCES, d, f"{where}.divergence", prior, strict)
                          for d in _list(value, at)]
        elif name in _NESTED:
            args[name] = _from_json(_NESTED[name], value, at, prior, strict)
        else:
            args[name] = _number(value, at)
    return cls(**args)


def _to_json(table: dict, obj, where: str) -> dict:
    """The JSON object ``_from_json`` reads back to ``obj``."""
    kind = next((kind for kind, cls in table.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise InvalidInputError(f"{where}: {type(obj).__name__} has no JSON form")
    data = {"type": kind}
    for f in fields(table[kind]):
        if not f.init or f.name == "prior":
            continue
        value = getattr(obj, f.name)
        if f.name == "divergences":
            data[f.name] = [_to_json(_DIVERGENCES, d, f"{where}.divergence") for d in value]
        elif f.name in _NESTED:
            data[f.name] = _to_json(_NESTED[f.name], value, f"{where}.{f.name}")
        else:
            data[f.name] = value
    return data


def cost_from_json(data: dict, prior: Prior, strict: bool = False) -> CostSpec:
    return _from_json(_COSTS, data, "cost", prior, strict)


def cost_to_json(spec: CostSpec) -> dict:
    return _to_json(_COSTS, spec, "cost")


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
    _reject_unknown(odata, set(_OPTIONS), "options", strict)
    options = {key: read(odata[key], f"options.{key}") for key, read in _OPTIONS.items()
               if key in odata}
    return Problem(prior, menu, cost, scr, policies,
                   SolveOptions(**{k: v for k, v in options.items() if k in _SOLVER_OPTIONS}),
                   **{k: v for k, v in options.items() if k not in _SOLVER_OPTIONS})


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
    options = {key: getattr(problem.options if key in _SOLVER_OPTIONS else problem, key)
               for key in _OPTIONS}
    data["options"] = {key: value for key, value in options.items() if value is not None}
    return data


def _csv_field(label) -> str:
    """``label`` as an RFC 4180 field: quoted, quotes doubled, if it holds , " CR or LF."""
    text = str(label)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def scr_to_csv(scr: SCR, actions, states) -> str:
    """SCR matrix as CSV: header row of state labels, one row per action."""
    lines = [",".join(map(_csv_field, ["action", *states]))]
    for label, row in zip(actions, scr.probs):
        lines.append(",".join([_csv_field(label), *(_format_float(float(v)) for v in row)]))
    return "\n".join(lines) + "\n"
