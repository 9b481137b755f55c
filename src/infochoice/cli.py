"""Command-line front end.

    infochoice solve problem.json [--out PATH] [--csv]
    infochoice reveal|kappa|certify|invert|unique problem.json
    infochoice predict problem.json --submenus all|"a,b;b,c"
    infochoice blackwell problem.json        # uses the "policies" block
    infochoice oracle problem.json [--grid N] [--csv]
    infochoice probe problem.json --kind convexity|consistency|uniqueness

Results go to stdout (or --out) as canonical JSON; --csv switches
SCR-producing commands to CSV. Exit codes: 0 success, 2 validation error
(a malformed or unreadable problem file, an unwritable --out path), 3 solver
non-convergence. Errors are machine readable:
{"error": {"code": ..., "message": ..., "location": ...}}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import inverse, menus, revealed, solver
from .jsonio import Problem, canonical_dumps, parse_problem, scr_to_csv
from .model import InvalidInputError, Menu, SCR
from .solver import SolverError


def _load(path: str, strict: bool) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot open {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, integer literals past the digit limit, and
        # nesting deeper than the parser's recursion limit
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from None
    return parse_problem(data, strict)


def _require(problem: Problem, field: str):
    value = getattr(problem, field)
    if value is None:
        raise InvalidInputError(f"problem file: command needs the {field!r} field")
    return value


def _cmd_solve(problem: Problem, args) -> tuple[dict, SCR | None]:
    result = solver.solve(problem.menu, problem.prior, _require(problem, "cost"),
                          problem.options)
    payload = {
        "actions": list(problem.menu.actions),
        "states": list(problem.prior.states),
        "scr": result.scr.probs,
        "value": result.value,
        "iterations": result.iterations,
        "residual": result.residual,
        "method": result.method,
    }
    return payload, result.scr


def _cmd_reveal(problem: Problem, args):
    rp = revealed.reveal(_require(problem, "scr"), problem.prior)
    split = list(zip(problem.menu.actions, rp.supported.tolist()))
    labels = [a for a, kept in split if kept]
    payload = {
        "marginals": dict(zip(labels, rp.marginals[rp.supported])),
        "posteriors": dict(zip(labels, rp.belief_matrix())),
        "excluded": [a for a, kept in split if not kept],
    }
    return payload, None


def _cmd_kappa(problem: Problem, args):
    value = revealed.kappa(_require(problem, "cost"), _require(problem, "scr"),
                           problem.prior)
    return {"kappa": value}, None


def _cmd_certify(problem: Problem, args):
    cert = inverse.certify(_require(problem, "scr"), problem.menu, problem.prior,
                           _require(problem, "cost"))
    return cert.to_dict(), None


def _cmd_invert(problem: Problem, args):
    menu = inverse.rationalize(_require(problem, "scr"), problem.prior,
                               _require(problem, "cost"),
                               actions=problem.menu.actions)
    payload = {
        "actions": list(menu.actions),
        "states": list(problem.prior.states),
        "utilities": menu.utilities,
        "normalization": "identified up to a state-dependent, "
                         "action-independent shift",
    }
    return payload, None


def _cmd_unique(problem: Problem, args):
    report = inverse.unique_check(_require(problem, "scr"), problem.prior)
    return {"verdict": report.verdict, **dataclasses.asdict(report)}, None


def _parse_submenus(text: str):
    if text == "all":
        return None
    groups = []
    for chunk in text.split(";"):
        labels = [t.strip() for t in chunk.split(",") if t.strip()]
        if labels:
            groups.append(labels)
    if not groups:
        raise InvalidInputError("--submenus: empty list")
    return groups


def _cmd_predict(problem: Problem, args):
    groups = _parse_submenus(args.submenus)
    forecast = menus.predict_submenus(_require(problem, "scr"), problem.menu,
                                      problem.prior, _require(problem, "cost"),
                                      submenus=groups, opts=problem.options)
    payload = [
        {
            "submenu": list(p.actions),
            "scr": p.scr.probs,
            "value": p.value,
            "unique": p.unique_capable,
            "verdict": p.verdict,
        }
        for p in forecast.predictions
    ]
    return payload, None


def _cmd_blackwell(problem: Problem, args):
    if "p" not in problem.policies or "q" not in problem.policies:
        raise InvalidInputError('blackwell needs policies "p" and "q" in the file')
    res = revealed.blackwell_geq(problem.policies["p"], problem.policies["q"])
    payload = {
        "holds": res.holds,
        "infeasibility": res.infeasibility,
        "witness": res.witness,
        "certificate": res.certificate,
    }
    return payload, None


def _cmd_oracle(problem: Problem, args):
    resolution = args.grid if args.grid is not None else problem.grid_resolution
    result = solver.grid_oracle(problem.menu, problem.prior,
                                _require(problem, "cost"),
                                grid_resolution=resolution)
    payload = {
        "value": result.value,
        "scr": result.scr.probs,
        "beliefs": result.policy.belief_matrix(),
        "weights": result.policy.weights,
        "assigned_actions": [problem.menu.actions[a] for a in result.assigned_actions],
    }
    return payload, result.scr


def _cmd_probe(problem: Problem, args):
    if args.trials < 1:
        raise InvalidInputError(f"--trials: must be at least 1, got {args.trials}")
    seed = problem.seed
    if args.kind == "convexity":
        rng = np.random.default_rng(seed)
        other = Menu(problem.menu.actions,
                     rng.normal(0.0, 1.0, size=problem.menu.utilities.shape))
        report = solver.value_convexity_probe(problem.menu, other, problem.prior,
                                              _require(problem, "cost"),
                                              samples=args.trials, seed=seed,
                                              opts=problem.options)
        payload = {"kind": "convexity", **dataclasses.asdict(report)}
    elif args.kind == "consistency":
        report = menus.forecast_consistency(problem.menu, problem.prior,
                                            _require(problem, "cost"),
                                            trials=args.trials, seed=seed,
                                            opts=problem.options)
        payload = {"kind": "consistency", **dataclasses.asdict(report)}
    elif args.kind == "uniqueness":
        rng = np.random.default_rng(seed)
        cost = _require(problem, "cost")
        spread = 0.0
        for _ in range(args.trials):
            utilities = rng.normal(0.0, 1.0, size=problem.menu.utilities.shape)
            trial_menu = Menu(problem.menu.actions, utilities)
            baseline = None
            for _ in range(10):
                init = rng.dirichlet(np.ones(problem.menu.n_actions))
                opts = dataclasses.replace(problem.options, init_marginals=init)
                probs = solver.solve(trial_menu, problem.prior, cost, opts).scr.probs
                if baseline is None:
                    baseline = probs
                else:
                    spread = max(spread, float(np.abs(probs - baseline).max()))
        payload = {"kind": "uniqueness", "trials": args.trials,
                   "max_scr_spread": spread, "seed": seed}
    else:
        raise InvalidInputError(f"unknown probe kind {args.kind!r}")
    return payload, None


_COMMANDS = {
    "solve": _cmd_solve,
    "reveal": _cmd_reveal,
    "kappa": _cmd_kappa,
    "certify": _cmd_certify,
    "invert": _cmd_invert,
    "unique": _cmd_unique,
    "predict": _cmd_predict,
    "blackwell": _cmd_blackwell,
    "oracle": _cmd_oracle,
    "probe": _cmd_probe,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infochoice",
        description="Costly information acquisition: solve, certify, invert, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="path to the problem JSON file")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--csv", action="store_true",
                       help="emit the resulting SCR as CSV (solve and oracle)")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown fields in the problem file")
        if name == "predict":
            p.add_argument("--submenus", default="all",
                           help='"all" or semicolon-separated label groups, '
                                'e.g. "a,b;b,c"')
        if name == "oracle":
            p.add_argument("--grid", type=int, default=None,
                           help="lattice points per simplex edge")
        if name == "probe":
            p.add_argument("--kind", default="convexity",
                           choices=["convexity", "consistency", "uniqueness"])
            p.add_argument("--trials", type=int, default=20)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _error(code: int, exc: Exception, location: str) -> str:
    return canonical_dumps({"error": {"code": code, "message": str(exc),
                                      "location": location}})


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    location = args.problem
    code = 0
    try:
        problem = _load(args.problem, args.strict)
        payload, scr = _COMMANDS[args.command](problem, args)
        if not args.csv:
            text = canonical_dumps(payload)
        elif scr is not None:
            text = scr_to_csv(scr, problem.menu.actions, problem.prior.states)
        else:
            location = args.command
            raise InvalidInputError("--csv needs an SCR-producing command")
    except InvalidInputError as exc:
        code, text = 2, _error(2, exc, location)
    except SolverError as exc:
        code, text = 3, _error(3, exc, location)
    try:
        _emit(text, args.out)
    except InvalidInputError as exc:
        # the --out path itself is unwritable: report that on stdout
        _emit(_error(2, exc, args.out), None)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
