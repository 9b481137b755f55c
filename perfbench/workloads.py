"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input comes from ``numpy.random.default_rng([seed, salt])``; the
library only ever sees the generated objects. Inputs are built in set-up as
a pool of operations. In-process workloads batch one fresh instance of
every cell into each operation, and the CLI workload cycles through its
commands, so the share of each cell in a run does not depend on the seed.
A run walks the pool from the start and wraps around if it reaches the
end.

An operation is a pair of callables: ``run()`` does the library work and
returns its output; ``check(output)`` says whether that output is right.
Checks run after the timed loop, so they do not count in the timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import numpy as np

import infochoice as ic
from infochoice import cli as ic_cli
from infochoice.jsonio import cost_to_json

#: log-uniform range of the mutual-information scale
SCALE_RANGE = (1e-2, 1e1)
#: log-uniform range of the chi-square AffinePsi slope. Above about 1 the
#: optimum of a small anchored menu is often a corner that mirror ascent
#: approaches for seconds, so one instance would decide a run's throughput.
CHI_SCALE_RANGE = (1e-2, 1.0)


@dataclass
class Op:
    cell: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    #: the timed stream, walked in order
    ops: list[Op]
    warmup: Op
    #: ops run once before the timed stream; they count in attempted and
    #: failed and in the latencies, not in the stream's throughput
    prologue: list[Op]
    #: the traced run's fixed op list (after the prologue), so that call and
    #: iteration counts repeat exactly for a seed
    trace: list[Op]


# ---------------------------------------------------------------------------
# shared generators


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _prior(rng, n_states: int) -> ic.Prior:
    w = rng.uniform(0.2, 1.0, size=n_states)
    return ic.Prior(_labels("s", n_states), w / w.sum())


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _cost(rng, kind: str, prior: ic.Prior, scale: float | None = None):
    """``mi``: mutual information at a log-uniform scale; ``chi``:
    chi-square through AffinePsi(scale); ``chi_ps``: plain chi-square;
    ``kl2``: KL through PowerPsi(2)."""
    if scale is None and kind in ("mi", "chi"):
        scale = _log_uniform(rng, *(SCALE_RANGE if kind == "mi" else CHI_SCALE_RANGE))
    if kind == "mi":
        return ic.MutualInformation(prior, scale)
    if kind == "chi":
        return ic.Transformed(ic.ChiSquareDivergence(prior), ic.AffinePsi(scale))
    if kind == "chi_ps":
        return ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
    if kind == "kl2":
        return ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0))
    raise ValueError(kind)


def _interior_rule(rng, n_actions: int, n_states: int, floor: float) -> np.ndarray:
    cols = rng.dirichlet(np.ones(n_actions), size=n_states)
    return (floor / n_actions + (1.0 - floor) * cols).T


def _value(menu: ic.Menu, prior: ic.Prior, spec, scr: ic.SCR) -> float:
    benefit = float(prior.weights @ (menu.utilities * scr.probs).sum(axis=0))
    return benefit - ic.kappa(spec, scr, prior)


#: starts of the RuntimeError messages with which the library reports a
#: HiGHS LP that ended without a solution (``grid_oracle``,
#: ``blackwell_geq``). Like SolverError, they are the library's own failure
#: signals on a valid input; ROADMAP item 4 is to give them a documented
#: type and CLI exit code.
LP_FAILURES = ("oracle LP failed", "informativeness LP failed")

#: failure kinds that count as failed ops; any other exception means the
#: benchmark or the library is broken and makes the run incorrect
EXPECTED_FAILURES = ("SolverError", "LPFailure")


def failure_kind(exc: BaseException) -> str:
    """``SolverError``, ``LPFailure`` or the exception's type name."""
    if isinstance(exc, ic.SolverError):
        return "SolverError"
    if type(exc) is RuntimeError and str(exc).startswith(LP_FAILURES):
        return "LPFailure"
    return type(exc).__name__


def batch(parts: list[Op], cell: str) -> Op:
    """One op made of several instances, run in order. An expected failure
    in one part does not stop the others; the batch raises the first one
    at the end."""

    def run():
        outs, error = [], None
        for part in parts:
            try:
                outs.append(part.run())
            except Exception as exc:
                if failure_kind(exc) not in EXPECTED_FAILURES:
                    raise
                outs.append(None)
                error = error or exc
        if error is not None:
            raise error
        return outs

    def check(outs) -> bool:
        return all(part.check(out) for part, out in zip(parts, outs))

    return Op(cell, run, check)


# ---------------------------------------------------------------------------
# forward: solve, then certify


#: one forward op is a batch: a fresh instance of every (size, cost kind)
#: cell below. Single solve times vary 100-fold between random instances of
#: one cell, so a run needs many small solves, and batches keep op
#: latencies comparable from seed to seed.
FORWARD_CELLS = [(2, "mi"), (2, "chi"), (2, "kl2"),
                 (3, "mi"), (3, "chi"), (3, "kl2"),
                 (4, "mi"), (4, "chi"), (4, "kl2")]
FORWARD_BATCHES = 600
#: larger menus, solved only in the traced run: one 6x6 chi or KL solve
#: can take as long as a whole batch, and a 20x20 one seconds, so a few of
#: them would decide a timed run. Their iteration and kernel-call counts
#: repeat exactly for a seed.
FORWARD_TRACED_LARGER = [(6, "mi"), (6, "chi"), (6, "kl2"),
                         (10, "mi"), (10, "chi"), (10, "kl2"), (20, "mi")]
FORWARD_TRACED_BATCHES = 4
#: every action gets this bonus in its own home state, so the optimum uses
#: many actions instead of crawling toward a corner
FORWARD_HOME_BONUS = 2.0
#: the cheap-information canary: MI at scale 1e-3 on a 6x6 menu, where
#: ``solve_mi`` runs out its iteration budget and raises
FORWARD_CANARY = (6, 1e-3)


class _Scales:
    """Log-uniform cost scales, stratified per cell: each block of
    ``strata`` draws of a cell puts one draw in every stratum of the log
    range, in seeded random order."""

    def __init__(self, rng, strata: int = 6):
        self.rng = rng
        self.strata = strata
        self.queues: dict = {}

    def draw(self, cell, bounds) -> float:
        queue = self.queues.setdefault(cell, [])
        if not queue:
            queue.extend(self.rng.permutation(self.strata).tolist())
        k = queue.pop()
        lo, hi = np.log(bounds[0]), np.log(bounds[1])
        return float(np.exp(lo + (hi - lo) * (k + self.rng.uniform()) / self.strata))


def _forward_op(rng, n: int, kind: str, scale: float) -> Op:
    prior = _prior(rng, n)
    u = rng.normal(0.0, 1.0, size=(n, n))
    u[np.arange(n), rng.permutation(n)] += FORWARD_HOME_BONUS
    menu = ic.Menu(_labels("a", n), u)
    spec = _cost(rng, kind, prior, scale)

    def run():
        result = ic.solve(menu, prior, spec)
        return result, ic.certify(result.scr, menu, prior, spec)

    def check(out) -> bool:
        return out[1].verdict == "optimal"

    return Op(f"{n}x{n}-{kind}", run, check)


def forward(seed: int, workdir: str, runner: CliRunner) -> Workload:
    rng = np.random.default_rng([seed, 1])
    scales = _Scales(rng)

    def make(n, kind):
        bounds = CHI_SCALE_RANGE if kind == "chi" else SCALE_RANGE
        return _forward_op(rng, n, kind, scales.draw((n, kind), bounds))

    ops = [batch([make(n, kind) for n, kind in FORWARD_CELLS], "batch")
           for _ in range(FORWARD_BATCHES)]
    larger = [make(n, kind) for n, kind in FORWARD_TRACED_LARGER]
    n, scale = FORWARD_CANARY
    canary = _forward_op(rng, n, "mi", scale)
    canary.cell = f"{n}x{n}-mi-{scale:g}"
    warmup = make(3, "mi")
    return Workload(ops, warmup, prologue=[canary],
                    trace=ops[:FORWARD_TRACED_BATCHES] + larger)


# ---------------------------------------------------------------------------
# audit: reveal, kappa, certify, inversion, uniqueness, Blackwell, oracle


#: (actions, states, cost kind, boundary rule with an excluded action)
AUDIT_CELLS = [(2, 2, "mi", False), (3, 2, "chi_ps", False),
               (3, 3, "mi", True), (4, 3, "chi_ps", False),
               (3, 3, "kl2", False), (4, 4, "mi", False),
               (6, 4, "chi_ps", True), (5, 5, "kl2", False)]
AUDIT_BATCHES = 300
AUDIT_TRACED_BATCHES = 8
_AUDIT_FLOOR = 0.05
_PERTURBATION = 0.1


@dataclass
class AuditCase:
    prior: ic.Prior
    spec: Any
    scr: ic.SCR
    menu: ic.Menu          # rationalizing utility plus a per-state shift
    perturbed: ic.Menu     # the same with one supported entry raised
    excluded: tuple[int, ...]
    garble_beta: float
    rule_dominates: bool   # direction of the Blackwell comparison
    oracle: bool
    twin: bool

    @property
    def interior(self) -> bool:
        return not self.excluded


def _audit_case(rng, n_a: int, n_s: int, kind: str, boundary: bool,
                rule_dominates: bool) -> AuditCase:
    prior = _prior(rng, n_s)
    spec = _cost(rng, kind, prior)
    probs = _interior_rule(rng, n_a, n_s, _AUDIT_FLOOR)
    excluded: tuple[int, ...] = ()
    if boundary:
        b = int(rng.integers(n_a))
        probs[b] = 0.0
        probs = probs / probs.sum(axis=0, keepdims=True)
        excluded = (b,)
    scr = ic.SCR(probs)
    base = ic.rationalize(scr, prior, spec).utilities
    u = base + rng.normal(0.0, 1.0, size=n_s)[None, :]
    menu = ic.Menu(_labels("a", n_a), u)
    supported = [a for a in range(n_a) if a not in excluded]
    bumped = u.copy()
    bumped[rng.choice(supported), rng.integers(n_s)] += _PERTURBATION
    affine = isinstance(spec, (ic.MutualInformation, ic.PosteriorSeparable))
    unique = not excluded and n_a <= n_s
    return AuditCase(prior, spec, scr, menu, ic.Menu(menu.actions, bumped),
                     excluded, float(rng.uniform(0.3, 0.8)), rule_dominates,
                     oracle=affine and n_s <= 3, twin=affine and not unique)


def audit_run(case: AuditCase) -> dict:
    out: dict[str, Any] = {}
    out["reveal"] = rp = ic.reveal(case.scr, case.prior)
    out["kappa"] = ic.kappa(case.spec, case.scr, case.prior)
    out["certify"] = ic.certify(case.scr, case.menu, case.prior, case.spec)
    out["certify_perturbed"] = ic.certify(case.scr, case.perturbed, case.prior,
                                          case.spec)
    try:
        out["recovered"] = ic.recover_utility(case.scr, case.prior, case.spec)
    except ic.InvalidInputError:
        out["recovered"] = None
    out["unique"] = ic.unique_check(case.scr, case.prior)
    policy = rp.policy()
    garbled = ic.mix_policies(policy, ic.SimpleInfoPolicy.uninformative(case.prior),
                              case.garble_beta)
    out["blackwell"] = (ic.blackwell_geq(policy, garbled) if case.rule_dominates
                        else ic.blackwell_geq(garbled, policy))
    if case.oracle:
        out["oracle"] = ic.grid_oracle(case.menu, case.prior, case.spec)
    if case.twin and not out["unique"].unique_capable:
        out["twin"] = ic.find_equivalent(case.scr, case.menu, case.prior, case.spec)
    return out


def audit_check(case: AuditCase, out: dict) -> bool:
    prior = case.prior.weights
    n_a, n_s = case.scr.probs.shape
    rp = out["reveal"]
    if rp.excluded != case.excluded or abs(rp.marginals.sum() - 1.0) > 1e-9:
        return False
    bary = sum(rp.marginals[a] * rp.posteriors[a].weights for a in rp.included)
    if np.abs(bary - prior).max() > 1e-9:
        return False
    kap = out["kappa"]
    if not np.isfinite(kap) or kap < -1e-12:
        return False
    if isinstance(case.spec, ic.MutualInformation) and \
            kap > case.spec.scale * np.log(min(n_a, n_s)) + 1e-9:
        return False
    if out["certify"].verdict != "optimal":
        return False
    if out["certify_perturbed"].verdict != "not-optimal":
        return False
    rec = out["recovered"]
    if case.interior:
        if rec is None:
            return False
        gap = case.menu.utilities - rec.base
        if np.abs(gap - gap[0]).max() > 1e-8 * (1.0 + np.abs(gap).max()):
            return False
    elif rec is not None:
        return False
    expect_unique = case.interior and n_a <= n_s
    if out["unique"].unique_capable != expect_unique:
        return False
    if out["blackwell"].holds != case.rule_dominates:
        return False
    observed = _value(case.menu, case.prior, case.spec, case.scr)
    if "oracle" in out and out["oracle"].value > observed + 1e-7 * (1.0 + abs(observed)):
        return False
    twin = out.get("twin")
    if twin is not None:
        if np.abs(twin.probs - case.scr.probs).max() <= 1e-9:
            return False
        if abs(_value(case.menu, case.prior, case.spec, twin) - observed) > \
                1e-9 * (1.0 + abs(observed)):
            return False
    return True


def _audit_op(case: AuditCase, cell: str) -> Op:
    return Op(cell, lambda: audit_run(case), lambda out: audit_check(case, out))


def audit(seed: int, workdir: str, runner: CliRunner) -> Workload:
    """One op is a batch with a fresh case of every AUDIT_CELLS entry."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for _ in range(AUDIT_BATCHES):
        parts = []
        for k, (n_a, n_s, kind, boundary) in enumerate(AUDIT_CELLS):
            # half the cells test each Blackwell direction; the split is the
            # same in every batch so that batches do the same work
            case = _audit_case(rng, n_a, n_s, kind, boundary,
                               rule_dominates=k % 2 == 0)
            parts.append(_audit_op(case, f"{n_a}x{n_s}-{kind}"))
        ops.append(batch(parts, "batch"))
    warmup = _audit_op(_audit_case(rng, 2, 2, "mi", False, True), "2x2-mi")
    return Workload(ops, warmup, prologue=[], trace=ops[:AUDIT_TRACED_BATCHES])


# ---------------------------------------------------------------------------
# cross-menu: predict_submenus over every submenu of a grand menu


#: one cross-menu op is a batch: a fresh grand menu of every
#: (actions, states, cost kind) cell below. Fewer actions than states keeps
#: the grand rule unique-capable, so the grand forecast must reproduce it;
#: two or three states more than actions keeps submenu solves from
#: crawling toward excluded actions.
CROSS_CELLS = [(3, 5, "mi"), (3, 5, "chi"), (4, 7, "mi")]
CROSS_BATCHES = 400
#: larger grand menus, forecast only in the traced run: each takes 0.5-3 s
#: and the 5-action MI ones sometimes end in a SolverError after seconds
CROSS_TRACED_LARGER = [(4, 7, "chi"), (5, 7, "mi"), (5, 7, "chi")]
CROSS_TRACED_BATCHES = 2
_CROSS_FLOOR = 0.3


def _cross_op(rng, n_a: int, n_s: int, kind: str) -> Op:
    prior = _prior(rng, n_s)
    spec = _cost(rng, kind, prior)
    scr = ic.SCR(_interior_rule(rng, n_a, n_s, _CROSS_FLOOR))
    base = ic.rationalize(scr, prior, spec).utilities
    menu = ic.Menu(_labels("a", n_a),
                   base + rng.normal(0.0, 1.0, size=n_s)[None, :])

    def run():
        return ic.predict_submenus(scr, menu, prior, spec)

    def check(forecast) -> bool:
        grand = forecast.for_actions(menu.actions)
        if np.abs(grand.scr.probs - scr.probs).max() > 1e-6:
            return False
        expected = sum(1 for k in range(1, n_a + 1) for _ in combinations(range(n_a), k))
        if len(forecast.predictions) != expected:
            return False
        for pred in forecast.predictions:
            truth = ic.submenu(menu, pred.actions)
            if ic.certify(pred.scr, truth, prior, spec).verdict != "optimal":
                return False
        return True

    return Op(f"{n_a}x{n_s}-{kind}", run, check)


def cross_menu(seed: int, workdir: str, runner: CliRunner) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = [batch([_cross_op(rng, *cell) for cell in CROSS_CELLS], "batch")
           for _ in range(CROSS_BATCHES)]
    larger = [_cross_op(rng, *cell) for cell in CROSS_TRACED_LARGER]
    warmup = _cross_op(rng, 3, 5, "mi")
    return Workload(ops, warmup, prologue=[],
                    trace=ops[:CROSS_TRACED_BATCHES] + larger)


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per command, over problem files


CLI_COMMANDS = ["solve", "certify", "kappa", "invert", "unique", "predict",
                "blackwell", "oracle"]
CLI_ROUNDS = 12


def _cli_problem(rng, command: str) -> tuple[dict, list[str]]:
    # predict gets fewer actions than states: square menus sometimes send
    # a submenu solve crawling for seconds, which would swamp the import
    # time this workload is about
    n_s = 3 if command == "predict" else 2 + int(rng.integers(2))
    n_a = 2 if command == "predict" else 2 + int(rng.integers(2))
    prior = _prior(rng, n_s)
    kind = ("mi", "chi_ps")[int(rng.integers(2))]
    spec = _cost(rng, kind, prior)
    scr = ic.SCR(_interior_rule(rng, n_a, n_s, 0.1))
    if command in ("solve", "oracle"):
        u = rng.normal(0.0, 1.0, size=(n_a, n_s))
    else:
        u = ic.rationalize(scr, prior, spec).utilities + rng.normal(0.0, 1.0, n_s)
        if command == "certify" and rng.uniform() < 0.5:
            u[0, 0] += _PERTURBATION
    data = {
        "states": list(prior.states),
        "prior": [float(w) for w in prior.weights],
        "actions": _labels("a", n_a),
        "utilities": u.tolist(),
        "cost": cost_to_json(spec),
        "scr": scr.probs.tolist(),
    }
    if command == "blackwell":
        p = ic.reveal(scr, prior).policy()
        q = ic.mix_policies(p, ic.SimpleInfoPolicy.uninformative(prior),
                            float(rng.uniform(0.3, 0.8)))
        if rng.uniform() < 0.5:
            p, q = q, p
        data["policies"] = {
            name: {"beliefs": [b.weights.tolist() for b in pol.beliefs],
                   "weights": pol.weights.tolist()}
            for name, pol in (("p", p), ("q", q))
        }
    extra = {"predict": ["--submenus", "all"]}.get(command, [])
    return data, extra


def in_process_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run the CLI entry point in this process and capture its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ic_cli.main(argv)
    return code, buf.getvalue().encode()


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def _run_child(cmd: list[str], env: dict, cwd: str) -> tuple[int, bytes, bytes, float, int]:
    """Run one child to completion and reap it with wait4, which gives that
    child's own peak resident set size. Returns exit code, stdout, stderr,
    the monotonic time just before the spawn and the peak RSS in KiB."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, t_spawn, usage.ru_maxrss


class CliRunner:
    """Spawns one CLI child at a time from the benchmark process."""

    def __init__(self, root: str, src_dir: str, traced: bool = False):
        self.root = root
        self.env = child_env(src_dir)
        self.traced = traced
        self.child_script = os.path.join(root, "perfbench", "cli_child.py")

    def command(self, argv: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, self.child_script, *argv]
        return [sys.executable, "-m", "infochoice.cli", *argv]

    def run(self, argv: list[str]) -> dict:
        code, out, err, t_spawn, rss = _run_child(self.command(argv), self.env,
                                                  self.root)
        result = {"code": code, "stdout": out, "stderr": err, "rss_kb": rss}
        lines = err.decode(errors="replace").strip().splitlines()
        if self.traced and lines and lines[-1].startswith("{"):
            trace = json.loads(lines[-1])
            trace["interpreter_ms"] = (trace.pop("t_start") - t_spawn) * 1e3
            result["trace"] = trace
        return result


def cli(seed: int, workdir: str, runner: CliRunner) -> Workload:
    rng = np.random.default_rng([seed, 4])
    os.makedirs(workdir, exist_ok=True)
    ops = []
    expected_cache: dict[int, tuple[int, bytes]] = {}

    def make(command: str, idx: int) -> Op:
        data, extra = _cli_problem(rng, command)
        path = os.path.join(workdir, f"{idx:03d}-{command}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        argv = [command, path, *extra]

        def run():
            out = runner.run(argv)
            if out["code"] == 3:  # the CLI's documented non-convergence exit
                raise ic.SolverError(f"cli {command} exited 3", float("nan"))
            # an LP failure escapes the CLI as a traceback ending in it
            last = (out["stderr"].decode(errors="replace").strip().splitlines()
                    or [""])[-1]
            prefix = "RuntimeError: "
            if out["code"] == 1 and last.startswith(prefix) and \
                    last[len(prefix):].startswith(LP_FAILURES):
                raise RuntimeError(last[len(prefix):])
            return out

        def check(out) -> bool:
            if idx not in expected_cache:
                expected_cache[idx] = in_process_cli(argv)
            code, expected = expected_cache[idx]
            return out["code"] == 0 and code == 0 and out["stdout"] == expected

        return Op(command, run, check)

    for r in range(CLI_ROUNDS):
        for command in CLI_COMMANDS:
            ops.append(make(command, len(ops)))
    warmup = make("solve", len(ops))
    return Workload(ops, warmup, prologue=[], trace=ops[:len(CLI_COMMANDS)])


#: workload name -> builder(seed, workdir for input files, CLI runner)
BUILDERS = {"forward": forward, "audit": audit, "cross-menu": cross_menu, "cli": cli}
