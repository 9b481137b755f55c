"""Cross-menu prediction: behavior on the grand menu pins down submenus.

For a smooth cost with finite values on simple policies, a conditionally
full-support rule identifies its rationalizing utility up to a per-state
shift. That shift never moves an argmax, so re-solving the forward
problem on any submenu with the recovered utility predicts what the agent
would do there, no matter which rationalizing utility is the true one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .costs import CostSpec, UnsupportedCostError, policy_cost
from .inverse import recover_utility, unique_check
from .model import (
    InvalidInputError,
    Menu,
    Prior,
    SCR,
    require_valid,
    submenu,
)
from .solver import SolveOptions, solve

_MAX_ENUMERATED_ACTIONS = 6


@dataclass(frozen=True, slots=True)
class SubmenuPrediction:
    actions: tuple[str, ...]
    scr: SCR
    value: float
    verdict: str
    unique_capable: bool
    residual: float


@dataclass(frozen=True, slots=True)
class SubmenuForecast:
    predictions: tuple[SubmenuPrediction, ...]

    def for_actions(self, labels) -> SubmenuPrediction:
        key = tuple(str(a) for a in labels)
        for p in self.predictions:
            if p.actions == key:
                return p
        raise KeyError(f"no prediction for submenu {key}")


def predict_submenus(scr: SCR, menu: Menu, prior: Prior, spec: CostSpec,
                     submenus: list | None = None,
                     opts: SolveOptions | None = None) -> SubmenuForecast:
    """Forecast the rule the agent would use on each submenu.

    Recovers the utility revealed by the grand-menu rule, then ``solve``s
    the forward problem on each requested submenu, one-action ones too,
    with the recovered rows. Per-state nuisance shifts cancel out of every
    argmax, so the forecast does not depend on which rationalizing utility
    generated the data. A prediction's value is the solve's, psi(0)
    included, and its verdict and residual are the solve's certificate's.
    Solutions that the rank test cannot certify as unique are still
    returned, flagged ``unique_capable=False``. A rule that
    ``recover_utility`` refuses is refused with its message (an unbounded
    slope gets ``rationalize``'s), and so is a cost without belief
    gradients at the revealed policy or with an infinite price on some
    simple policy. Submenus are solved with ``opts``' ``tol`` and
    ``max_iter`` from the default marginals.
    """
    require_valid(prior, menu, scr, spec)
    try:
        base = recover_utility(scr, prior, spec).base
    except UnsupportedCostError as exc:
        raise InvalidInputError(
            f"cost is not smooth at the revealed policy: {exc}") from None
    # the cost must price every simple policy finitely; the vertex policy
    # splitting the prior across degenerate beliefs is the extreme case
    if not np.isfinite(policy_cost(spec, np.eye(prior.n_states), prior.weights)):
        raise InvalidInputError("cost is infinite on some simple policy")
    proxy = Menu(menu.actions, base)

    if submenus is None:
        if menu.n_actions > _MAX_ENUMERATED_ACTIONS:
            raise InvalidInputError(
                f"menus beyond {_MAX_ENUMERATED_ACTIONS} actions need an "
                "explicit submenu list"
            )
        targets = [group for size in range(1, menu.n_actions + 1)
                   for group in combinations(menu.actions, size)]
    else:
        targets = [tuple(str(a) for a in group) for group in submenus]
        if not targets:
            raise InvalidInputError("empty submenu list")

    predictions = []
    sub_opts = opts and replace(opts, init_marginals=None)
    for labels in targets:
        sub = submenu(proxy, labels)
        result = solve(sub, prior, spec, sub_opts)
        predictions.append(SubmenuPrediction(
            sub.actions, result.scr, result.value, result.certificate.verdict,
            unique_check(result.scr, prior).unique_capable, result.residual))
    return SubmenuForecast(tuple(predictions))


@dataclass(frozen=True, slots=True)
class ForecastReport:
    trials: int
    completed: int
    skipped_not_interior: int
    max_deviation: float
    flagged_submenus: tuple[tuple[int, tuple[str, ...]], ...]
    seed: int


def forecast_consistency(menu: Menu, prior: Prior, spec: CostSpec,
                         trials: int = 50, seed: int = 0,
                         opts: SolveOptions | None = None) -> ForecastReport:
    """Stress the cross-menu mechanism against ground truth.

    Draws random utilities on the menu's shape, solves the grand menu,
    feeds only the solution into ``predict_submenus``, and compares every
    forecast with a direct solve under the true utility on that submenu.

    When the state space is at least as rich as the action set, each drawn
    utility gives every action a bonus in its own randomly assigned home
    state; without that, most draws degenerate to point-mass optima that
    the mechanism's interiority precondition rules out. Trials whose grand
    optimum still fails the precondition are skipped and counted, and
    submenus where the rank test flags possible multiplicity are recorded.
    ``opts`` applies to the grand solve; submenu solves keep its ``tol`` and
    ``max_iter`` but start from the default marginals.
    """
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    flagged: list[tuple[int, tuple[str, ...]]] = []
    completed = 0
    skipped = 0
    n_a, n_s = menu.utilities.shape
    sub_opts = opts and replace(opts, init_marginals=None)
    for trial in range(trials):
        if n_a <= n_s:
            utilities = rng.normal(0.0, 0.5, size=(n_a, n_s))
            homes = rng.permutation(n_s)[:n_a]
            for a, h in enumerate(homes):
                utilities[a, h] += 2.0
        else:
            utilities = rng.normal(0.0, 1.0, size=(n_a, n_s))
        true_menu = Menu(menu.actions, utilities)
        grand = solve(true_menu, prior, spec, opts)
        try:
            forecast = predict_submenus(grand.scr, true_menu, prior, spec, opts=opts)
        except InvalidInputError:
            skipped += 1
            continue
        for pred in forecast.predictions:
            direct = solve(submenu(true_menu, pred.actions), prior, spec, sub_opts)
            dev = float(np.abs(pred.scr.probs - direct.scr.probs).max())
            max_dev = max(max_dev, dev)
            if not pred.unique_capable:
                flagged.append((trial, pred.actions))
        completed += 1
    return ForecastReport(trials, completed, skipped, max_dev, tuple(flagged), seed)
