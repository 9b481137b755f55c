"""Forward solvers for the agent's program: maximize E[u . s] - kappa(s).

Two routes are implemented.

``solve_mi`` handles mutual-information costs with an alternating fixed
point on the action marginals: given marginals, the optimal rule is a
state-wise logit in the scaled utilities; given the rule, marginals are
its expectation under the prior. Actions whose marginal collapses are
dropped, and dropped actions are re-admitted if they violate the
no-profitable-entry condition at the candidate optimum.

``solve_ps`` handles any cost that exposes a derivative (mutual
information, posterior separable, transformed) with entropic mirror
ascent on the per-state simplices, using an Armijo line search so the
objective never decreases. Transformed costs price each step at the
derivative weight of the current iterate.

Both solvers share one residual routine with the certificate,
``inverse.first_order``: it supplies the mirror ascent's gradients and
slack, every snap, readmission and convergence test, the corner screen
of ``solve_mi``, and the residual of each result, which is read off the
returned rule's own probabilities exactly as ``certify`` reads it.

``grid_oracle`` is a brute-force concavification check for up to three
states: maximize expected (payoff upper envelope minus divergence) over
lattice beliefs subject to the barycenter pinning the prior, an LP. It is
solved by column generation: a restricted LP over a coarse sub-lattice and
the simplex vertices, whose duals price every lattice belief; beliefs with
a negative reduced cost join and the LP is solved again. It stops when the
dual hyperplane lies on or above the net payoff at every lattice belief,
the optimality certificate of the LP over the whole lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .costs import CostSpec, MutualInformation, derivative_basis, policy_cost
from .inverse import (
    FirstOrder,
    first_order,
    revealed_gradients,
    revealed_posteriors,
    rule_derivative,
    rule_first_order,
)
from .model import (
    SUPPORT_THRESHOLD,
    Belief,
    InvalidInputError,
    Menu,
    Prior,
    SCR,
    SimpleInfoPolicy,
    require_valid,
)

_ENTRY_TOL = 1e-9
_DROP_MARGINAL = 1e-12
_DROP_PATIENCE = 100
_POSITIVITY_FLOOR = 1e-250


class SolverError(RuntimeError):
    """Raised on non-convergence; carries the last residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by the solvers. ``tol`` defaults per solver when None."""

    tol: float | None = None
    max_iter: int = 100_000
    seed: int = 0
    init_marginals: np.ndarray | None = None
    step_size: float | None = None


@dataclass(frozen=True)
class SolveResult:
    scr: SCR
    value: float
    iterations: int
    residual: float
    method: str


@dataclass(frozen=True)
class GridOracleResult:
    policy: SimpleInfoPolicy
    value: float
    scr: SCR
    assigned_actions: tuple[int, ...]


def _value(u: np.ndarray, s: np.ndarray, mu0: np.ndarray, spec: CostSpec) -> float:
    """Expected utility of a rule minus the cost of the policy revealed by
    every row with a positive marginal."""
    p, rows, post = revealed_posteriors(s, mu0)
    return float(mu0 @ (u * s).sum(axis=0)) - policy_cost(spec, post, p[rows])


def _result(u: np.ndarray, mu0: np.ndarray, spec: CostSpec, s: np.ndarray,
            iterations: int, method: str) -> SolveResult:
    """The result for rule ``s``; its residual is read off the SCR's own
    probabilities, exactly as ``certify`` reads it."""
    scr = SCR(s)
    residual = rule_first_order(u, scr.probs, mu0, spec, entry=True).residual
    return SolveResult(scr, _value(u, scr.probs, mu0, spec), iterations, residual,
                       method)


# ---------------------------------------------------------------------------
# Mutual information: alternating fixed point on marginals


def solve_mi(menu: Menu, prior: Prior, scale: float,
             opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice under mutual-information cost.

    Converges when the marginal fixed-point gap and the first-order
    residual both fall under ``opts.tol`` (default 1e-10). The returned
    rule uses all and only the actions that pass the no-profitable-entry
    test.
    """
    opts = opts or SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-10
    if scale <= 0.0:
        raise InvalidInputError("scale must be positive")
    require_valid(prior, menu)
    prior.require_full_support()

    spec = MutualInformation(prior, scale)
    div = spec.divergence
    n_a = menu.n_actions
    mu0 = prior.weights
    u = menu.utilities
    scaled = u / scale
    peak = scaled.max(axis=0)
    expu = np.exp(scaled - peak[None, :])

    # corner screening: a point mass on one action is optimal exactly when
    # every rival's entry margin is negative; that settles the
    # no-information regime the iteration crawls through
    means = u @ mu0
    for a in np.argsort(-means):
        corner = np.zeros_like(u)
        corner[a] = 1.0
        foc = first_order(u, corner, mu0, div, scale, entry=True)
        if all(margin < 0.0 for margin in foc.entry_margins.values()):
            return _result(u, mu0, spec, corner, 0, "mi-fixed-point")
        if means[a] < means.max():
            break

    active = np.ones(n_a, dtype=bool)
    if opts.init_marginals is not None:
        p = np.asarray(opts.init_marginals, dtype=float)
        if p.shape != (n_a,) or p.min() <= 0.0:
            raise InvalidInputError("init_marginals must be strictly positive per action")
        p = p / p.sum()
    else:
        p = np.full(n_a, 1.0 / n_a)

    def logit(p: np.ndarray) -> np.ndarray:
        """The optimal rule given the marginals of the active actions."""
        pa = np.where(active, p, 0.0)
        return pa[:, None] * expu / (pa @ expu)[None, :]

    low_count = np.zeros(n_a, dtype=int)
    iterations = 0
    readmissions = 0

    while True:
        converged = False
        while iterations < opts.max_iter:
            iterations += 1
            s = logit(p)
            p_new = s @ mu0

            low = active & (p_new < _DROP_MARGINAL)
            low_count[low] += 1
            low_count[~low] = 0
            if np.any(low_count >= _DROP_PATIENCE):
                active &= ~(low_count >= _DROP_PATIENCE)
                low_count[:] = 0
                p_new = np.where(active, p_new, 0.0)
                p = p_new / p_new.sum()
                continue

            # convergence is judged on the actions the certificate will treat
            # as supported; a marginal decaying below the support cutoff is
            # policed by the entry condition instead
            firm = active & (p_new > SUPPORT_THRESHOLD)
            gap = float(np.abs(p_new - p)[firm].max())
            if gap < tol:
                # small marginals must have genuinely settled, not still be
                # decaying toward exclusion at a rate the absolute gap hides
                small = active & (p > 0.0) & (p < 1e-4)
                with np.errstate(divide="ignore"):
                    rates = np.abs(np.log(p_new[small] / p[small])) if small.any() \
                        else np.zeros(0)
                settled = rates.size == 0 or (np.isfinite(rates).all()
                                              and scale * rates.max() < 1e-8)
                if settled:
                    foc = first_order(u, s, mu0, div, scale, entry=True)
                    if foc.residual < max(tol, 1e-12):
                        p = p_new
                        converged = True
                        break
            p = p_new
        if not converged:
            raise SolverError("marginal fixed point did not converge",
                              first_order(u, logit(p), mu0, div, scale,
                                          entry=True).residual)

        violators = [b for b, margin in foc.entry_margins.items()
                     if not active[b] and margin > scale * _ENTRY_TOL]
        if not violators:
            break
        if readmissions >= 2 * n_a:
            raise SolverError("entry condition kept re-admitting actions",
                              max(foc.entry_margins[b] for b in violators))
        readmissions += 1
        active[violators] = True
        p = np.where(active, np.maximum(p, 1e-3), 0.0)
        p = p / p.sum()
        low_count[:] = 0

    s = logit(p)
    # rows that ended below the support cutoff are excluded actions; make
    # that exact so downstream consumers see clean zeros
    faded = active & ((s @ mu0) < 0.5 * SUPPORT_THRESHOLD)
    if faded.any():
        s[faded] = 0.0
        s = s / s.sum(axis=0, keepdims=True)
    return _result(u, mu0, spec, s, iterations, "mi-fixed-point")


# ---------------------------------------------------------------------------
# Mirror ascent for derivative-carrying costs


def _polish(u: np.ndarray, mu0: np.ndarray, spec: CostSpec, s_init: np.ndarray,
            log_param: bool) -> np.ndarray | None:
    """Newton-solve the interior stationarity system on the localized
    support pattern: within every state, supported actions with positive
    probability price equally, and each state's probabilities sum to one.

    Returns the refined rule, or None when the pattern does not admit an
    interior solution nearby.
    """
    from scipy.optimize import root

    supported = (s_init @ mu0) > SUPPORT_THRESHOLD
    mask = supported[:, None] & (s_init > 1e-12)
    if not (mask.sum(axis=0) > 0).all():
        return None

    base = np.where(mask, s_init, 0.0)
    base = base / base.sum(axis=0, keepdims=True)
    x0 = np.log(base[mask]) if log_param else base[mask]
    # each state's price equalities are taken against its first supported
    # action, which therefore carries no equation of its own
    states = np.arange(s_init.shape[1])
    ref = mask.argmax(axis=0)
    pairs = mask.copy()
    pairs[ref, states] = False
    rejected = np.full(len(x0), 1e6)

    def unpack(x):
        s = np.zeros_like(s_init)
        s[mask] = np.exp(np.minimum(x, 30.0)) if log_param else x
        return s

    def equations(x):
        s = unpack(x)
        p, grads = revealed_gradients(s, mu0, *rule_derivative(spec, s, mu0))
        if p[supported].min() <= 0.0 or not np.isfinite(grads).all():
            return rejected
        m = u - grads
        return np.concatenate([(m - m[ref, states])[pairs], s.sum(axis=0) - 1.0])

    try:
        sol = root(equations, x0, method="hybr", options={"xtol": 1e-13})
    except (ValueError, FloatingPointError):
        return None
    if not sol.success:
        return None
    s = unpack(sol.x)
    if s.min() < -1e-12:
        return None
    s = np.clip(s, 0.0, None)
    cols = s.sum(axis=0)
    if np.abs(cols - 1.0).max() > 1e-9:
        return None
    return s / cols[None, :]


def _mirror_solve(menu: Menu, prior: Prior, spec: CostSpec, opts: SolveOptions,
                  tol: float) -> tuple[np.ndarray, int]:
    """Entropic mirror ascent on E[u s] minus the information price.

    Multiplicative updates keep iterates strictly positive, which is what
    divergences with unbounded boundary slopes require; divergences that
    stay smooth at the simplex boundary may park coordinates at exact
    zeros. Once the first-order slack is small the support pattern has
    stabilized and a Newton polish of the stationarity system finishes the
    job; the ascent itself never decreases the objective.
    """
    n_a, n_s = menu.n_actions, menu.n_states
    mu0 = prior.weights
    u = menu.utilities

    s = np.full((n_a, n_s), 1.0 / n_a)
    div, weight = rule_derivative(spec, s, mu0)
    smooth_boundary = div.gradient_defined(np.zeros(n_s))
    active = np.ones(n_a, dtype=bool)

    if opts.step_size is not None:
        eta = opts.step_size
    else:
        eta = 1.0 / weight if weight > 1e-8 else 1.0
    eta_max = max(eta, 1.0) * 1e4
    obj = _value(u, s, mu0, spec)
    revivals = 0
    polish_attempts = 0
    best_slack = np.inf
    since_improvement = 0

    def cleaned(candidate: np.ndarray) -> np.ndarray | None:
        """Exit hygiene: make semantic zeros exact.

        Rows whose marginal fell below the support cutoff are excluded
        actions; for boundary-smooth divergences, coordinates that are
        negligibly small while pricing firmly below the state optimum are
        boundary zeros whose multiplier slack would otherwise leak into
        recovered utilities.
        """
        out = candidate.copy()
        marg = out @ mu0
        changed = False
        faded = (marg > 0.0) & (marg < 0.5 * SUPPORT_THRESHOLD)
        if faded.any():
            out[faded] = 0.0
            changed = True
        if smooth_boundary:
            foc = rule_first_order(u, out, mu0, spec)
            # a small coordinate pricing firmly below the state optimum is a
            # boundary zero; zeroing it costs at most gamma * s in value,
            # which the guard keeps within residual scale
            snap = (foc.supported[:, None] & (out > 0.0) & (out < 1e-4)
                    & (foc.gamma > 1e-6) & (foc.gamma * out <= 10.0 * tol))
            if snap.any():
                out = np.where(snap, 0.0, out)
                changed = True
        if not changed:
            return None
        cols = out.sum(axis=0)
        if cols.min() <= 0.0:
            return None
        return out / cols[None, :]

    def finish(candidate: np.ndarray) -> tuple[np.ndarray, FirstOrder]:
        """The exit-cleaned candidate with its full first-order result when
        that clears tol, else the candidate itself with its own."""
        tidy = cleaned(candidate)
        if tidy is not None:
            foc = rule_first_order(u, tidy, mu0, spec, entry=True)
            if foc.residual < tol:
                return tidy, foc
        return candidate, rule_first_order(u, candidate, mu0, spec, entry=True)

    it = 0
    while it < opts.max_iter:
        it += 1
        foc = rule_first_order(u, s, mu0, spec)

        dead = active & (foc.marginals < 1e-60)
        if dead.any():
            active &= ~dead
            s[dead] = 0.0
            s = s / s.sum(axis=0, keepdims=True)
            obj = _value(u, s, mu0, spec)
            continue

        # only rows the certificate treats as supported constrain the
        # multiplier; actions still decaying toward zero do not
        slack = foc.slack
        if slack < best_slack * 0.9:
            best_slack, since_improvement = slack, 0
        else:
            since_improvement += 1
            if since_improvement >= 100:
                eta = max(eta * 0.5, 1e-10)
                since_improvement = 0

        if slack < tol and (it % 5 == 0 or slack < 0.1 * tol):
            rule, full = finish(s)
            if full.residual < tol:
                return rule, it
            # a shut-down action prices above its entry threshold: re-admit
            violator = next((b for b, margin in full.entry_margins.items()
                             if margin > tol), None)
            if violator is not None and revivals < 3 * n_a:
                revivals += 1
                active[violator] = True
                s[violator] = np.maximum(s[violator], 1e-3 / n_a)
                s = s / s.sum(axis=0, keepdims=True)
                obj = _value(u, s, mu0, spec)
                continue

        if slack < 1e-5 and polish_attempts < 8 and it % 20 == 0:
            polish_attempts += 1
            refined = _polish(u, mu0, spec, s, not smooth_boundary)
            if refined is not None:
                rule, full = finish(refined)
                if full.residual < tol:
                    return rule, it

        act = np.flatnonzero(active)
        m = u[act] - foc.grads[act]
        # a per-state constant cancels in the column normalization; taking
        # off the column maximum only keeps exp in range
        shift = m - m.max(axis=0)
        accepted = False
        while eta >= 1e-12:
            trial = s.copy()
            trial[act] = s[act] * np.exp(np.maximum(eta * shift, -700.0))
            if not smooth_boundary:
                trial[act] = np.maximum(trial[act], _POSITIVITY_FLOOR)
            trial = trial / trial.sum(axis=0, keepdims=True)
            trial_obj = _value(u, trial, mu0, spec)
            if trial_obj >= obj - 1e-15 * (1.0 + abs(obj)):
                s, obj = trial, trial_obj
                eta = min(eta * 1.25, eta_max)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

        if smooth_boundary and it % 50 == 0:
            foc = rule_first_order(u, s, mu0, spec)
            snap = foc.supported[:, None] & (s < 1e-16) & (s > 0.0) & (foc.gamma > 1e-6)
            revive = foc.supported[:, None] & (s == 0.0) & (foc.gamma < 1e-12)
            if snap.any() or revive.any():
                s = np.where(snap, 0.0, s)
                s = np.where(revive, 1e-10, s)
                s = s / s.sum(axis=0, keepdims=True)
                obj = _value(u, s, mu0, spec)

    rule, full = finish(s)
    if full.residual < tol:
        return rule, it
    refined = _polish(u, mu0, spec, s, not smooth_boundary)
    if refined is not None:
        rule, polished = finish(refined)
        if polished.residual < tol:
            return rule, it
    raise SolverError("mirror ascent did not reach the target residual",
                      full.residual)


def solve_ps(menu: Menu, prior: Prior, spec: CostSpec,
             opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice for any cost exposing a derivative.

    Transformed costs need no outer loop: the ascent prices each step at
    psi'(expected divergence) of the current rule, which is exactly the
    derivative weight the certificate recomputes at the returned policy.
    """
    opts = opts or SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-8
    require_valid(prior, menu)
    prior.require_full_support()
    s, iters = _mirror_solve(menu, prior, spec, opts, tol)
    return _result(menu.utilities, prior.weights, spec, s, iters, "mirror-ascent")


def solve(menu: Menu, prior: Prior, spec: CostSpec,
          opts: SolveOptions | None = None) -> SolveResult:
    """Dispatch to the specialized solver for the cost variant."""
    if isinstance(spec, MutualInformation):
        return solve_mi(menu, prior, spec.scale, opts)
    return solve_ps(menu, prior, spec, opts)


# ---------------------------------------------------------------------------
# Brute-force lattice oracle


#: the restricted oracle LP starts on lattice beliefs whose coordinates
#: (all but the last) are multiples of this many lattice steps
_COARSE_STEP = 10
#: a lattice belief enters the restricted LP when its reduced cost is below
#: minus this fraction of the largest |net payoff|
_PRICING_RTOL = 1e-12


def _simplex_lattice(n_states: int, resolution: int) -> np.ndarray:
    if n_states == 1:
        return np.ones((1, 1))
    if n_states == 2:
        x = np.linspace(0.0, 1.0, resolution + 1)
        return np.column_stack([x, 1.0 - x])
    # row i of the upper triangle holds (i, j, resolution - i - j) for
    # j = 0 .. resolution - i, in row-major order
    i, c = np.triu_indices(resolution + 1)
    return np.column_stack([i, c - i, resolution - c]) / resolution


def grid_oracle(menu: Menu, prior: Prior, spec: CostSpec,
                grid_resolution: int | None = None) -> GridOracleResult:
    """Concavification on a simplex lattice, for up to three states.

    Maximizes sum_i w_i (payoff envelope(mu_i) - divergence(mu_i)) over
    lattice beliefs subject to the weighted beliefs averaging back to the
    prior. Valid for costs whose derivative does not move with the policy
    (mutual information, posterior separable). Ties in the payoff envelope
    go to the lowest action index for reproducibility.

    The LP is solved by column generation. The restricted LP starts on
    every tenth lattice step plus the simplex vertices, so it is always
    feasible. Its equality duals y price every lattice belief mu at the
    reduced cost -net(mu) - mu . y; every belief priced below -1e-12 times
    the largest |net| enters, and the LP is solved again. When none enters,
    the hyperplane mu -> -mu . y lies on or above the net payoff at every
    lattice belief, so it supports the concavified net payoff and the
    restricted optimum is the optimum over the whole lattice. Each round
    adds a belief, so the loop ends.
    """
    require_valid(prior, menu)
    prior.require_full_support()
    n_s = prior.n_states
    if n_s > 3:
        raise InvalidInputError("grid oracle supports at most three states")
    # transformed costs are refused here: their weight moves with the policy
    div, weight = derivative_basis(spec)
    if grid_resolution is None:
        grid_resolution = 400 if n_s <= 2 else 100
    if not isinstance(grid_resolution, (int, np.integer)) or grid_resolution < 1:
        raise InvalidInputError(
            f"grid resolution must be an integer >= 1, got {grid_resolution!r}"
        )

    beliefs = _simplex_lattice(n_s, grid_resolution)
    payoff = menu.utilities @ beliefs.T
    assigned = payoff.argmax(axis=0)
    net = payoff.max(axis=0) - weight * div.values(beliefs)

    steps = np.rint(beliefs[:, :-1] * grid_resolution)
    coarse = np.all(steps % _COARSE_STEP == 0, axis=1)
    active = np.flatnonzero(coarse | (beliefs.max(axis=1) == 1.0))
    tol = _PRICING_RTOL * np.abs(net).max()
    while True:
        res = linprog(
            -net[active],
            A_eq=beliefs[active].T,
            b_eq=prior.weights,
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        reduced = -net - beliefs @ res.eqlin.marginals
        # beliefs already in the LP never re-enter, so every round grows it
        reduced[active] = 0.0
        entering = np.flatnonzero(reduced < -tol)
        if entering.size == 0:
            break
        active = np.union1d(active, entering)

    w = np.zeros(len(beliefs))
    w[active] = np.maximum(res.x, 0.0)
    keep = np.flatnonzero(w > 1e-12)
    w_keep = w[keep]
    value = float(net[keep] @ w_keep)

    s = np.zeros((menu.n_actions, n_s))
    for idx, wi in zip(keep, w_keep):
        s[assigned[idx]] += wi * beliefs[idx] / prior.weights
    s = s / s.sum(axis=0, keepdims=True)
    scr = SCR(s)

    w_norm = w_keep / w_keep.sum()
    try:
        policy = SimpleInfoPolicy(prior, [Belief(beliefs[i]) for i in keep], w_norm)
    except InvalidInputError:
        # repair LP roundoff in the barycenter with a least-squares bump
        basis = beliefs[keep]
        defect = prior.weights - w_norm @ basis
        corr, *_ = np.linalg.lstsq(basis.T, defect, rcond=None)
        w_fix = np.maximum(w_norm + corr, 0.0)
        policy = SimpleInfoPolicy(prior, [Belief(beliefs[i]) for i in keep],
                                  w_fix / w_fix.sum())
    return GridOracleResult(policy, value, scr, tuple(int(assigned[i]) for i in keep))


# ---------------------------------------------------------------------------
# Value-function convexity probe


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    max_violation: float
    violations: tuple[tuple[float, float], ...]
    seed: int


def value_convexity_probe(menu: Menu, other: Menu, prior: Prior, spec: CostSpec,
                          samples: int = 100, seed: int = 0,
                          opts: SolveOptions | None = None) -> ConvexityReport:
    """Sample mixture weights and check the optimal value is convex in the
    utility matrix. Violations beyond 1e-8 are reported, not raised."""
    if menu.actions != other.actions:
        raise InvalidInputError("menus must share an action set")
    rng = np.random.default_rng(seed)
    v_left = solve(menu, prior, spec, opts).value
    v_right = solve(other, prior, spec, opts).value
    violations = []
    worst = -np.inf
    for _ in range(samples):
        beta = float(rng.uniform(0.0, 1.0))
        mixed = Menu(menu.actions,
                     beta * menu.utilities + (1.0 - beta) * other.utilities)
        v_mix = solve(mixed, prior, spec, opts).value
        gap = v_mix - (beta * v_left + (1.0 - beta) * v_right)
        worst = max(worst, gap)
        if gap > 1e-8:
            violations.append((beta, float(gap)))
    return ConvexityReport(samples, float(worst), tuple(violations), seed)
