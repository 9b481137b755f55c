"""Forward solvers for the agent's program: maximize E[u . s] - kappa(s).

Two routes are implemented.

``solve_mi`` handles mutual-information costs. The optimal rule is a
state-wise logit in the scaled utilities at the action marginals that
maximize a smooth concave function of the marginals alone (Matejka &
McKay 2015); its KKT conditions are the certificate's no-profitable-entry
test (Caplin, Dean & Leahy 2019). A projected Newton method on the
marginals, in log-sum-exp form, solves it: actions leave and enter the
support through the bounds p_a >= 0. When the optimal rule has a supported
entry too small for float64, the solver raises instead of returning a rule
that cannot certify.

``solve_ps`` handles any cost that exposes a derivative (mutual
information, posterior separable, transformed) with entropic mirror
ascent on the per-state simplices, using an Armijo line search so the
objective never decreases. Transformed costs price each step at the
derivative weight of the current iterate.

Both solvers share one residual routine with the certificate,
``inverse.first_order``: it is the stopping rule of ``solve_mi``, supplies
the mirror ascent's gradients and slack and every snap, readmission and
convergence test, and gives the residual of each result, which is read off
the returned rule's own probabilities exactly as ``certify`` reads it.

``grid_oracle`` is a brute-force concavification check for up to three
states: maximize expected (payoff upper envelope minus divergence) over
lattice beliefs subject to the barycenter pinning the prior, an LP. One
dense simplex solve (``revealed.simplex``) over the whole lattice, started
from the simplex vertices, solves it; it stops when the dual hyperplane
lies on or above the net payoff at every lattice belief, the optimality
certificate of the LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, MutualInformation, derivative_basis, policy_cost
from .inverse import (
    FirstOrder,
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
from .revealed import simplex

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
# Mutual information: projected Newton on the marginals


def solve_mi(menu: Menu, prior: Prior, scale: float,
             opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice under mutual-information cost.

    The optimal rule is the state-wise logit s_a(w) = p_a e^{u_a(w)/scale}
    / z(w), z(w) = sum_b p_b e^{u_b(w)/scale}, at the marginals p that
    maximize the concave program

        G(p) = sum_w mu0(w) log z(w) - sum_a p_a   over p >= 0

    (Matejka & McKay 2015). Its gradient is g_a = sum_w mu0(w) R_aw - 1 with
    R_aw = e^{u_a(w)/scale} / z(w), and its Hessian is -R diag(mu0) R^T. Its
    KKT conditions, g_a = 0 where p_a > 0 and g_a <= 0 where p_a = 0, are
    the certificate's no-profitable-entry test (Caplin, Dean & Leahy 2019).
    A projected Newton method (Bertsekas 1982) in log-sum-exp form climbs G
    from ``opts.init_marginals`` (uniform by default); actions leave and
    enter the support through the bounds p_a >= 0, so an action the optimum
    excludes ends with p_a = 0 exactly.

    The iteration stops when the first-order residual of the rule, the
    certificate's own test, falls under ``opts.tol`` (default 1e-10). When
    information is so cheap that the optimal rule has a supported entry
    below float64's subnormal range (log s < -745), that entry is stored as
    0 and its posterior sits where the KL slope is unbounded, so no rule
    rounded from the optimum certifies: once the KKT conditions hold to
    ``tol / scale`` the solver raises ``SolverError`` with residual inf,
    naming the smallest supported entry.
    """
    opts = opts or SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-10
    if not 0.0 < scale < np.inf:
        raise InvalidInputError("scale must be positive and finite")
    require_valid(prior, menu)
    prior.require_full_support()

    spec = MutualInformation(prior, scale)
    n_a = menu.n_actions
    mu0 = prior.weights
    u = menu.utilities
    # a per-state shift of u / scale rescales z(w), moving G by a constant
    scaled = u / scale - (u / scale).max(axis=0)
    if opts.init_marginals is not None:
        p = np.asarray(opts.init_marginals, dtype=float)
        if p.shape != (n_a,) or p.min() <= 0.0:
            raise InvalidInputError("init_marginals must be strictly positive per action")
        p = p / p.sum()
    else:
        p = np.full(n_a, 1.0 / n_a)
    # at the optimum every R_aw is at most 1 / mu0(w), since mu0 . R_a is 1
    # on supported rows and at most 1 on absent ones. Capping R at twice
    # that leaves the Newton model exact near the optimum and bounded away
    # from it, where an absent action can have R_aw = e^{700} and more.
    log_cap = np.log(2.0 / mu0)

    def objective(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """G(p), the log rule log s and log R, log z taken by log-sum-exp."""
        with np.errstate(divide="ignore"):
            x = np.log(p)[:, None] + scaled
        peak = x.max(axis=0)
        log_z = peak + np.log(np.exp(x - peak).sum(axis=0))
        return float(mu0 @ log_z) - p.sum(), x - log_z, scaled - log_z

    value, log_s, log_r = objective(p)
    iterations = 0
    while True:
        s = np.exp(log_s)
        residual = rule_first_order(u, s, mu0, spec, entry=True).residual
        if residual < tol:
            return _result(u, mu0, spec, s, iterations, "mi-newton")

        r = np.exp(np.minimum(log_r, log_cap))
        g = r @ mu0 - 1.0
        # the projected-gradient measure of the KKT conditions
        kkt = np.abs(p - np.maximum(p + g, 0.0)).max()
        if scale * kkt < tol and not np.isfinite(residual):
            supported = np.flatnonzero(p > SUPPORT_THRESHOLD)
            low = log_s[supported]
            act, state = np.unravel_index(low.argmin(), low.shape)
            raise SolverError(
                f"the optimal rule underflows float64: supported action "
                f"{supported[act]} has log-probability {low[act, state]:.1f} "
                f"in state {state}", residual)
        # an exact KKT point leaves no step to take
        if iterations >= opts.max_iter or kkt == 0.0:
            raise SolverError("Newton iteration did not converge", residual)
        iterations += 1

        # actions within the KKT measure of their bound whose gradient points
        # out take a diagonally scaled gradient step, the others a Newton
        # step; shifting H by the KKT measure keeps it definite where it is
        # singular (more actions than states, duplicate actions) and
        # vanishes at the optimum, so convergence stays quadratic
        hess = (r * mu0) @ r.T
        bound = (p <= kkt) & (g <= 0.0)
        free = np.flatnonzero(~bound)
        d = g / (np.diag(hess) + kkt)
        d[free] = np.linalg.solve(hess[np.ix_(free, free)] + kkt * np.eye(free.size),
                                  g[free])
        # Armijo search along the projection arc
        step = 1.0
        while True:
            trial = np.maximum(p + step * d, 0.0)
            gain = step * (g[free] @ d[free]) + g[bound] @ (trial - p)[bound]
            if trial.sum() > 0.0:
                # G is largest along the ray through trial where sum p = 1
                trial = trial / trial.sum()
                t_value, t_log_s, t_log_r = objective(trial)
                if t_value >= value + 1e-4 * gain - 1e-15 * (1.0 + abs(value)):
                    break
            step *= 0.5
            if step < 1e-20:
                raise SolverError("Newton line search found no ascent", residual)
        p, value, log_s, log_r = trial, t_value, t_log_s, t_log_r


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

    One simplex solve over the whole lattice, started from the simplex
    vertices (a feasible basis, since the prior has full support), gives
    the optimum: its equality duals y price every lattice belief mu at the
    reduced cost -net(mu) - mu . y, and it stops only when none is below
    -1e-12 times the largest |net|, so the hyperplane mu -> -mu . y lies on
    or above the net payoff at every lattice belief and supports the
    concavified net payoff.
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

    vertices = [np.flatnonzero(beliefs[:, k] == 1.0)[0] for k in range(n_s)]
    w, _ = simplex(-net, beliefs.T, prior.weights, vertices, "oracle")
    keep = np.flatnonzero(w > 1e-12)
    w_keep = w[keep]
    value = float(net[keep] @ w_keep)

    s = np.zeros((menu.n_actions, n_s))
    for idx, wi in zip(keep, w_keep):
        s[assigned[idx]] += wi * beliefs[idx] / prior.weights
    s = s / s.sum(axis=0, keepdims=True)
    scr = SCR(s)

    # w is a basic solution, with at most n_s nonzero weights, that meets the
    # barycenter within 1e-10, so the policy passes its 1e-9 check
    policy = SimpleInfoPolicy(prior, [Belief(beliefs[i]) for i in keep],
                              w_keep / w_keep.sum())
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
