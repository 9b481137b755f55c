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
derivative weight of the current iterate. Optimality is certified ex
post through the same first-order residual the inverse module uses.

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

from .costs import (
    CostSpec,
    DivergenceSpec,
    MutualInformation,
    PosteriorSeparable,
    Transformed,
    UnsupportedCostError,
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


def _expected_info(s: np.ndarray, mu0: np.ndarray, div: DivergenceSpec) -> float:
    """Expected divergence of the revealed posteriors of ``s``."""
    p = s @ mu0
    total = 0.0
    for a in np.flatnonzero(p > 0.0):
        mu = s[a] * mu0 / p[a]
        total += p[a] * div.value(mu / mu.sum())
    return total


def _benefit(u: np.ndarray, s: np.ndarray, mu0: np.ndarray) -> float:
    return float(mu0 @ (u * s).sum(axis=0))


# ---------------------------------------------------------------------------
# Mutual information: alternating fixed point on marginals


def _mi_residual(u: np.ndarray, s: np.ndarray, mu0: np.ndarray, scale: float,
                 active: np.ndarray) -> float:
    """First-order residual of a candidate rule at its own marginals."""
    p = s @ mu0
    act = np.flatnonzero(active & (p > 0.0))
    if act.size == 0:
        return np.inf
    with np.errstate(divide="ignore"):
        g = scale * np.log(s[act] / p[act, None])
    m = u[act] - g
    lam = m.max(axis=0)
    resid = float(((lam[None, :] - m) * s[act]).max())
    for b in np.flatnonzero(~active):
        # entry margin: scaled log-sum-exp of (u_b - lambda) under the prior
        v = (u[b] - lam) / scale
        mval = v.max()
        margin = scale * (mval + np.log(np.sum(mu0 * np.exp(v - mval))))
        resid = max(resid, margin)
    return resid


def solve_mi(menu: Menu, prior: Prior, scale: float,
             opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice under mutual-information cost.

    Converges when the marginal fixed-point gap and a log-space gap bounding
    the first-order residual both fall under ``opts.tol`` (default 1e-10).
    The returned rule uses all and only the actions that pass the
    no-profitable-entry test.
    """
    opts = opts or SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-10
    if scale <= 0.0:
        raise InvalidInputError("scale must be positive")
    require_valid(prior, menu)
    prior.require_full_support()

    n_a = menu.n_actions
    mu0 = prior.weights
    u = menu.utilities
    scaled = u / scale
    peak = scaled.max(axis=0)
    expu = np.exp(scaled - peak[None, :])

    # corner screening: a point mass on one action is optimal exactly when
    # every rival's entry margin is negative; that test is closed form, and
    # it settles the no-information regime the iteration crawls through
    means = u @ mu0
    for a in np.argsort(-means):
        rivals = [b for b in range(n_a) if b != a]
        if not rivals:
            margins = np.array([])
        else:
            diff = (u[rivals] - u[a][None, :]) / scale
            mx = diff.max(axis=1)
            margins = scale * (mx + np.log((mu0[None, :]
                                            * np.exp(diff - mx[:, None])).sum(axis=1)))
        if margins.size == 0 or margins.max() < 0.0:
            s = np.zeros((n_a, menu.n_states))
            s[a] = 1.0
            return SolveResult(SCR(s), float(means[a]), 0,
                               float(max(0.0, margins.max(initial=0.0))),
                               "mi-fixed-point")
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

    low_count = np.zeros(n_a, dtype=int)
    iterations = 0
    readmissions = 0
    last_gap = np.inf

    while True:
        converged = False
        while iterations < opts.max_iter:
            iterations += 1
            pa = np.where(active, p, 0.0)
            z = pa @ expu
            s = pa[:, None] * expu / z[None, :]
            p_new = s @ mu0

            low = active & (p_new < _DROP_MARGINAL)
            low_count[low] += 1
            low_count[~low] = 0
            if np.any(low_count >= _DROP_PATIENCE):
                active &= ~(low_count >= _DROP_PATIENCE)
                low_count[:] = 0
                if not active.any():
                    raise SolverError("all actions collapsed", np.inf)
                p_new = np.where(active, p_new, 0.0)
                p = p_new / p_new.sum()
                continue

            # convergence is judged on the actions the certificate will treat
            # as supported; a marginal decaying below the support cutoff is
            # policed by the entry condition instead
            firm = active & (p_new > SUPPORT_THRESHOLD)
            if not firm.any():
                firm = active
            gap = float(np.abs(p_new - p)[firm].max())
            last_gap = gap
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
                    residual = _mi_residual(u, s, mu0, scale, active)
                    if residual < max(tol, 1e-12):
                        p = p_new
                        converged = True
                        break
            p = p_new
        if not converged:
            raise SolverError("marginal fixed point did not converge", last_gap)

        pa = np.where(active, p, 0.0)
        z = pa @ expu
        entry = (mu0[None, :] * expu / z[None, :]).sum(axis=1)
        violators = np.flatnonzero(~active & (entry > 1.0 + _ENTRY_TOL))
        if violators.size == 0:
            break
        if readmissions >= 2 * n_a:
            raise SolverError("entry condition kept re-admitting actions",
                              float(entry.max() - 1.0))
        readmissions += 1
        active[violators] = True
        p = np.where(active, np.maximum(p, 1e-3), 0.0)
        p = p / p.sum()
        low_count[:] = 0

    pa = np.where(active, p, 0.0)
    z = pa @ expu
    s = pa[:, None] * expu / z[None, :]
    s[~active] = 0.0
    # rows that ended below the support cutoff are excluded actions; make
    # that exact so downstream consumers see clean zeros
    faded = active & ((s @ mu0) < 0.5 * SUPPORT_THRESHOLD)
    if faded.any():
        active &= ~faded
        s[faded] = 0.0
        s = s / s.sum(axis=0, keepdims=True)
    scr = SCR(s)
    residual = _mi_residual(u, s, mu0, scale, active)
    value = _benefit(u, s, mu0) - scale * _expected_info(s, mu0,
                                                         MutualInformation(prior, scale).divergence)
    return SolveResult(scr, value, iterations, residual, "mi-fixed-point")


# ---------------------------------------------------------------------------
# Mirror ascent for derivative-carrying costs


class _SmoothCost:
    """Derivative-cost machinery for the mirror solver.

    Bundles the divergence with its scalar weight. For mutual-information
    and posterior-separable costs the weight is a constant; for transformed
    costs it is psi'(expected divergence), a function of the current rule,
    evaluated with the same revealed-policy convention the certificate
    uses so the solver and the certificate always measure the same
    residual.
    """

    def __init__(self, div: DivergenceSpec, fixed_weight: float | None, psi=None):
        self.div = div
        self.fixed_weight = fixed_weight
        self.psi = psi

    def raw_info(self, s: np.ndarray, mu0: np.ndarray) -> float:
        """Expected divergence under the full revealed policy of ``s``."""
        return _expected_info(s, mu0, self.div)

    def certified_info(self, s: np.ndarray, mu0: np.ndarray) -> float:
        """Expected divergence under the reveal convention: actions below
        the support cutoff are excluded and weights renormalized."""
        p = s @ mu0
        keep = np.flatnonzero(p > SUPPORT_THRESHOLD)
        if keep.size == 0:
            keep = np.flatnonzero(p > 0.0)
        total = p[keep].sum()
        info = 0.0
        for a in keep:
            mu = s[a] * mu0 / p[a]
            info += (p[a] / total) * self.div.value(mu / mu.sum())
        return info

    def weight(self, s: np.ndarray, mu0: np.ndarray) -> float:
        if self.psi is None:
            return self.fixed_weight
        return max(float(self.psi.derivative(self.certified_info(s, mu0))), 0.0)

    def price(self, s: np.ndarray, mu0: np.ndarray) -> float:
        """The actual cost charged to the rule, for objectives and values."""
        info = self.raw_info(s, mu0)
        if self.psi is None:
            return self.fixed_weight * info
        return float(self.psi.value(info))


def _ps_objective(u: np.ndarray, s: np.ndarray, mu0: np.ndarray,
                  cost: _SmoothCost) -> float:
    return _benefit(u, s, mu0) - cost.price(s, mu0)


def _ps_gradients(s: np.ndarray, mu0: np.ndarray, cost: _SmoothCost,
                  active: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted divergence gradients at the revealed posteriors."""
    p = s @ mu0
    weight = cost.weight(s, mu0)
    g = np.zeros_like(s)
    for a in np.flatnonzero(active & (p > 0.0)):
        mu = s[a] * mu0 / p[a]
        g[a] = weight * cost.div.gradient(mu / mu.sum())
    return g, p, weight


def _ps_residual(u: np.ndarray, s: np.ndarray, mu0: np.ndarray,
                 cost: _SmoothCost) -> float:
    """Full first-order residual: complementary slackness on supported
    actions plus entry margins for the rest, at the same derivative weight
    the certificate will recompute."""
    p = s @ mu0
    supported = p > SUPPORT_THRESHOLD
    act = np.flatnonzero(supported)
    if act.size == 0:
        return np.inf
    weight = cost.weight(s, mu0)
    g = np.zeros((act.size, s.shape[1]))
    for k, a in enumerate(act):
        mu = s[a] * mu0 / p[a]
        g[k] = weight * cost.div.gradient(mu / mu.sum())
    m = u[act] - g
    lam = m.max(axis=0)
    resid = float(((lam[None, :] - m) * s[act]).max())
    for b in np.flatnonzero(~supported):
        resid = max(resid, cost.div.conjugate_max(u[b] - lam, weight))
    return resid


def _polish(u: np.ndarray, mu0: np.ndarray, cost: _SmoothCost,
            s_init: np.ndarray, tol: float) -> np.ndarray | None:
    """Newton-solve the interior stationarity system on the localized
    support pattern: within every state, supported actions with positive
    probability price equally, and each state's probabilities sum to one.

    Returns the refined rule, or None when the pattern does not admit an
    interior solution nearby.
    """
    from scipy.optimize import root

    p = s_init @ mu0
    supported = p > SUPPORT_THRESHOLD
    mask = supported[:, None] & (s_init > 1e-12)
    if not mask.any() or not (mask.sum(axis=0) > 0).all():
        return None
    log_param = not cost.div.gradient_defined(np.zeros(s_init.shape[1]))

    base = np.where(mask, s_init, 0.0)
    base = base / base.sum(axis=0, keepdims=True)
    x0 = np.log(base[mask]) if log_param else base[mask]

    def unpack(x):
        s = np.zeros_like(s_init)
        s[mask] = np.exp(np.minimum(x, 30.0)) if log_param else x
        return s

    def equations(x):
        s = unpack(x)
        out = []
        marg = s @ mu0
        weight = cost.weight(s, mu0)
        grads = {}
        for a in np.flatnonzero(supported):
            if marg[a] <= 0.0:
                return np.full(len(x), 1e6)
            mu = s[a] * mu0 / marg[a]
            total = mu.sum()
            if total <= 0.0:
                return np.full(len(x), 1e6)
            grads[a] = weight * cost.div.gradient(np.clip(mu / total, 0.0, None) + 0.0)
        for w in range(s_init.shape[1]):
            acts = np.flatnonzero(mask[:, w])
            ref = acts[0]
            m_ref = u[ref, w] - grads[ref][w]
            for a in acts[1:]:
                out.append(u[a, w] - grads[a][w] - m_ref)
            out.append(s[:, w].sum() - 1.0)
        return np.asarray(out)

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


def _mirror_solve(menu: Menu, prior: Prior, cost: _SmoothCost,
                  opts: SolveOptions, tol: float, s0: np.ndarray | None,
                  iteration_budget: int) -> tuple[np.ndarray, int, float]:
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
    smooth_boundary = cost.div.gradient_defined(np.zeros(n_s))

    if s0 is not None:
        s = np.array(s0, dtype=float)
        if not smooth_boundary:
            s = np.maximum(s, _POSITIVITY_FLOOR)
        s = s / s.sum(axis=0, keepdims=True)
    else:
        s = np.full((n_a, n_s), 1.0 / n_a)
    active = np.ones(n_a, dtype=bool)

    if opts.step_size is not None:
        eta = opts.step_size
    else:
        w0 = cost.weight(s, mu0)
        eta = 1.0 / max(w0, 1e-8) if w0 > 1e-8 else 1.0
    eta_max = max(eta, 1.0) * 1e4
    obj = _ps_objective(u, s, mu0, cost)
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
            gg, pp, _ = _ps_gradients(out, mu0, cost, np.ones(n_a, dtype=bool))
            mm = u - gg
            sup = pp > SUPPORT_THRESHOLD
            if sup.any():
                lam = mm[sup].max(axis=0)
                gap = lam[None, :] - mm
                # a small coordinate pricing firmly below the state optimum
                # is a boundary zero; zeroing it costs at most gap * s in
                # value, which the guard keeps within residual scale
                snap = (sup[:, None] & (out > 0.0) & (out < 1e-4)
                        & (gap > 1e-6) & (gap * out <= 10.0 * tol))
                if snap.any():
                    out = np.where(snap, 0.0, out)
                    changed = True
        if not changed:
            return None
        cols = out.sum(axis=0)
        if cols.min() <= 0.0:
            return None
        return out / cols[None, :]

    def finish(candidate: np.ndarray, iters: int):
        tidy = cleaned(candidate)
        if tidy is not None:
            full = _ps_residual(u, tidy, mu0, cost)
            if full < tol:
                return tidy, iters, full
        full = _ps_residual(u, candidate, mu0, cost)
        if full < tol:
            return candidate, iters, full
        return None

    it = 0
    while it < iteration_budget:
        it += 1
        g, p, weight = _ps_gradients(s, mu0, cost, active)

        dead = active & (p < 1e-60)
        if dead.any():
            active &= ~dead
            if not active.any():
                raise SolverError("all actions collapsed", np.inf)
            s[dead] = 0.0
            s = s / s.sum(axis=0, keepdims=True)
            obj = _ps_objective(u, s, mu0, cost)
            continue

        act = np.flatnonzero(active)
        m = u[act] - g[act]
        # only rules the certificate treats as supported constrain the
        # multiplier; actions still decaying toward zero do not
        firm = p[act] > SUPPORT_THRESHOLD
        lam_firm = m[firm].max(axis=0) if firm.any() else m.max(axis=0)
        slack = float(((lam_firm[None, :] - m[firm]) * s[act][firm]).max())

        if slack < best_slack * 0.9:
            best_slack, since_improvement = slack, 0
        else:
            since_improvement += 1
            if since_improvement >= 100:
                eta = max(eta * 0.5, 1e-10)
                since_improvement = 0

        if slack < tol and (it % 5 == 0 or slack < 0.1 * tol):
            done = finish(s, it)
            if done is not None:
                return done
            # a shut-down action prices above its entry threshold: re-admit
            violator = None
            for b in np.flatnonzero(~(p > SUPPORT_THRESHOLD)):
                if cost.div.conjugate_max(u[b] - lam_firm, weight) > tol:
                    violator = b
                    break
            if violator is not None and revivals < 3 * n_a:
                revivals += 1
                active[violator] = True
                s[violator] = np.maximum(s[violator], 1e-3 / n_a)
                s = s / s.sum(axis=0, keepdims=True)
                obj = _ps_objective(u, s, mu0, cost)
                continue

        if slack < 1e-5 and polish_attempts < 8 and it % 20 == 0:
            polish_attempts += 1
            refined = _polish(u, mu0, cost, s, tol)
            if refined is not None:
                done = finish(refined, it)
                if done is not None:
                    return done

        lam = m.max(axis=0)
        shift = m - lam[None, :]
        accepted = False
        while eta >= 1e-12:
            trial = s.copy()
            trial[act] = s[act] * np.exp(np.maximum(eta * shift, -700.0))
            if not smooth_boundary:
                trial[act] = np.maximum(trial[act], _POSITIVITY_FLOOR)
            trial = trial / trial.sum(axis=0, keepdims=True)
            trial_obj = _ps_objective(u, trial, mu0, cost)
            if trial_obj >= obj - 1e-15 * (1.0 + abs(obj)):
                s, obj = trial, trial_obj
                eta = min(eta * 1.25, eta_max)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

        if smooth_boundary and it % 50 == 0:
            g2, _, _ = _ps_gradients(s, mu0, cost, active)
            m2 = u - g2
            lam2 = np.where(active[:, None], m2, -np.inf).max(axis=0)
            gap = lam2[None, :] - m2
            snap = active[:, None] & (s < 1e-16) & (s > 0.0) & (gap > 1e-6)
            revive = active[:, None] & (s == 0.0) & (gap < 1e-12)
            if snap.any() or revive.any():
                s = np.where(snap, 0.0, s)
                s = np.where(revive, 1e-10, s)
                s = s / s.sum(axis=0, keepdims=True)
                obj = _ps_objective(u, s, mu0, cost)

    done = finish(s, it)
    if done is not None:
        return done
    refined = _polish(u, mu0, cost, s, tol)
    if refined is not None:
        done = finish(refined, it)
        if done is not None:
            return done
    raise SolverError("mirror ascent did not reach the target residual",
                      _ps_residual(u, s, mu0, cost))


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

    if isinstance(spec, MutualInformation):
        cost = _SmoothCost(spec.divergence, spec.scale)
    elif isinstance(spec, PosteriorSeparable):
        cost = _SmoothCost(spec.divergence, 1.0)
    elif isinstance(spec, Transformed):
        cost = _SmoothCost(spec.divergence, None, spec.psi)
    else:
        raise UnsupportedCostError(
            f"{type(spec).__name__} cost has no derivative; solver unavailable"
        )

    mu0 = prior.weights
    u = menu.utilities
    s, iters, residual = _mirror_solve(menu, prior, cost, opts, tol, None,
                                       opts.max_iter)
    value = _benefit(u, s, mu0) - cost.price(s, mu0)
    return SolveResult(SCR(s), value, iters, residual, "mirror-ascent")


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
    if isinstance(spec, MutualInformation):
        div, weight = spec.divergence, spec.scale
    elif isinstance(spec, PosteriorSeparable):
        div, weight = spec.divergence, 1.0
    else:
        raise UnsupportedCostError(
            "grid oracle requires a policy-independent derivative "
            "(mutual information or posterior separable)"
        )
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
