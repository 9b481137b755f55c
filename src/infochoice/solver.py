"""Forward solvers for the agent's program: maximize E[u . s] - kappa(s).

Every smooth cost is a divergence c under a convex psi (``costs``). Under
a constant weight the program has a small dual in the state multipliers
lambda and the action marginals p (Matejka & McKay 2015; Caplin, Dean &
Leahy 2022): with v = u / weight, action a's posterior mu_a maximizes
<v_a - lambda, mu> - c(mu), sum_a p_a mu_a = mu0, and p_a >= 0 >=
c*(v_a - lambda) with complementarity, c* as ``conjugate_max`` prices it.
The MI Newton solves KL with lambda eliminated in closed form, the dual
Newton the dual KKT system of any divergence with a conjugate argmax;
``solve`` (or ``solve_ps``, or ``solve_mi`` for mutual information) runs
the first for KL, the second for chi-square, and for a nonlinear psi the
convex dual in one weight w, V(w) + psi*(w) with V the value at constant
weight w, over these; weight 0, free information, is closed-form. Both
Newton methods stop by one rule (``_newton``) on ``inverse.rule_first_order``'s
duality gap, read where their KKT measure stops halving or steps run out.

``grid_oracle`` is a brute-force concavification check for up to three
states: maximize expected (payoff envelope minus derivative cost) over
lattice beliefs subject to the barycenter pinning the prior, an LP. One
dense simplex solve (``revealed.simplex``) over the whole lattice, started
from the simplex vertices, solves it; it stops when the dual hyperplane
lies on or above the net payoff at every lattice belief, the optimality
certificate of the LP.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .costs import (
    AffinePsi,
    CostSpec,
    KLDivergence,
    MutualInformation,
    Transformed,
    UnsupportedCostError,
    derivative_basis,
)
from .inverse import FOCCertificate, rule_first_order, rule_value
from .model import (
    OPTIMAL_TOL,
    InvalidInputError,
    Menu,
    Prior,
    SCR,
    SimpleInfoPolicy,
    require_valid,
)
from .revealed import RevealedPolicy, revealed_posteriors, simplex


class SolverError(RuntimeError):
    """Raised on non-convergence; carries the last residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True, slots=True, eq=False)
class SolveOptions:
    """Knobs shared by the solvers; a solve stops at a duality gap of at most ``tol``."""

    tol: float = OPTIMAL_TOL
    max_iter: int = 100_000
    init_marginals: np.ndarray | None = None

    def __post_init__(self):
        # a bool is not a bound, and the comparison is false on nan
        if isinstance(self.tol, bool) or not (isinstance(self.tol, numbers.Real)
                                              and 0.0 < self.tol < np.inf):
            raise InvalidInputError(f"options.tol: must be finite and > 0, got {self.tol}")
        if isinstance(self.max_iter, bool) or not isinstance(
                self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise InvalidInputError(
                f"options.max_iter: must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True, slots=True)
class SolveResult:
    """A solve's rule, its value (benefit minus ``kappa``) and the
    certificate its stopping test accepted, the record ``certify`` returns
    for the rule; ``residual`` is that certificate's residual. ``method``
    names the route the solve took."""

    scr: SCR
    value: float
    iterations: int
    certificate: FOCCertificate
    method: str

    @property
    def residual(self) -> float:
        return self.certificate.residual


@dataclass(frozen=True, slots=True)
class GridOracleResult:
    policy: SimpleInfoPolicy
    value: float
    scr: SCR
    assigned_actions: tuple[int, ...]


def _result(u: np.ndarray, prior: Prior, spec: CostSpec, s: np.ndarray, iterations: int,
            method: str) -> tuple[SolveResult, RevealedPolicy]:
    """Rule ``s`` as a result, its certificate read exactly as ``certify``
    reads it and its value under ``spec``, and the policy the rule reveals."""
    scr = SCR(s)
    rp = revealed_posteriors(scr.probs, prior)
    return SolveResult(scr, rule_value(u, rp, spec), iterations,
                       rule_first_order(u, rp, spec), method), rp


def _newton(steps, u: np.ndarray, prior: Prior, spec: CostSpec, tol: float, max_iter: int,
            floor: float, method: str) -> SolveResult:
    """The stopping rule of both Newton methods. ``steps`` yields a method's
    KKT measure and its rule (None where no action covers some state) at
    each iterate and takes one step when resumed, returning where no step
    passes. Steps go on while the measure halves and stays above ``floor``.
    Where it stops halving, where ``max_iter`` runs out and where no step
    passes, the rule's duality gap is read, and the rule returned once that
    gap is at most ``tol``; a measure that stopped halving short
    of that steps on. Else ``SolverError`` names the method."""
    iterations, last = 0, np.inf
    measure, rule = next(steps)
    while True:
        halving = floor < measure < 0.5 * last and iterations < max_iter
        if not halving or (moved := next(steps, None)) is None:
            found = rule is not None and _result(u, prior, spec, rule, iterations, method)[0]
            residual = found.residual if found else np.inf
            if residual <= tol:
                return found
            if iterations >= max_iter:
                raise SolverError(f"{method} did not converge", residual)
            # an exact KKT point, of measure 0, leaves no step to take
            if halving or measure == 0.0 or (moved := next(steps, None)) is None:
                raise SolverError(f"{method} line search found no step", residual)
        iterations, last, (measure, rule) = iterations + 1, measure, moved


def _scaled(u: np.ndarray, weight: float) -> np.ndarray:
    """u / weight, or ``SolverError`` where that overflows float64."""
    with np.errstate(over="ignore"):
        scaled = u / weight
    if not np.isfinite(scaled).all():
        raise SolverError(f"the scaled utilities u / scale overflow float64 at "
                          f"scale {weight!r}", np.inf)
    return scaled


# ---------------------------------------------------------------------------
# Mutual information: projected Newton on the marginals


def solve_mi(menu: Menu, prior: Prior, scale: float,
             opts: SolveOptions | None = None) -> SolveResult:
    """``solve`` on ``MutualInformation(prior, scale)``: ``_mi_newton``."""
    return solve(menu, prior, MutualInformation(prior, scale), opts)


def _mi_newton(menu: Menu, prior: Prior, spec: CostSpec, scale: float, start,
               tol: float, max_iter: int) -> SolveResult:
    """Optimal stochastic choice for a ``spec`` whose derivative cost is KL
    at the constant weight ``scale``, its rules certified and valued under
    ``spec`` itself.

    The optimal rule is the state-wise logit s_a(w) = p_a e^{u_a(w)/scale}
    / z(w), z(w) = sum_b p_b e^{u_b(w)/scale}, at the marginals p that
    maximize the concave program

        G(p) = sum_w mu0(w) log z(w) - sum_a p_a   over p >= 0

    (Matejka & McKay 2015). Its gradient is g_a = sum_w mu0(w) R_aw - 1 with
    R_aw = e^{u_a(w)/scale} / z(w), and its Hessian is -R diag(mu0) R^T. Its
    KKT conditions, g_a = 0 where p_a > 0 and g_a <= 0 where p_a = 0, are
    the certificate's no-profitable-entry test (Caplin, Dean & Leahy 2019).
    A projected Newton method (Bertsekas 1982) in log-sum-exp form climbs G
    from the marginals ``start`` floored at the least normal float, or from
    uniform ones; actions leave and enter the support through the bounds
    p_a >= 0, so an action the optimum excludes ends with p_a = 0 exactly.

    ``_newton`` stops it on the projected-gradient measure of the KKT
    conditions. An optimal entry below float64's range is stored as 0 and
    its row priced by its conjugate, so the rounded optimum certifies. A
    scale at which u / scale overflows raises ``SolverError``.
    """
    mu0, u = prior.weights, menu.utilities
    scaled = _scaled(u, scale)
    # a per-state shift of u / scale rescales z(w), moving G by a constant;
    # an entry shifted below float64's range is -inf, the exact e^-inf = 0
    with np.errstate(over="ignore"):
        scaled = scaled - scaled.max(axis=0)
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

    def steps(p: np.ndarray):
        """The KKT measure and the rule at each iterate, then one step."""
        value, log_s, log_r = objective(p)
        while True:
            r = np.exp(np.minimum(log_r, log_cap))
            g = r @ mu0 - 1.0
            # the projected-gradient measure of the KKT conditions
            kkt = np.abs(p - np.maximum(p + g, 0.0)).max()
            yield kkt, np.exp(log_s)

            # actions within the KKT measure of their bound whose gradient points
            # out take a diagonally scaled gradient step, the others a Newton
            # step; shifting H by the KKT measure keeps it definite where it is
            # singular (more actions than states, duplicate actions) and
            # vanishes at the optimum, so convergence stays quadratic
            hess = (r * mu0) @ r.T
            bound = (p <= kkt) & (g <= 0.0)
            free = np.flatnonzero(~bound)
            d = g / (np.diag(hess) + kkt)
            # two free duplicate actions make the block exactly singular once
            # the shift rounds away; every action then keeps the scaled step
            with contextlib.suppress(np.linalg.LinAlgError):
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
                    return
            p, value, log_s, log_r = trial, t_value, t_log_s, t_log_r

    # G is concave, so any start converges; the floor keeps log p finite
    p = np.ones(menu.n_actions) if start is None else \
        np.maximum(np.asarray(start, dtype=float), np.finfo(float).tiny)
    # the rounding of the KKT measure's sums of n_states terms
    return _newton(steps(p / p.sum()), u, prior, spec, tol, max_iter,
                   prior.n_states * np.finfo(float).eps, "mi-newton")


# ---------------------------------------------------------------------------
# Every divergence with a conjugate argmax: Newton on the dual KKT system


def _dual_newton(menu: Menu, prior: Prior, spec: CostSpec, weight: float, start,
                 tol: float, max_iter: int) -> SolveResult:
    """The dual Newton method on checked inputs, for a ``spec`` whose
    derivative cost is its divergence at the constant weight ``weight``.

    F_eps, in units of v = u / weight: sum_a max(p_a, 0) mu_a(lambda) = mu0
    and phi_eps(p_a, -c*(v_a - lambda)) = 0, eps from 1 / n_actions down to
    min(eps, max |F_0| / 5) after each step, F_0 at eps = 0; unsmoothed, an
    action covering a state of small prior is zeroed early and the merit
    goes flat. Steps are Newton's where a backtracking Armijo search on
    |F_eps|^2 / 2 passes, else Levenberg-Marquardt's; ``_newton`` stops it.
    It starts halfway from the marginals ``start`` to uniform, as from a far
    rule's marginals themselves its merit can stall, or from uniform ones."""
    div, u, mu0 = spec.divergence, menu.utilities, prior.weights
    v = _scaled(u, weight)
    n_a, n_s = v.shape
    p = np.ones(n_a) if start is None else 0.5 * np.asarray(start, dtype=float) + 0.5 / n_a
    p = p / p.sum()
    # the per-state log-sum-exp of log p + v, the KL multiplier given p
    x = np.log(p)[:, None] + v
    peak = x.max(axis=0)
    lam = peak + np.log(np.exp(x - peak).sum(axis=0))

    def evaluate(lam: np.ndarray, p: np.ndarray) -> tuple:
        """The posteriors, their derivative parts and slacks -c* at (lam, p)."""
        mu, d, b = div.conjugate_argmax(v - lam)
        return lam, p, mu, d, b, div.values(mu) - ((v - lam) * mu).sum(axis=1)

    def equations(point: tuple, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """F_eps, and r = sqrt(p^2 + slack^2 + 2 eps^2); phi_eps = p + slack - r
        is 2 (p slack - eps^2) / (p + slack + r) where that keeps its digits."""
        _, p, mu, _, _, slack = point
        r = np.hypot(np.hypot(p, slack), np.sqrt(2.0) * eps)
        total = p + slack
        phi = np.where(total > 0.0, 2.0 * (p * slack - eps * eps)
                       / np.where(total > 0.0, total + r, 1.0), total - r)
        return np.concatenate([np.maximum(p, 0.0) @ mu - mu0, phi]), r

    def descend(point: tuple, eps: float) -> tuple | None:
        """The next point, or None where no direction passes the search."""
        lam, p, mu, d, b, slack = point
        f, r = equations(point, eps)
        r, held = np.where(r > 0.0, r, 1.0), np.maximum(p, 0.0)
        # coverage rows: -sum_a p_a (diag(d_a) - b_a b_a^T) in lambda, mu_a in
        # p_a; the slack -c*(v_a - lambda) has gradient mu_a in lambda
        jac = np.block([[(b.T * held) @ b - np.diag(held @ d), mu.T * (p > 0.0)],
                        [(1.0 - slack / r)[:, None] * mu, np.diag(1.0 - p / r)]])
        merit, slope = 0.5 * float(f @ f), jac.T @ f
        # a singular or overflowing system gives no direction, and a trial
        # whose merit overflows fails the search
        with np.errstate(over="ignore", invalid="ignore"):
            levenberg = jac.T @ jac + np.sqrt(2.0 * merit) * np.eye(f.size)
            for system, rhs in ((jac, -f), (levenberg, -slope)):
                try:
                    direction = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    continue
                descent = float(slope @ direction)
                step = 1.0
                while np.isfinite(direction).all() and descent < 0.0 and step > 1e-12:
                    moved = (lam + step * direction[:n_s], p + step * direction[n_s:])
                    # a step that moves no unknown cannot lower the merit
                    if np.array_equal(moved[0], lam) and np.array_equal(moved[1], p):
                        break
                    trial = evaluate(*moved)
                    f_trial = equations(trial, eps)[0]
                    if 0.5 * float(f_trial @ f_trial) <= merit + 1e-4 * step * descent:
                        return trial
                    step *= 0.5
        return None

    def steps(point: tuple, eps: float):
        """max |F_0| and the rule at each point, then one step."""
        f0 = float(np.abs(equations(point, 0.0)[0]).max())
        while True:
            # an action whose slack wins its pair gets an exact zero row
            _, p, mu, _, _, slack = point
            x = np.where(slack > p, 0.0, np.maximum(p, 0.0))[:, None] * mu
            cover = x.sum(axis=0)
            yield f0, x / cover if cover.min() > 0.0 else None
            if (point := descend(point, eps)) is None:
                return
            f0 = float(np.abs(equations(point, 0.0)[0]).max())
            eps = min(eps, 0.2 * f0)

    return _newton(steps(evaluate(lam, p), 1.0 / n_a), u, prior, spec, tol, max_iter, 0.0,
                   "dual-newton")


def solve(menu: Menu, prior: Prior, spec: CostSpec,
          opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice under any psi of KL or chi-square, to a
    duality gap of at most ``opts.tol``: for KL the MI Newton, for chi-square
    the dual Newton, the weight root over it for a nonlinear psi, the closed
    form at weight 0. ``opts.init_marginals`` is checked here, on every route,
    and each Newton method starts from it by its own rule. ``SolverError`` is
    raised where no rule certifies within ``opts.max_iter`` steps; costs with
    no derivative, and custom divergences, raise ``UnsupportedCostError``."""
    require_valid(prior, menu, spec=spec)
    opts = opts or SolveOptions()
    if opts.init_marginals is not None:
        try:
            p = np.asarray(opts.init_marginals, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError("init_marginals must be an array of numbers") from None
        if p.shape != (menu.n_actions,):
            raise InvalidInputError(
                f"init_marginals has shape {p.shape} for {menu.n_actions} actions")
        if not (np.isfinite(p).all() and p.min() > 0.0):
            raise InvalidInputError("init_marginals must be strictly positive per action")
    kl = isinstance(getattr(spec, "divergence", None), KLDivergence)
    newton = _mi_newton if kl else _dual_newton
    try:
        _, weight = derivative_basis(spec)
    except UnsupportedCostError:
        if not hasattr(spec, "psi"):
            raise
        return _weight_root(menu, prior, spec, opts, newton)
    if weight == 0.0:
        return _free_information(menu, prior, spec)
    return newton(menu, prior, spec, weight, opts.init_marginals, opts.tol, opts.max_iter)


def solve_ps(menu: Menu, prior: Prior, spec: CostSpec,
             opts: SolveOptions | None = None) -> SolveResult:
    """Another name for ``solve``: the same checks, route and result."""
    return solve(menu, prior, spec, opts)


def _free_information(menu: Menu, prior: Prior, spec: CostSpec) -> SolveResult:
    """The weight-0 rule: each state goes to its best action, the lowest
    index on ties, certified and valued under ``spec``."""
    u = menu.utilities
    s = np.zeros(u.shape)
    s[u.argmax(axis=0), np.arange(u.shape[1])] = 1.0
    result = _result(u, prior, spec, s, 0, "free-information")[0]
    if result.certificate.verdict == "inconclusive":
        raise UnsupportedCostError(result.certificate.message)
    return result


def _silent_weight(div, u: np.ndarray, top: int, cap: float) -> tuple[float, bool]:
    """w-bar, above which the uninformative rule (every state to ``top``) is
    optimal, and True; or ``cap`` and False where w-bar is above ``cap``. At
    that rule lambda = u_top, as c's gradient at the prior is 0, so w-bar is
    the least w with every entry margin conjugate_max(u_b - u_top, w) <= 0,
    bisected in log w over all rows at once; rows never above u_top need none."""
    d = u[(u > u[top]).any(axis=1)] - u[top]
    if not d.size or div.conjugate_max(d, cap).max() > 0.0:
        return (cap, False) if d.size else (0.0, True)
    lo, hi = -1000.0, 0.0  # log2(w / cap)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if div.conjugate_max(d, cap * 2.0 ** mid).max() <= 0.0 else (mid, hi)
    return cap * 2.0 ** hi, True


def _weight_root(menu: Menu, prior: Prior, spec: CostSpec, opts: SolveOptions,
                 newton) -> SolveResult:
    """A divergence under a nonlinear psi, by its convex dual in one variable:
    max_x B(x) - psi(K(x)) = min over w of f(w) = V(w) + psi*(w), V(w) = B -
    wK at x(w), the ``newton`` solve at constant weight w. f' = psi*'(w) - K
    never decreases. It is negative at psi'(0), where x(0) is the
    free-information rule, and positive at min(psi'(K_full), w-bar), above
    which the uninformative rule is optimal (the answer if psi'(0) >= w-bar).
    A step minimizes the cubic through f and f' at the last two rules; where
    that leaves the bracket, psi* plus the ends' tangents of V, which finds a
    jump of K; else it halves the bracket. After each solve, the rule affine
    in w through the last two rules is tried at the root of their secant of
    f': across a jump, the mix with share t = (K_a - psi*'(w)) / (K_a - K_b)
    of b's rule, as K is linear along the rules optimal at one weight. The
    first rule that certifies under ``spec`` is returned. The first solve
    starts from ``opts.init_marginals`` or the free-information rule's
    marginals, each later one from the last rule's, by ``newton``'s rule."""
    div, psi, u, mu0 = spec.divergence, spec.psi, menu.utilities, prior.weights
    div.conjugate_argmax(np.zeros((1, prior.n_states)))  # refuses one without, before w-bar
    used, residual = 0, np.inf
    label = "weight-root:" + ("mi-newton" if newton is _mi_newton else "dual-newton")

    def judged(w: float, s: np.ndarray) -> tuple[SolveResult | None, list]:
        """The result if s certifies, and [w, f', f, s, K, B] for s optimal at w."""
        nonlocal residual
        result, rp = _result(u, prior, spec, s, used, label)
        residual, k = result.residual, float(rp.weights @ div.values(rp.belief_matrix()))
        x, benefit = psi.conjugate_derivative(w), float(mu0 @ (u * s).sum(axis=0))
        return result if residual <= opts.tol else None, \
            [w, x - k, benefit - w * k + w * x - psi.value(x), s, k, benefit]

    def solved(w: float) -> tuple[SolveResult | None, list]:
        """The solve at w, started after the last rule."""
        nonlocal used, previous
        inner = newton(menu, prior, Transformed(div, AffinePsi(w)), w,
                       opts.init_marginals if previous is None else previous @ mu0,
                       opts.tol, opts.max_iter - used)
        used, previous = used + inner.iterations, inner.scr.probs
        return judged(w, previous)

    top, k_full = int(np.argmax(u @ mu0)), float(mu0 @ div.values(np.eye(prior.n_states)))
    silent, free = np.zeros(u.shape), np.zeros(u.shape)
    silent[top], free[u.argmax(axis=0), np.arange(u.shape[1])] = 1.0, 1.0
    lo, previous = float(psi.derivative(0.0)), None if opts.init_marginals is not None else free
    hi, quiet = _silent_weight(div, u, top, float(psi.derivative(k_full)))
    found, a = judged(hi, silent) if quiet and hi <= lo else \
        solved(lo) if lo > 0.0 else judged(0.0, free)
    b = judged(hi, silent)[1] if quiet else [hi, None, None, None, 0.0, None]
    last = [p for p in (b, a) if p[3] is not None]
    while not found and used < opts.max_iter:
        w = 0.5 * (a[0] + b[0])
        if b[3] is not None and a[4] > b[4]:  # where the ends' tangents of V cross
            cut = (a[5] - b[5]) / (a[4] - b[4])
            x = psi.conjugate_derivative(min(max(cut, a[0]), b[0]))  # no cut outside is taken
            cut = cut if b[4] <= x <= a[4] else psi.derivative(min(max(x, b[4]), a[4]))
            w = cut if a[0] < cut < b[0] else w
        if len(last) == 2:  # the minimizer of the cubic through the last two rules
            (x0, g0, f0, *_), (x1, g1, f1, *_) = sorted(last, key=lambda p: p[0])
            with np.errstate(divide="ignore", invalid="ignore"):
                d1 = g0 + g1 - 3.0 * (f0 - f1) / np.float64(x0 - x1)
                d2 = np.sqrt(max(d1 * d1 - g0 * g1, 0.0))
                cubic = x1 - (x1 - x0) * (g1 + d2 - d1) / (g1 - g0 + 2.0 * d2)
            w = cubic if d1 * d1 >= g0 * g1 and a[0] < cubic < b[0] else w
        if not a[0] < w < b[0]:
            raise SolverError("the weight root did not certify", residual)
        found, point = solved(w)
        a, b = (a, point) if point[1] >= 0.0 else (point, b)
        (w0, g0, _, s0, *_), last = last[-1], [last[-1], point]
        if not found and g0 != point[1]:  # at the secant root w + r (w - w0)
            r = point[1] / (g0 - point[1])
            guess = point[3] + r * (point[3] - s0)
            if guess.min() >= 0.0:  # only its verdict is read
                found = judged(w, guess / guess.sum(axis=0))[0]
    if not found:
        raise SolverError("the weight root ran out of Newton steps", residual)
    return found


# ---------------------------------------------------------------------------
# Brute-force lattice oracle


@functools.lru_cache(maxsize=4)
def _lattice(n_states: int, resolution: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lattice of ``_simplex_lattice``, its contiguous transpose (the
    oracle's LP matrix) and the indices of its vertices, in state order, all
    read-only; the oracle reuses them across calls."""
    beliefs = _simplex_lattice(n_states, resolution)
    vertices = np.array([np.flatnonzero(beliefs[:, k] == 1.0)[0]
                         for k in range(n_states)])
    columns = np.ascontiguousarray(beliefs.T)
    for arr in (beliefs, columns, vertices):
        arr.setflags(write=False)
    return beliefs, columns, vertices


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

    Maximizes sum_i w_i (payoff envelope(mu_i) - weight * div(mu_i)) over
    lattice beliefs subject to the weighted beliefs averaging back to the
    prior. Valid for costs whose derivative, by ``derivative_basis``, does
    not move with the policy (an identity or affine psi, whose intercept
    psi(0) the value counts). Ties in the payoff envelope go to the lowest
    action index for reproducibility. A non-finite net payoff is refused.

    One simplex solve over the whole lattice, started from the simplex
    vertices (a feasible basis, since the prior has full support), gives
    the optimum: its equality duals y price every lattice belief mu at the
    reduced cost -net(mu) - mu . y, and it stops only when none is below
    -1e-12 times the largest |net|, so the hyperplane mu -> -mu . y lies on
    or above the net payoff at every lattice belief and supports the
    concavified net payoff.
    """
    require_valid(prior, menu, spec=spec)
    n_s = prior.n_states
    if n_s > 3:
        raise InvalidInputError("grid oracle supports at most three states")
    # refused unless the derivative cost is the same at every policy
    div, weight = derivative_basis(spec)
    if grid_resolution is None:
        grid_resolution = 400 if n_s <= 2 else 100
    if isinstance(grid_resolution, bool) or not isinstance(
            grid_resolution, (int, np.integer)) or grid_resolution < 1:
        raise InvalidInputError(
            f"grid resolution must be an integer >= 1, got {grid_resolution!r}"
        )

    beliefs, columns, vertices = _lattice(n_s, int(grid_resolution))
    payoff = menu.utilities @ columns
    # numpy's row kernels run faster on the column-major view, with the same bits
    net = payoff.max(axis=0) - weight * div.values(columns.T)
    bad = ~np.isfinite(net)
    if bad.any():
        raise InvalidInputError(f"grid oracle: the net payoff is not finite at "
                                f"lattice belief {beliefs[bad.argmax()].tolist()}")

    w, _ = simplex(-net, columns, prior.weights, vertices, "oracle")
    keep = (w > 1e-12).nonzero()[0]
    w_keep = w[keep]
    # the lowest action attaining the envelope at each kept lattice belief
    assigned = payoff[:, keep].argmax(axis=0)
    # C(p) = weight * K(p) + psi(0) under an affine psi
    value = float(net[keep] @ w_keep) - spec.psi.value(0.0)

    # each kept lattice belief adds its joint mass to its action's row, in
    # the order of keep
    kept = beliefs[keep]
    s = np.zeros((menu.n_actions, n_s))
    np.add.at(s, assigned, w_keep[:, None] * kept / prior.weights)
    s = s / s.sum(axis=0, keepdims=True)
    scr = SCR(s)

    # w is a basic solution, with at most n_s nonzero weights, that meets the
    # barycenter within 1e-10, so the policy passes its 1e-9 check
    policy = SimpleInfoPolicy(prior, kept, w_keep / w_keep.sum())
    return GridOracleResult(policy, value, scr, tuple(assigned.tolist()))


# ---------------------------------------------------------------------------
# Value-function convexity probe


@dataclass(frozen=True, slots=True)
class ConvexityReport:
    samples: int
    max_violation: float
    violations: tuple[tuple[float, float], ...]
    seed: int


def value_convexity_probe(menu: Menu, other: Menu, prior: Prior, spec: CostSpec,
                          samples: int = 100, seed: int = 0,
                          opts: SolveOptions | None = None) -> ConvexityReport:
    """Sample mixture weights and check the optimal value is convex in the
    utility matrix. Violations beyond ``OPTIMAL_TOL`` are reported, not raised."""
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
        if gap > OPTIMAL_TOL:
            violations.append((beta, float(gap)))
    return ConvexityReport(samples, float(worst), tuple(violations), seed)
