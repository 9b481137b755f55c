"""Forward solvers for the agent's program: maximize E[u . s] - kappa(s).

Two routes are implemented; ``solve`` picks one by ``derivative_basis``.

``solve_mi`` handles mutual information; ``solve`` runs its method on any
KL divergence under a constant positive weight. The optimal rule is a
state-wise logit in the scaled utilities at the action marginals that
maximize a smooth concave function of the marginals alone (Matejka &
McKay 2015); its KKT conditions are the certificate's no-profitable-entry
test (Caplin, Dean & Leahy 2019). A projected Newton method on the
marginals, in log-sum-exp form, solves it: actions leave and enter the
support through the bounds p_a >= 0. When the optimal rule has a supported
entry too small for float64, the solver raises instead of returning a rule
that cannot certify.

``solve_ps`` handles any cost whose divergence has a Hessian, under any
psi. In the joint probabilities x_aw = mu0(w) s_a(w) the agent's program
is concave: the cost is psi of a sum of perspectives of the divergence
(Caplin, Dean & Leahy 2022). A log-barrier method (Boyd & Vandenberghe
2004, section 11.3) solves it with Newton steps whose KKT systems reduce,
by a Schur complement, to the state multipliers. On the barrier's central
path the certificate's complementary slack is the barrier parameter
itself.

Both solvers share one residual routine with the certificate,
``inverse.rule_first_order``: it is the stopping rule of both, and the
certificate it gives on the returned rule's own probabilities, exactly as
``certify`` reads it, is the one the result carries.

``grid_oracle`` is a brute-force concavification check for up to three
states: maximize expected (payoff envelope minus derivative cost) over
lattice beliefs subject to the barycenter pinning the prior, an LP. One
dense simplex solve (``revealed.simplex``) over the whole lattice, started
from the simplex vertices, solves it; it stops when the dual hyperplane
lies on or above the net payoff at every lattice belief, the optimality
certificate of the LP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostSpec,
    KLDivergence,
    MutualInformation,
    UnsupportedCostError,
    derivative_basis,
)
from .inverse import FOCCertificate, rule_first_order, rule_value
from .model import (
    SUPPORT_THRESHOLD,
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


@dataclass(frozen=True, slots=True)
class SolveOptions:
    """Knobs shared by the solvers. ``tol`` defaults per solver when None,
    and must be positive otherwise; ``max_iter`` must be at least 1."""

    tol: float | None = None
    max_iter: int = 100_000
    init_marginals: np.ndarray | None = None

    def __post_init__(self):
        # false on nan too
        if self.tol is not None and not self.tol > 0.0:
            raise InvalidInputError(f"options.tol: must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidInputError(
                f"options.max_iter: must be at least 1, got {self.max_iter}")


@dataclass(frozen=True, slots=True)
class SolveResult:
    """A solve's rule, its value (benefit minus ``kappa``) and the
    certificate its stopping test accepted, the record ``certify`` returns
    for the rule; ``residual`` is that certificate's residual."""

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


def _certified(u: np.ndarray, prior: Prior, spec: CostSpec, s: np.ndarray
               ) -> tuple[SCR, RevealedPolicy, FOCCertificate]:
    """Rule ``s`` as an SCR, the policy the SCR reveals and its certificate,
    read exactly as ``certify`` reads them."""
    scr = SCR(s)
    rp = revealed_posteriors(scr.probs, prior)
    return scr, rp, rule_first_order(u, rp, spec)


def _initial_marginals(opts: SolveOptions, n_a: int) -> np.ndarray:
    """``opts.init_marginals`` normalized to sum to 1; uniform by default."""
    if opts.init_marginals is None:
        return np.full(n_a, 1.0 / n_a)
    p = np.asarray(opts.init_marginals, dtype=float)
    if p.shape != (n_a,):
        raise InvalidInputError(f"init_marginals has {p.size} entries for {n_a} actions")
    if not (np.isfinite(p).all() and p.min() > 0.0):
        raise InvalidInputError("init_marginals must be strictly positive per action")
    return p / p.sum()


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

    The iteration stops when the residual of the rule's certificate, which
    the result carries, falls under ``opts.tol`` (default 1e-10). When
    information is so cheap that the optimal rule has a supported entry
    below float64's subnormal range (log s < -745), that entry is stored as
    0 and its posterior sits where the KL slope is unbounded, so no rule
    rounded from the optimum certifies: once the KKT conditions hold to
    ``tol / scale`` the solver raises ``SolverError`` with residual inf,
    naming the smallest supported entry. So tiny a scale that u / scale
    overflows float64 raises ``SolverError`` naming the overflow.
    """
    require_valid(prior, menu)
    return _mi_newton(menu, prior, MutualInformation(prior, scale), scale, opts)


def _mi_newton(menu: Menu, prior: Prior, spec: CostSpec, scale: float,
               opts: SolveOptions | None) -> SolveResult:
    """``solve_mi``'s Newton method on checked inputs, for a ``spec`` whose
    derivative cost is KL at the constant weight ``scale``: every iterate is
    certified, and the result valued, under ``spec`` itself."""
    opts = opts or SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-10
    n_a = menu.n_actions
    mu0 = prior.weights
    u = menu.utilities
    with np.errstate(over="ignore"):
        scaled = u / scale
        if not np.isfinite(scaled).all():
            raise SolverError(f"the scaled utilities u / scale overflow float64 at "
                              f"scale {scale!r}", np.inf)
        # a per-state shift of u / scale rescales z(w), moving G by a constant;
        # an entry shifted below float64's range is -inf, the exact e^-inf = 0
        scaled = scaled - scaled.max(axis=0)
    p = _initial_marginals(opts, n_a)
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
        scr, rp, certificate = _certified(u, prior, spec, np.exp(log_s))
        residual = certificate.residual
        if residual < tol:
            return SolveResult(scr, rule_value(u, rp, spec), iterations, certificate,
                               "mi-newton")

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
# Log-barrier Newton for derivative-carrying costs

#: barrier parameter cut per stage
_T_CUT = 20.0
#: a stage ends once the squared Newton decrement is below this multiple of t
_CENTRED = 1e-9
#: below this multiple of t the squared decrement marks the quadratically
#: convergent region, where a step is taken without a line search
_LOCAL = 0.25
#: rounds of iterative refinement of each Newton step
_REFINE = 3


class _Stalled(Exception):
    """A line search or the step budget ran out before the stage centred."""


@dataclass(frozen=True, slots=True)
class _Barrier:
    """The barrier objective -u . x + psi(K(x)) - t sum_aw mu0(w) log x_aw
    of joint probabilities x_aw = mu0(w) s_a(w) > 0, with its gradient.

    K(x) = sum_a p_a c(x_a / p_a), p_a = sum_w x_aw, sums the perspectives
    of the divergence c; its gradient in x_a is c's belief gradient at the
    posterior x_a / p_a, which ``gradients`` normalizes exactly so. The
    prior weights put the central path at gamma_aw s_a(w) = t.
    """

    u: np.ndarray
    mu0: np.ndarray
    spec: CostSpec
    t: float

    def gradient(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The gradient at x, and the parts of it the Hessian reuses."""
        p = x.sum(axis=1)
        post = x / p[:, None]
        div, weight, curvature = derivative_basis(self.spec, post, p)
        g = div.gradients(post)
        return weight * g - self.u - self.t * self.mu0 / x, \
            (p, post, div, weight, curvature, g)

    def newton(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The Newton direction under sum_a x_aw = mu0(w), and the squared
        Newton decrement.

        Action a's Hessian block is psi'(K) / p_a J^T H_c J + t diag(mu0 /
        x_a^2), with J = I - mu_a 1^T and H_c = ``div.hessians`` at the
        posterior mu_a; a transformed cost adds psi''(K) g g^T across the
        blocks. A Schur complement onto the state multipliers solves the
        KKT system, Sherman-Morrison the rank-one term. P(x_a) = p_a c(x_a /
        p_a) is 1-homogeneous, so each block is singular along x_a but for
        the barrier; iterative refinement on both residual blocks recovers
        the accuracy its inverse loses.
        """
        grad, (p, post, div, weight, curvature, g) = self.gradient(x)
        hess = div.hessians(post)
        # J^T H J, with (H J)_ij = H_ij - (H mu)_i and (J^T M)_ij = M_ij - (mu^T M)_j
        hj = hess - np.einsum("aij,aj->ai", hess, post)[:, :, None]
        blocks = hj - np.einsum("ai,aij->aj", post, hj)[:, None, :]
        blocks *= weight / p[:, None, None]
        diag = np.arange(x.shape[1])
        blocks[:, diag, diag] += self.t * self.mu0 / x**2
        inv = np.linalg.inv(blocks)
        # psi'' is unbounded only at the uninformative rule, where g = 0 and
        # psi'' g g^T vanishes in the limit
        rho = curvature if np.isfinite(curvature) else 0.0
        z = (inv @ g[..., None])[..., 0]
        coef = rho / (1.0 + rho * (g * z).sum())
        schur = inv.sum(axis=0) - coef * np.outer(z.sum(axis=0), z.sum(axis=0))

        def h_apply(v):
            return (blocks @ v[..., None])[..., 0] + rho * (g * v).sum() * g

        def h_solve(v):
            # v holds a vector per action, or one shared by all (the multiplier)
            y = (inv @ v[..., None])[..., 0]
            return y - coef * (g * y).sum() * z

        def kkt_solve(r_dual, r_primal):
            y = h_solve(r_dual)
            nu = np.linalg.solve(schur, y.sum(axis=0) - r_primal)
            return y - h_solve(nu), nu

        r_dual, r_primal = -grad, self.mu0 - x.sum(axis=0)
        dx, nu = kkt_solve(r_dual, r_primal)
        for _ in range(_REFINE):
            ddx, dnu = kkt_solve(r_dual - h_apply(dx) - nu, r_primal - dx.sum(axis=0))
            dx, nu = dx + ddx, nu + dnu
        return dx, float((dx * h_apply(dx)).sum())

    def centre(self, x: np.ndarray, budget: int) -> tuple[np.ndarray, int]:
        """Newton steps from x until the squared decrement is below
        ``_CENTRED * t``; returns the point and the steps taken.

        Far from the centre each step backtracks until the objective still
        falls at its end, which by convexity makes it fall along the whole
        step; slopes stay exact where differences of the objective are lost
        to rounding (costs of scale 1e4). Near the centre, where the
        decrement over sqrt(t) is below 1/2 and Newton's method converges
        quadratically on self-concordant functions (Boyd & Vandenberghe
        2004, section 9.6), the step is taken without a search, whose
        slope tests there are decided by rounding.
        """
        steps = 0
        while True:
            dx, decrement = self.newton(x)
            if decrement <= _CENTRED * self.t:
                return x, steps
            if steps == budget or not np.isfinite(decrement):
                raise _Stalled
            steps += 1
            shrink = dx < 0.0
            step = min(1.0, 0.99 * float((x[shrink] / -dx[shrink]).min())) \
                if shrink.any() else 1.0
            while decrement > _LOCAL * self.t and \
                    (self.gradient(x + step * dx)[0] * dx).sum() > 0.0:
                step *= 0.5
                if step < 1e-12:
                    raise _Stalled
            x = x + step * dx


def solve_ps(menu: Menu, prior: Prior, spec: CostSpec,
             opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice for any cost exposing a derivative.

    In the joint probabilities x_aw = mu0(w) s_a(w) the agent maximizes the
    concave u . x - psi(K(x)) subject to sum_a x_aw = mu0(w) and x >= 0,
    where K(x) = sum_a p_a c(x_a / p_a) sums the perspectives of the
    divergence c (Caplin, Dean & Leahy 2022). A log-barrier method (Boyd &
    Vandenberghe 2004, section 11.3) solves it. Newton steps centre x on
    the barrier objective at t, starting from x_aw = p_a mu0(w) with p
    ``opts.init_marginals`` (uniform by default) and t the largest payoff
    range within a state; t then falls 20-fold per stage. On the central
    path gamma_aw s_a(w) = t, so the certificate's slack falls with t, and
    the certificate's residual is at most n_actions * t there.

    The stopping rule is the certificate's: after each stage the rule's
    first-order residual is compared with ``opts.tol`` (default 1e-8). The
    barrier's value gap is n_actions * t, so one more stage runs after the
    first certified one; its rule is returned if it certifies too, else
    the first. No stage runs at t below tol / (400 n_actions): a rule that
    fails the certificate two stages past tol / n_actions was not centred,
    and ``SolverError`` is raised, as it is when ``opts.max_iter`` Newton
    steps run out first. Custom divergences have no Hessian and raise
    ``UnsupportedCostError``.
    """
    opts = opts or SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-8
    require_valid(prior, menu, spec=spec)
    u, mu0, n_a = menu.utilities, prior.weights, menu.n_actions

    def result(x: np.ndarray, iterations: int) -> SolveResult:
        scr, rp, certificate = _certified(u, prior, spec, x / x.sum(axis=0))
        return SolveResult(scr, rule_value(u, rp, spec), iterations, certificate,
                           "barrier-newton")

    x = _initial_marginals(opts, n_a)[:, None] * mu0
    current = result(x, 0)
    if current.residual < tol:
        return current
    # every posterior of the start is the prior: inconclusive means no derivative
    if current.certificate.verdict == "inconclusive":
        raise UnsupportedCostError(current.certificate.message)
    t = float(np.ptp(u, axis=0).max())
    certified = None
    iterations = 0
    while t * n_a * _T_CUT**2 >= tol:
        try:
            x, steps = _Barrier(u, mu0, spec, t).centre(x, opts.max_iter - iterations)
        except (_Stalled, np.linalg.LinAlgError):
            break
        iterations += steps
        current = result(x, iterations)
        if certified is not None:
            return current if current.residual < tol else certified
        if current.residual < tol:
            certified = current
        t /= _T_CUT
    if certified is not None:
        return certified
    raise SolverError("barrier Newton did not reach the target residual",
                      current.residual)


def solve(menu: Menu, prior: Prior, spec: CostSpec,
          opts: SolveOptions | None = None) -> SolveResult:
    """Optimal stochastic choice: ``solve_mi``'s Newton method, under ``spec``
    itself, for a KL divergence under a constant positive weight by
    ``derivative_basis``; ``solve_ps`` for every other cost with a derivative."""
    try:
        div, weight, _ = derivative_basis(spec)
    except UnsupportedCostError:  # the weight moves with the policy, or none exists
        div, weight = None, 0.0
    if not (isinstance(div, KLDivergence) and 0.0 < weight < np.inf):
        return solve_ps(menu, prior, spec, opts)
    require_valid(prior, menu, spec=spec)
    return _mi_newton(menu, prior, spec, weight, opts)


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
    div, weight, _ = derivative_basis(spec)
    if grid_resolution is None:
        grid_resolution = 400 if n_s <= 2 else 100
    if not isinstance(grid_resolution, (int, np.integer)) or grid_resolution < 1:
        raise InvalidInputError(
            f"grid resolution must be an integer >= 1, got {grid_resolution!r}"
        )

    beliefs, columns, vertices = _lattice(n_s, int(grid_resolution))
    payoff = menu.utilities @ columns
    top = payoff.max(axis=0)
    # the lowest action attaining the envelope, as argmax would give it;
    # argmax along the short action axis loops per belief, this per action
    assigned = np.full(len(top), menu.n_actions - 1)
    for a in range(menu.n_actions - 2, -1, -1):
        np.putmask(assigned, payoff[a] == top, a)
    # numpy's row kernels run faster on the column-major view, with the same bits
    net = top - weight * div.values(columns.T)
    bad = ~np.isfinite(net)
    if bad.any():
        raise InvalidInputError(f"grid oracle: the net payoff is not finite at "
                                f"lattice belief {beliefs[bad.argmax()].tolist()}")

    w, _ = simplex(-net, columns, prior.weights, vertices, "oracle")
    keep = (w > 1e-12).nonzero()[0]
    w_keep = w[keep]
    # C(p) = weight * K(p) + psi(0) under an affine psi
    value = float(net[keep] @ w_keep) - spec.psi.value(0.0)

    # each kept lattice belief adds its joint mass to its action's row, in
    # the order of keep
    kept = beliefs[keep]
    s = np.zeros((menu.n_actions, n_s))
    np.add.at(s, assigned[keep], w_keep[:, None] * kept / prior.weights)
    s = s / s.sum(axis=0, keepdims=True)
    scr = SCR(s)

    # w is a basic solution, with at most n_s nonzero weights, that meets the
    # barycenter within 1e-10, so the policy passes its 1e-9 check
    policy = SimpleInfoPolicy(prior, kept, w_keep / w_keep.sum())
    return GridOracleResult(policy, value, scr, tuple(assigned[keep].tolist()))


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
