"""Optimality certificates and revealed-preference inversion.

For a smooth cost, an interior rule is optimal for a utility exactly when
the utility, net of the cost's belief gradient at each revealed posterior,
is a state function plus a complementary-slack penalty:

    u_a = lambda - gamma_a + g_a,   gamma_a >= 0,   gamma_a s_a = 0,

where g_a is the gradient of the derivative cost at action a's revealed
posterior. ``rule_first_order`` is the one implementation of this condition:
it builds the tightest multiplier over the supported actions, the entry
margins of the others and the duality gap they leave, the value the rule
can at most lose. ``certify`` reads a verdict off it, and the solvers
judge convergence and report their residual with it, so the two agree by
construction. ``recover_utility`` inverts the relation to identify the
utility up to the action-independent nuisance lambda; ``rationalize``
completes the recovered matrix into a utility that provably certifies;
``unique_check`` and ``find_equivalent`` decide whether the rule can be
the unique optimum and, when its revealed posteriors are affinely
dependent, construct a distinct rule with identical value.

The public functions take a rule as an ``SCR`` and check their inputs
once, with ``model.require_valid`` on the arguments they take. The
readers under them, ``rule_gradients``, ``rule_first_order`` and
``rule_value``, take the rule as the one record of what it reveals, the
``RevealedPolicy`` that ``revealed.revealed_posteriors`` builds, so each
caller computes the revealed posteriors once and shares them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostSpec,
    DivergenceSpec,
    UnsupportedCostError,
    derivative_basis,
    policy_cost,
)
from .model import OPTIMAL_TOL, InvalidInputError, Menu, Prior, SCR, require_valid
from .revealed import RevealedPolicy, revealed_posteriors


@dataclass(frozen=True, slots=True, eq=False)
class FOCCertificate:
    """The first-order condition of a rule, with a verdict on its optimality.

    Supported rows have a marginal s @ mu0 above ``SUPPORT_THRESHOLD``, and
    g_a is the weighted divergence gradient at row a's revealed posterior.
    ``lambda_`` is, per state, the largest u_a - g_a over the supported
    rows whose slope there is finite, and ``gamma`` the slack lambda_ -
    (u_a - g_a) >= 0 at those entries (zero elsewhere). ``entry_margins``
    maps each unsupported row, and each row with an unbounded slope, to its
    row of one row-wise conjugate_max over the rows u_b - lambda_.
    ``residual`` is the duality gap mu0 . lambda_ + max(0, largest entry
    margin) - (benefit - weight K), K the policy's expected divergence: by
    weak duality it bounds the value the rule loses, under a convex psi
    too. ``verdict`` is ``optimal`` at a residual <= ``OPTIMAL_TOL``, else
    ``not-optimal``, or ``inconclusive``, with nan multipliers, infinite
    residual and a ``message``, for a cost with no derivative.
    """

    lambda_: np.ndarray
    gamma: np.ndarray
    residual: float
    verdict: str
    entry_margins: dict[int, float]
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "lambda": self.lambda_,
            "gamma": self.gamma,
            "residual": self.residual,
            "verdict": self.verdict,
            "entry_margins": {str(k): v for k, v in self.entry_margins.items()},
            "message": self.message,
        }


def rule_gradients(spec: CostSpec, rp: RevealedPolicy
                   ) -> tuple[np.ndarray, DivergenceSpec, float]:
    """The g_a of a revealed rule's first-order condition, and the
    divergence and weight of the derivative cost they come from.

    The derivative cost is ``derivative_basis`` at the revealed policy. g_a
    is ``weight * div.gradients`` at the posterior of every supported
    action, zero rows elsewhere.
    """
    post = rp.belief_matrix()
    div, weight = derivative_basis(spec, post, rp.weights)
    grads = np.zeros(rp.probs.shape)
    # a zero weight times an unbounded slope is nan, which callers read as
    # unbounded like the -inf it multiplies
    with np.errstate(invalid="ignore"):
        grads[rp.supported] = weight * div.gradients(post)
    return grads, div, weight


def rule_first_order(u: np.ndarray, rp: RevealedPolicy, spec: CostSpec) -> FOCCertificate:
    """The certificate ``certify`` returns, without its input checks, for
    utility ``u`` under the derivative cost ``rule_gradients`` gives at the
    rule, judged at ``OPTIMAL_TOL``; the one place a certificate turns
    inconclusive. A nan entry margin leaves the residual nan, not optimal.

    Raising lambda_ by the largest positive entry margin makes every row
    dual-feasible. Since g_a . mu_a = weight c(mu_a), the gap is summed as
    sum mu0(w) s_a(w) (lambda_(w) - u_a(w) + g_a(w)) over the entries used
    with a finite slope, with no large terms to cancel.
    """
    s, supported = rp.probs, rp.supported
    try:
        grads, div, weight = rule_gradients(spec, rp)
    except UnsupportedCostError as exc:
        return FOCCertificate(np.full(s.shape[1], np.nan), np.zeros(s.shape), np.inf,
                              "inconclusive", {}, str(exc))
    m = u - grads
    finite = supported[:, None] & np.isfinite(m)
    lam = np.where(finite, m, -np.inf).max(axis=0)
    gamma = np.where(finite, lam - m, 0.0)
    # unsupported rows and rows with an unbounded slope, priced by one call
    out = (~finite.all(axis=1)).nonzero()[0]
    margins = dict(zip(out.tolist(), div.conjugate_max(u[out] - lam, weight).tolist()
                       if out.size else ()))
    joint = s * rp.prior.weights
    # an unbounded slope marks a posterior entry that adds no joint mass
    used = (joint > 0.0) & np.isfinite(m)
    gap = float(joint[used] @ (lam - m)[used])
    # the builtin max drops a nan margin; one that priced nothing certifies nothing
    margin = max([0.0, *margins.values()])
    residual = gap + (margin if all(x == x for x in margins.values()) else np.nan)
    verdict = "optimal" if residual <= OPTIMAL_TOL else "not-optimal"
    return FOCCertificate(lam, gamma, residual, verdict, margins)


def rule_value(u: np.ndarray, rp: RevealedPolicy, spec: CostSpec) -> float:
    """Expected utility of the revealed rule minus the cost of the policy
    it reveals, the cost ``kappa`` gives."""
    benefit = float(rp.prior.weights @ (u * rp.probs).sum(axis=0))
    return benefit - policy_cost(spec, rp.belief_matrix(), rp.weights)


@functools.lru_cache(maxsize=16)
def _index_labels(n_actions: int) -> tuple[str, ...]:
    """The default action labels "0", "1", ...; one tuple per action count,
    shared by every result that uses it."""
    return tuple(str(a) for a in range(n_actions))


def certify(scr: SCR, menu: Menu, prior: Prior, spec: CostSpec) -> FOCCertificate:
    """First-order certificate for the rule being optimal in the menu.

    Supported actions get the exact multiplier test; actions the rule never
    takes are checked through their entry margin, the best net value any
    belief could earn them over the supporting multiplier plane. Both tests
    together are exact for costs whose derivative cost is convex in the
    belief. The verdict is ``optimal`` at a duality gap <= ``OPTIMAL_TOL``.
    """
    require_valid(prior, menu, scr, spec)
    return rule_first_order(menu.utilities, revealed_posteriors(scr.probs, prior),
                            spec)


@dataclass(frozen=True, slots=True, eq=False)
class RecoveredUtility:
    """Utility matrix pinned down by the rule, up to a per-state shift.

    A utility v rationalizes the originating rule exactly when v_a - base_a
    is the same state vector for every action a.
    """

    base: np.ndarray


def recover_utility(scr: SCR, prior: Prior, spec: CostSpec) -> RecoveredUtility:
    """Invert a conditionally-full-support rule into the utility it reveals.

    Each action's row is the cost's belief gradient at that action's
    revealed posterior, refused where ``rationalize`` refuses it. Requires
    every action to be used in every state; zero marginals are rejected.
    """
    require_valid(prior, scr=scr, spec=spec)
    # a zero entry is refused before the rule is revealed
    rp = revealed_posteriors(scr.probs, prior) if scr.probs.min() > 0.0 else None
    if rp is None or not rp.supported.all():
        raise InvalidInputError(
            "utility recovery needs conditionally full support "
            "(every action used in every state)"
        )
    return RecoveredUtility(_revealed_utility(spec, rp)[0])


def _revealed_utility(spec: CostSpec, rp: RevealedPolicy
                      ) -> tuple[np.ndarray, DivergenceSpec, float]:
    """``rule_gradients``, the utility rows a rule reveals, refused where a
    supported row's slope is unbounded: no finite utility makes it optimal."""
    grads, div, weight = rule_gradients(spec, rp)
    unbounded = np.flatnonzero(rp.supported & ~np.isfinite(grads).all(axis=1))
    if unbounded.size:
        raise InvalidInputError(
            "not rationalizable under this cost: supported action "
            f"{unbounded[0]} puts zero probability on a positive-prior state, "
            "and the cost's slope toward no information is unbounded there"
        )
    return grads, div, weight


@dataclass(frozen=True, slots=True, eq=False)
class UniquenessReport:
    """``rank`` of [mu^T; 1] over the supported posteriors, one column each,
    its ``singular_values`` and the ``threshold`` they count above."""

    unique_capable: bool
    rank: int
    n_actions: int
    singular_values: np.ndarray
    threshold: float

    @property
    def verdict(self) -> str:
        return "unique-capable" if self.unique_capable else "not-unique"


def unique_check(scr: SCR, prior: Prior) -> UniquenessReport:
    """Rank test for the rule being capable of unique rationalization.

    Full rank means every action is used (an excluded one has no column)
    with affinely independent revealed posteriors, which under strictly
    monotone costs makes the indirect cost strictly convex through the
    rule. A zero-weight prior state, a rule with the wrong state count or
    a column sum off 1 is refused.
    """
    require_valid(prior, scr=scr)
    return _affine_rank(revealed_posteriors(scr.probs, prior))[0]


def _affine_rank(rp: RevealedPolicy) -> tuple[UniquenessReport, np.ndarray]:
    """``unique_check``'s report and [mu^T; 1]'s right singular vectors, from
    one SVD; the cutoff, 1e-10 max(sigma_0, 1), scales with the matrix."""
    post = rp.belief_matrix()
    _, svals, vt = np.linalg.svd(np.vstack([post.T, np.ones(len(post))]))
    threshold = 1e-10 * max(svals[0], 1.0)
    rank, n_actions = int(np.count_nonzero(svals > threshold)), len(rp.probs)
    return UniquenessReport(rank == n_actions, rank, n_actions, svals, threshold), vt


def find_equivalent(scr: SCR, menu: Menu, prior: Prior, spec: CostSpec) -> SCR | None:
    """Construct a distinct rule with the same value, when one exists.

    Requires a certified-optimal input and a cost affine in the policy
    weights, one whose derivative cost ``derivative_basis`` gives without a
    policy (a divergence under an identity or affine psi); any other cost
    gets the map's refusal. When the supported actions' revealed posteriors
    mu_a are affinely dependent, as two equal ones are, a null vector nu of
    [mu^T; 1] moves the marginals to p + eps nu with every posterior and
    the prior fixed. The first-order condition gives (u_a - g_a) . mu_a =
    lambda . mu_a on supported rows, so the value moves by lambda . sum_a
    nu_a mu_a = 0. Returns None when the posteriors are affinely independent
    or neither direction of nu keeps the value within 1e-10.

    The input is checked once, as ``certify`` checks it. The certificate,
    the rule's value and ``unique_check``'s rank test, whose SVD gives nu,
    then share one computation of its revealed posteriors.
    """
    # refused unless the derivative cost is the same at every policy
    derivative_basis(spec)
    require_valid(prior, menu, scr, spec)
    u, s = menu.utilities, scr.probs
    rp = revealed_posteriors(s, prior)
    verdict = rule_first_order(u, rp, spec).verdict
    if verdict != "optimal":
        raise InvalidInputError(
            f"input rule is not certified optimal (verdict {verdict})"
        )
    report, vt = _affine_rank(rp)
    if report.rank == len(rp.weights):
        return None

    base_value = rule_value(u, rp, spec)
    supported = rp.supported
    # an SVD leaves the null vector's sign to rounding; fixing it (the
    # largest |entry| positive, the first on ties) makes the twin a
    # function of the rule, so relabelled actions give a relabelled twin
    nu = vt[-1]
    if nu[np.abs(nu).argmax()] < 0.0:
        nu = -nu
    marg = rp.marginals[supported]
    eps = 0.5 * (marg[nu != 0.0] / np.abs(nu[nu != 0.0])).min()
    for sign in (1.0, -1.0):
        factors = (marg + sign * eps * nu) / marg
        candidate = s.copy()
        candidate[supported] = factors[:, None] * s[supported]
        alt = SCR(candidate)
        if np.abs(alt.probs - s).max() <= 1e-12:
            continue
        twin = revealed_posteriors(alt.probs, prior)
        if abs(rule_value(u, twin, spec) - base_value) <= 1e-10:
            return alt
    return None


def rationalize(scr: SCR, prior: Prior, spec: CostSpec,
                actions: tuple[str, ...] | None = None) -> Menu:
    """Build a utility for which the rule certifies as optimal.

    Supported actions take the cost's belief gradient at their revealed
    posterior. Unsupported actions take a flat payoff low enough that no
    belief earns them positive net value over the supporting plane, so the
    certificate's entry test passes by construction. A supported action
    whose revealed posterior leaves the cost's slope unbounded is refused.
    """
    require_valid(prior, scr=scr, spec=spec)
    rp = revealed_posteriors(scr.probs, prior)
    grads, div, weight = _revealed_utility(spec, rp)
    if not rp.supported.all():
        # with u_a = g_a on the supported rows the certificate's multiplier
        # is 0, so a flat payoff v earns the entry margin
        # v + conjugate_max(0) = v - weight * min c
        grads[~rp.supported] = weight * div.minimum()
    labels = actions if actions is not None else _index_labels(scr.n_actions)
    return Menu(labels, grads)
