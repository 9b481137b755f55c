"""Optimality certificates and revealed-preference inversion.

For a smooth cost, an interior rule is optimal for a utility exactly when
the utility, net of the cost's belief gradient at each revealed posterior,
is a state function plus a complementary-slack penalty:

    u_a = lambda - gamma_a + g_a,   gamma_a >= 0,   gamma_a s_a = 0,

where g_a is the gradient of the derivative cost at action a's revealed
posterior. ``first_order`` is the one implementation of this condition:
it builds the tightest multiplier pair over the supported actions and,
on request, the entry margins of the others. ``certify`` reads a verdict
off it, and the forward solvers judge convergence and report their
residual with it, so a solver's residual and the certificate's agree by
construction. ``recover_utility`` inverts the relation to identify the
utility up to the action-independent nuisance lambda; ``rationalize``
completes the recovered matrix into a utility that provably certifies;
``unique_check`` and ``find_equivalent`` decide whether the rule can be
the unique optimum and, when its revealed posteriors are affinely
dependent, construct a distinct rule with identical value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import (
    CostSpec,
    DivergenceSpec,
    MutualInformation,
    PosteriorSeparable,
    UnsupportedCostError,
    check_prior,
    derivative_basis,
)
from .model import SUPPORT_THRESHOLD, InvalidInputError, Menu, Prior, SCR, require_valid
from .revealed import kappa, reveal

_RANK_EPS = 1e-12
_POSTERIOR_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class FOCCertificate:
    """Multiplier certificate for (non-)optimality of a rule.

    ``verdict`` is one of ``optimal``, ``not-optimal``, ``inconclusive``.
    ``lambda_`` is the per-state multiplier, ``gamma`` the nonnegative
    action-by-state slack matrix (zero rows for unsupported actions, whose
    exact slack lives in ``entry_margins``), and ``residual`` the largest
    violation among complementary slackness and entry margins.
    """

    lambda_: np.ndarray
    gamma: np.ndarray
    residual: float
    verdict: str
    entry_margins: dict[int, float]
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "lambda": [float(v) for v in self.lambda_],
            "gamma": [[float(v) for v in row] for row in self.gamma],
            "residual": float(self.residual),
            "verdict": self.verdict,
            "entry_margins": {str(k): float(v) for k, v in self.entry_margins.items()},
            "message": self.message,
        }


@dataclass(frozen=True)
class FirstOrder:
    """The first-order condition of a rule, read off at its revealed posteriors.

    ``marginals`` is s @ mu0; ``supported`` marks the rows whose marginal
    exceeds ``SUPPORT_THRESHOLD`` (the ``reveal`` convention). ``grads``
    holds g_a, the weighted divergence gradient at the revealed posterior
    of every row with a positive marginal (zero rows elsewhere). ``lam`` is
    the tightest per-state multiplier over the supported rows, ``gamma`` is
    lam - (u_a - g_a) on them (zero rows elsewhere), and ``slack`` the
    largest gamma_a * s_a. ``entry_margins`` maps every unsupported row b to
    conjugate_max(u_b - lam, weight) when they were asked for, and is empty
    otherwise. Where the divergence's slope is unbounded at a supported
    posterior no finite multiplier exists: ``lam`` is nan and ``slack`` inf.
    """

    marginals: np.ndarray
    supported: np.ndarray
    grads: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    slack: float
    entry_margins: dict[int, float]

    @property
    def residual(self) -> float:
        """Largest violation among complementary slackness and the entry
        margins computed."""
        return max([self.slack, *self.entry_margins.values()])


def revealed_posteriors(s: np.ndarray, mu0: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals of a rule, the mask of its rows with a positive marginal,
    and the Bayes posterior of each of those rows, one per row."""
    p = s @ mu0
    rows = p > 0.0
    post = s[rows] * mu0 / p[rows, None]
    return p, rows, post / post.sum(axis=1, keepdims=True)


def rule_derivative(spec: CostSpec, s: np.ndarray, mu0: np.ndarray
                    ) -> tuple[DivergenceSpec, float]:
    """``derivative_basis`` at the policy a rule reveals: the rows whose
    marginal exceeds ``SUPPORT_THRESHOLD``, weighted by their renormalized
    marginals."""
    p, rows, post = revealed_posteriors(s, mu0)
    keep = p[rows] > SUPPORT_THRESHOLD
    weights = p[rows][keep]
    return derivative_basis(spec, post[keep], weights / weights.sum())


def revealed_gradients(s: np.ndarray, mu0: np.ndarray, div: DivergenceSpec,
                       weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginals of a rule and ``weight * div.gradients`` at the revealed
    posterior of every row with a positive marginal, zero rows elsewhere:
    the g_a of the first-order condition."""
    p, rows, post = revealed_posteriors(s, mu0)
    grads = np.zeros_like(s)
    # a zero weight times an unbounded slope is nan, which callers read as
    # unbounded like the -inf it multiplies
    with np.errstate(invalid="ignore"):
        grads[rows] = weight * div.gradients(post)
    return p, grads


def first_order(u: np.ndarray, s: np.ndarray, mu0: np.ndarray,
                div: DivergenceSpec, weight: float,
                entry: bool = False) -> FirstOrder:
    """The multiplier, slack and (when ``entry``) entry margins of a rule
    for utility ``u`` under the derivative cost ``weight * div``.

    Entry margins cost a ``conjugate_max`` per unsupported row, so callers
    that only need the slack leave ``entry`` off.
    """
    p, grads = revealed_gradients(s, mu0, div, weight)
    supported = p > SUPPORT_THRESHOLD
    m = u[supported] - grads[supported]
    gamma = np.zeros_like(s)
    if not np.isfinite(m).all():
        return FirstOrder(p, supported, grads, np.full(s.shape[1], np.nan), gamma,
                          np.inf, {})
    lam = m.max(axis=0)
    gamma[supported] = lam - m
    slack = float((gamma[supported] * s[supported]).max())
    margins = {}
    if entry:
        margins = {int(b): div.conjugate_max(u[b] - lam, weight)
                   for b in np.flatnonzero(~supported)}
    return FirstOrder(p, supported, grads, lam, gamma, slack, margins)


def rule_first_order(u: np.ndarray, s: np.ndarray, mu0: np.ndarray,
                     spec: CostSpec, entry: bool = False) -> FirstOrder:
    """``first_order`` under the derivative cost ``rule_derivative`` gives
    at the rule itself, as ``certify`` prices it."""
    return first_order(u, s, mu0, *rule_derivative(spec, s, mu0), entry=entry)


def _inconclusive(n_a: int, n_s: int, message: str) -> FOCCertificate:
    return FOCCertificate(np.full(n_s, np.nan), np.zeros((n_a, n_s)), np.inf,
                          "inconclusive", {}, message)


def certify(scr: SCR, menu: Menu, prior: Prior, spec: CostSpec,
            tol: float = 1e-8) -> FOCCertificate:
    """First-order certificate for the rule being optimal in the menu.

    Supported actions get the exact multiplier test; actions the rule never
    takes are checked through their entry margin, the best net value any
    belief could earn them over the supporting multiplier plane. Both tests
    together are exact for costs whose derivative cost is convex in the
    belief.
    """
    require_valid(prior, menu, scr)
    check_prior(spec, prior)
    s, mu0 = scr.probs, prior.weights
    try:
        foc = rule_first_order(menu.utilities, s, mu0, spec, entry=True)
    except UnsupportedCostError as exc:
        return _inconclusive(menu.n_actions, prior.n_states, str(exc))
    if foc.slack == np.inf:
        return _inconclusive(
            menu.n_actions, prior.n_states,
            "boundary posterior: the cost's slope toward no information "
            "is unbounded there, so no finite multiplier exists",
        )
    verdict = "optimal" if foc.residual <= tol else "not-optimal"
    return FOCCertificate(foc.lam, foc.gamma, foc.residual, verdict,
                          foc.entry_margins)


def _require_rule(scr: SCR, prior: Prior, spec: CostSpec) -> None:
    """The checks ``certify`` makes, for callers that have no menu."""
    blank = Menu([str(a) for a in range(scr.n_actions)],
                 np.zeros((scr.n_actions, prior.n_states)))
    require_valid(prior, blank, scr)
    check_prior(spec, prior)


@dataclass(frozen=True)
class RecoveredUtility:
    """Utility matrix pinned down by the rule, up to a per-state shift.

    A utility v rationalizes the originating rule exactly when v_a - base_a
    is the same state vector for every action a.
    """

    actions: tuple[str, ...]
    base: np.ndarray
    normalization: str = (
        "identified up to adding one state-dependent, action-independent term"
    )


def recover_utility(scr: SCR, prior: Prior, spec: CostSpec,
                    actions: tuple[str, ...] | None = None) -> RecoveredUtility:
    """Invert a conditionally-full-support rule into the utility it reveals.

    Each action's row is the cost's belief gradient at that action's
    revealed posterior. Requires every action to be used in every state;
    zero marginals and boundary posteriors are rejected.
    """
    _require_rule(scr, prior, spec)
    if not scr.has_conditionally_full_support():
        raise InvalidInputError(
            "utility recovery needs conditionally full support "
            "(every action used in every state)"
        )
    s, mu0 = scr.probs, prior.weights
    div, weight = rule_derivative(spec, s, mu0)
    p, base = revealed_gradients(s, mu0, div, weight)
    if p.min() <= SUPPORT_THRESHOLD:
        raise InvalidInputError("utility recovery: zero-marginal action present")
    labels = actions if actions is not None else tuple(str(a) for a in range(scr.n_actions))
    return RecoveredUtility(labels, base)


@dataclass(frozen=True)
class UniquenessReport:
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

    The rows s_a(w) mu0(w) are the revealed posteriors scaled by their
    marginals; full row rank is equivalent to full support plus affinely
    independent revealed posteriors, which under strictly monotone costs
    makes the indirect cost strictly convex through the rule. The singular
    value cutoff scales with the matrix so the verdict is scale invariant.
    """
    mat = scr.probs * prior.weights[None, :]
    svals = np.linalg.svd(mat, compute_uv=False)
    threshold = prior.n_states * (svals[0] if svals.size else 0.0) * _RANK_EPS
    rank = int(np.sum(svals > threshold))
    return UniquenessReport(rank == scr.n_actions, rank, scr.n_actions,
                            svals, threshold)


def _value(menu: Menu, prior: Prior, spec: CostSpec, scr: SCR) -> float:
    benefit = float(prior.weights @ (menu.utilities * scr.probs).sum(axis=0))
    return benefit - kappa(spec, scr, prior)


def find_equivalent(scr: SCR, menu: Menu, prior: Prior, spec: CostSpec) -> SCR | None:
    """Construct a distinct rule with the same value, when one exists.

    Requires a posterior-separable-type cost (affine in the policy weights)
    and a certified-optimal input. Two constructions are tried: shifting
    conditional mass between actions whose revealed posteriors coincide,
    and re-weighting along an affine dependence among the revealed
    posteriors. Returns None when the rule is unique-capable or no
    value-preserving alternative is found.
    """
    if not isinstance(spec, (MutualInformation, PosteriorSeparable)):
        raise UnsupportedCostError(
            "equal-value construction needs a cost affine in the policy weights"
        )
    cert = certify(scr, menu, prior, spec)
    if cert.verdict != "optimal":
        raise InvalidInputError(
            f"input rule is not certified optimal (verdict {cert.verdict})"
        )
    if unique_check(scr, prior).unique_capable:
        return None

    rp = reveal(scr, prior)
    included = list(rp.included)
    base_value = _value(menu, prior, spec, scr)
    u = menu.utilities

    # route 1: two supported actions reveal the same posterior, so shifting
    # their conditional mass moves nothing informational
    for i, a in enumerate(included):
        for b in included[i + 1:]:
            pa_w = rp.posteriors[a].weights
            pb_w = rp.posteriors[b].weights
            if np.abs(pa_w - pb_w).max() > _POSTERIOR_MATCH_TOL:
                continue
            total = scr.probs[a] + scr.probs[b]
            share = rp.marginals[a] / (rp.marginals[a] + rp.marginals[b])
            new_share = 0.5 if abs(share - 0.5) > 1e-6 else 0.25
            candidate = scr.probs.copy()
            candidate[a] = new_share * total
            candidate[b] = (1.0 - new_share) * total
            alt = SCR(candidate)
            if abs(_value(menu, prior, spec, alt) - base_value) <= 1e-10:
                return alt

    # route 2: affinely dependent revealed posteriors admit a weight
    # perturbation that keeps the barycenter and every posterior fixed
    post = np.stack([rp.posteriors[a].weights for a in included])
    hom = np.vstack([post.T, np.ones(len(included))])
    _, svals, vt = np.linalg.svd(hom)
    null_dim = len(included) - int(np.sum(svals > max(svals[0], 1.0) * 1e-10))
    if null_dim > 0:
        nu = vt[-1]
        marg = rp.marginals[included]
        with np.errstate(divide="ignore"):
            caps = np.where(np.abs(nu) > 0, marg / np.abs(nu), np.inf)
        eps = 0.5 * caps.min()
        for sign in (1.0, -1.0):
            factors = (marg + sign * eps * nu) / marg
            candidate = scr.probs.copy()
            for k, a in enumerate(included):
                candidate[a] = factors[k] * scr.probs[a]
            alt = SCR(candidate)
            if np.abs(alt.probs - scr.probs).max() <= 1e-12:
                continue
            if abs(_value(menu, prior, spec, alt) - base_value) <= 1e-10:
                return alt
    return None


def rationalize(scr: SCR, prior: Prior, spec: CostSpec,
                actions: tuple[str, ...] | None = None) -> Menu:
    """Build a utility for which the rule certifies as optimal.

    Supported actions take the cost's belief gradient at their revealed
    posterior. Unsupported actions take a flat payoff low enough that no
    belief earns them positive net value over the supporting plane, so the
    certificate's entry test passes by construction.
    """
    _require_rule(scr, prior, spec)
    s, mu0 = scr.probs, prior.weights
    div, weight = rule_derivative(spec, s, mu0)
    p, grads = revealed_gradients(s, mu0, div, weight)
    supported = p > SUPPORT_THRESHOLD
    unbounded = np.flatnonzero(supported & ~np.isfinite(grads).all(axis=1))
    if unbounded.size:
        raise InvalidInputError(
            "not rationalizable under this cost: supported action "
            f"{unbounded[0]} puts zero probability on a positive-prior state, "
            "and the cost's slope toward no information is unbounded there"
        )
    if not supported.all():
        # with u_a = g_a on the supported rows the certificate's multiplier
        # is 0, so a flat payoff v earns the entry margin
        # v + conjugate_max(0) = v - weight * min c
        grads[~supported] = weight * div.minimum()
    labels = actions if actions is not None else tuple(str(a) for a in range(scr.n_actions))
    return Menu(labels, grads)
