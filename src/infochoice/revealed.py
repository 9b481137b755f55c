"""Revealed information policies, indirect cost, and the informativeness order.

An SCR, read as a signal whose realizations are action recommendations,
reveals a marginal over actions and a Bayes posterior per recommended
action. The cheapest information that can induce the SCR is exactly this
revealed policy, so the indirect cost of a rule is the cost of its
revealed policy.

Informativeness between simple policies is decided by a feasibility LP:
p dominates q when q's beliefs can each be split, mean-preservingly,
across p's beliefs with the splits mixing back to p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, cost_eval
from .model import (
    SUPPORT_THRESHOLD,
    Belief,
    InvalidInputError,
    Prior,
    SCR,
    SimpleInfoPolicy,
)

_BLACKWELL_FEAS_TOL = 1e-9
_MERGE_TOL = 1e-12


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing ``scipy.optimize`` takes about 0.6 s, most of a short CLI
    process; commands that solve no LP (``reveal``, ``kappa``, ``certify``,
    ``invert``, ``unique``, an MI ``solve``) should not pay it.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class RevealedPolicy:
    """Marginal and posterior per supported action, plus the excluded list.

    ``marginals`` has one entry per action of the originating rule; excluded
    actions keep their (sub-threshold) marginal but carry no posterior.
    """

    prior: Prior
    marginals: np.ndarray
    posteriors: tuple[Belief | None, ...]
    included: tuple[int, ...]
    excluded: tuple[int, ...]

    def policy(self) -> SimpleInfoPolicy:
        beliefs = [self.posteriors[a] for a in self.included]
        weights = self.marginals[list(self.included)]
        return SimpleInfoPolicy(self.prior, beliefs, weights / weights.sum())


def reveal(scr: SCR, prior: Prior) -> RevealedPolicy:
    """Bayes-invert an SCR into its revealed information policy."""
    if scr.n_states != prior.n_states:
        raise InvalidInputError("scr/prior dimension mismatch")
    marginals = scr.probs @ prior.weights
    included, excluded, posteriors = [], [], []
    for a in range(scr.n_actions):
        if marginals[a] > SUPPORT_THRESHOLD:
            included.append(a)
            post = scr.probs[a] * prior.weights
            posteriors.append(Belief(post / post.sum()))
        else:
            excluded.append(a)
            posteriors.append(None)
    if not included:
        raise InvalidInputError("scr has no supported action")
    marginals = marginals.copy()
    marginals.setflags(write=False)
    return RevealedPolicy(
        prior, marginals, tuple(posteriors), tuple(included), tuple(excluded)
    )


def kappa(spec: CostSpec, scr: SCR, prior: Prior) -> float:
    """Indirect cost of an SCR: the cost of its revealed policy."""
    return cost_eval(spec, reveal(scr, prior).policy())


@dataclass(frozen=True)
class BlackwellResult:
    holds: bool
    #: joint weighting over (q belief, p belief) pairs when feasible
    witness: np.ndarray | None
    #: total residual infeasibility of the best elastic split, with the
    #: equality constraints' dual prices as a separating certificate
    infeasibility: float
    certificate: np.ndarray | None


def blackwell_geq(p: SimpleInfoPolicy, q: SimpleInfoPolicy) -> BlackwellResult:
    """Decide whether p is at least as informative as q (p a mean-preserving
    spread of q) by linear-programming feasibility.

    Variables W[i, j] >= 0 split q's belief i across p's beliefs j subject to
      row sums    = q weights,
      column sums = p weights,
      sum_j W[i, j] mu_j = q_i nu_i   per state (mean preservation).
    Equalities carry a 1e-9 feasibility tolerance; degenerate splits sit on
    the boundary and need that slack.
    """
    if not p.prior.same_space(q.prior):
        raise InvalidInputError("policies do not share a prior")
    nq, npp, ns = q.n_beliefs, p.n_beliefs, p.prior.n_states
    mu_p = p.belief_matrix()
    mu_q = q.belief_matrix()

    n_var = nq * npp
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def var(i: int, j: int) -> int:
        return i * npp + j

    for i in range(nq):
        row = np.zeros(n_var)
        row[[var(i, j) for j in range(npp)]] = 1.0
        rows.append(row)
        rhs.append(float(q.weights[i]))
    for j in range(npp):
        row = np.zeros(n_var)
        row[[var(i, j) for i in range(nq)]] = 1.0
        rows.append(row)
        rhs.append(float(p.weights[j]))
    for i in range(nq):
        for w in range(ns):
            row = np.zeros(n_var)
            for j in range(npp):
                row[var(i, j)] = mu_p[j, w]
            rows.append(row)
            rhs.append(float(q.weights[i] * mu_q[i, w]))

    a_eq = np.vstack(rows)
    b_eq = np.asarray(rhs)

    # elastic phase: minimize total constraint violation, so infeasibility
    # comes with a magnitude and dual prices instead of a bare failure flag
    n_eq = a_eq.shape[0]
    a_full = np.hstack([a_eq, np.eye(n_eq), -np.eye(n_eq)])
    c = np.concatenate([np.zeros(n_var), np.ones(2 * n_eq)])
    res = linprog(
        c,
        A_eq=a_full,
        b_eq=b_eq,
        bounds=[(0, None)] * (n_var + 2 * n_eq),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise RuntimeError(f"informativeness LP failed: {res.message}")
    slack = float(res.fun)
    if slack <= _BLACKWELL_FEAS_TOL:
        witness = res.x[:n_var].reshape(nq, npp)
        witness.setflags(write=False)
        return BlackwellResult(True, witness, slack, None)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    duals.setflags(write=False)
    return BlackwellResult(False, None, slack, duals)


def mix_policies(p: SimpleInfoPolicy, q: SimpleInfoPolicy, beta: float) -> SimpleInfoPolicy:
    """Weight-beta mixture of two policies over a shared prior.

    Belief lists are concatenated with scaled weights; beliefs equal
    coordinatewise within 1e-12 are merged to keep supports from blowing up
    under repeated mixing.
    """
    if not p.prior.same_space(q.prior):
        raise InvalidInputError("policies do not share a prior")
    if not 0.0 <= beta <= 1.0:
        raise InvalidInputError("beta must lie in [0, 1]")
    raw: list[tuple[np.ndarray, float]] = []
    for pol, scale in ((p, beta), (q, 1.0 - beta)):
        if scale == 0.0:
            continue
        for b, w in zip(pol.beliefs, pol.weights):
            raw.append((b.weights, scale * float(w)))
    merged: list[tuple[np.ndarray, float]] = []
    for bw, w in raw:
        for k, (mb, mw) in enumerate(merged):
            if np.abs(bw - mb).max() <= _MERGE_TOL:
                merged[k] = (mb, mw + w)
                break
        else:
            merged.append((bw, w))
    beliefs = [Belief(b) for b, _ in merged]
    weights = np.array([w for _, w in merged])
    return SimpleInfoPolicy(p.prior, beliefs, weights)


def revealed_of_mixture(s: SCR, t: SCR, prior: Prior, beta: float) -> tuple[SCR, RevealedPolicy]:
    """Convenience: the SCR beta*s + (1-beta)*t and its revealed policy."""
    mixed = SCR(beta * s.probs + (1.0 - beta) * t.probs)
    return mixed, reveal(mixed, prior)
