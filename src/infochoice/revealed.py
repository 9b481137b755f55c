"""Revealed information policies, indirect cost, and the informativeness order.

An SCR, read as a signal whose realizations are action recommendations,
reveals a marginal over actions and a Bayes posterior per recommended
action. The cheapest information that can induce the SCR is exactly this
revealed policy, so the indirect cost of a rule is the cost of its
revealed policy.

Informativeness between simple policies is decided by a feasibility LP:
p dominates q when q's beliefs can each be split, mean-preservingly,
across p's beliefs with the splits mixing back to p. That LP and the
lattice oracle's (``solver.grid_oracle``) are small and dense, so both are
solved by ``simplex``, a tableau simplex method in this module, not by an
external LP solver.
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


#: a reduced cost counts as negative below minus this fraction of max |c|,
#: and the ratio test treats as ties the ratios within this fraction of
#: max |b| of the smallest
_RTOL = 1e-12
#: the recomputed x may miss ``a x = b`` and ``x >= 0`` by this fraction of
#: max |b|
_PRIMAL_RTOL = 1e-10
#: tableau entries at or below this are not used as pivots; the callers'
#: constraint matrices hold probabilities, so the scale is fixed
_PIVOT_TOL = 1e-9
#: pivots allowed per row plus column of the constraint matrix
_PIVOTS_PER_DIM = 10


def simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray,
            basis: np.ndarray | list[int], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Minimize c . x subject to a x = b, x >= 0; returns x and the duals y.

    A dense tableau simplex for the package's small LPs, started from the
    feasible basis ``basis`` (one column index per row of ``a``). The
    entering column has the most negative reduced cost (Dantzig). Harris's
    ratio test lets every row whose ratio is within 1e-12 of max |b| of
    the smallest leave and takes the largest pivot among them: the LPs
    here are highly degenerate, and choosing the leaving row by lowest
    index instead (Bland's rule) led to pivots on tiny entries and a
    singular basis. A fixed pivot bound ends any cycle.

    When the tableau shows no negative reduced cost, x and y are computed
    afresh from the basis columns of ``a``. They are returned when they
    certify optimality: ``a x = b`` and ``x >= 0`` within 1e-10 of max |b|,
    and reduced costs ``c - a^T y`` no lower than -1e-12 of max |c|. A
    reduced cost that the tableau's rounding hid is pivoted on from the
    refreshed tableau. A failed certificate, a singular basis, a column
    without a pivot, or more than ``10 (rows + columns)`` pivots raises
    ``RuntimeError("<what> LP failed: ...")``.
    """
    m, n = a.shape
    basis = np.array(basis, dtype=np.intp)
    dual_tol = _RTOL * np.abs(c).max()
    zero_tol = _RTOL * np.abs(b).max()
    primal_tol = _PRIMAL_RTOL * np.abs(b).max()
    max_pivots = _PIVOTS_PER_DIM * (m + n)
    pivots = 0
    while True:
        # the duals and reduced costs of the basis, computed afresh
        basic = a[:, basis]
        try:
            y = np.linalg.solve(basic.T, c[basis])
            reduced = c - y @ a
            if reduced.min() >= -dual_tol:
                x = np.zeros(n)
                x[basis] = np.linalg.solve(basic, b)
                residual = np.abs(a @ x - b).max()
                if residual <= primal_tol and x.min() >= -primal_tol:
                    return x, y
                raise RuntimeError(
                    f"{what} LP failed: certificate missed, primal residual "
                    f"{residual:.3e}, min x {x.min():.3e}")
            tab = np.linalg.solve(basic, np.column_stack([a, b]))
        except np.linalg.LinAlgError:
            raise RuntimeError(f"{what} LP failed: singular basis") from None
        while (reduced < -dual_tol).any():
            if pivots == max_pivots:
                raise RuntimeError(f"{what} LP failed: no optimum in "
                                   f"{max_pivots} pivots")
            j = reduced.argmin()
            col = tab[:, j].copy()
            rows = np.flatnonzero(col > _PIVOT_TOL)
            if rows.size == 0:
                raise RuntimeError(f"{what} LP failed: no pivot in column {j}")
            rhs, entries = tab[rows, -1], col[rows]
            bound = ((rhs + zero_tol) / entries).min()
            ties = rows[rhs / entries <= bound]
            i = ties[col[ties].argmax()]
            row = tab[i] / col[i]
            tab -= np.outer(col, row)
            tab[i] = row
            reduced -= reduced[j] * row[:-1]
            basis[i] = j
            pivots += 1


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
    The LP is solved in elastic form: each equality gets a surplus and a
    deficit variable, their sum is minimized by ``simplex`` from the basis
    of surpluses, and p dominates q when that minimum, the infeasibility,
    is at most 1e-9; degenerate splits sit on the boundary and need that
    slack. Otherwise the certificate is the equality duals y, the rates at
    which the minimum moves with the right-hand sides: y prices no split
    above zero and values the right-hand sides at the infeasibility.
    """
    if not p.prior.same_space(q.prior):
        raise InvalidInputError("policies do not share a prior")
    nq, npp = q.n_beliefs, p.n_beliefs
    mu_p = p.belief_matrix()
    mu_q = q.belief_matrix()

    # W flattened row-major: variable i * npp + j is W[i, j]
    n_var = nq * npp
    a_eq = np.vstack([
        np.kron(np.eye(nq), np.ones((1, npp))),
        np.kron(np.ones((1, nq)), np.eye(npp)),
        np.kron(np.eye(nq), mu_p.T),
    ])
    b_eq = np.concatenate([q.weights, p.weights, (q.weights[:, None] * mu_q).ravel()])

    # elastic phase: minimize total constraint violation, so infeasibility
    # comes with a magnitude and dual prices instead of a bare failure flag;
    # b_eq >= 0, so the +I slacks are a feasible starting basis
    n_eq = a_eq.shape[0]
    a_full = np.hstack([a_eq, np.eye(n_eq), -np.eye(n_eq)])
    c = np.concatenate([np.zeros(n_var), np.ones(2 * n_eq)])
    x, duals = simplex(c, a_full, b_eq, np.arange(n_var, n_var + n_eq),
                       "informativeness")
    slack = float(c @ x)
    if slack <= _BLACKWELL_FEAS_TOL:
        witness = x[:n_var].reshape(nq, npp)
        witness.setflags(write=False)
        return BlackwellResult(True, witness, slack, None)
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
