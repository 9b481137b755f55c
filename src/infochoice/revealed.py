"""Revealed information policies, indirect cost, and the informativeness order.

An SCR, read as a signal whose realizations are action recommendations,
reveals a marginal over actions and a Bayes posterior per recommended
action. The cheapest information that can induce the SCR is exactly this
revealed policy, so the indirect cost of a rule is the cost of its
revealed policy.

Informativeness between simple policies is decided by a feasibility LP:
p dominates q when q's beliefs can each be split, mean-preservingly,
across p's beliefs with the splits mixing back to p. It is solved in
phase-one form, minimizing the total shortfall from the split equations,
so a failure comes with a size (twice the mass of q that cannot be split)
and a Farkas certificate (the equations' dual prices). That LP and the
lattice oracle's (``solver.grid_oracle``) are small and dense, so both are
solved by ``simplex``, a tableau simplex method in this module, not by an
external LP solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, policy_cost
from .model import (
    SUPPORT_THRESHOLD,
    Belief,
    InvalidInputError,
    Prior,
    SCR,
    SimpleInfoPolicy,
    belief_rows,
    require_valid,
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
    feasible basis ``basis`` (one column index per row of ``a``) whose
    columns ``a[:, basis]`` are the identity, so the first tableau is
    ``[a | b]`` and the first duals are ``c[basis]``; any other start
    raises ``ValueError``. The reduced costs are the tableau's last row,
    so each pivot's rank-one update moves them too. The entering column
    has the most negative reduced cost (Dantzig). Harris's ratio test lets
    every row whose ratio is within 1e-12 of max |b| of the smallest leave
    and takes the largest pivot among them, the first on ties: the LPs
    here are highly degenerate, and choosing the leaving row by lowest
    index instead (Bland's rule) led to pivots on tiny entries and a
    singular basis. A fixed pivot bound ends any cycle.

    When the tableau shows no negative reduced cost, x and y are computed
    afresh from one inverse of the basis columns of ``a`` (which also
    refreshes the tableau when pivots must go on). They are returned when
    they certify optimality: ``a x = b`` and ``x >= 0`` within 1e-10 of
    max |b|, and reduced costs ``c - a^T y`` no lower than -1e-12 of
    max |c|. A reduced cost that the tableau's rounding hid is pivoted on
    from the refreshed tableau. A cost or right-hand side that is not
    finite, a failed certificate, a singular basis, a column without a
    pivot, or more than ``10 (rows + columns)`` pivots raises
    ``RuntimeError("<what> LP failed: ...")``.
    """
    m, n = a.shape
    basis = np.array(basis, dtype=np.intp)
    if not np.array_equal(a[:, basis], np.eye(m)):
        raise ValueError(f"{what} LP: the starting basis columns are not the identity")
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise RuntimeError(f"{what} LP failed: a cost or right-hand side is not finite")
    b_scale = np.abs(b).max()
    dual_tol = _RTOL * np.abs(c).max()
    zero_tol = float(_RTOL * b_scale)
    primal_tol = _PRIMAL_RTOL * b_scale
    max_pivots = _PIVOTS_PER_DIM * (m + n)
    pivots = 0
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = a
    tab[:m, n] = b
    tab[m, :n] = c - c[basis] @ a
    reduced, rhs = tab[m, :n], tab[:m, n]
    while True:
        while True:
            j = reduced.argmin()
            if not reduced[j] < -dual_tol:
                break
            if pivots == max_pivots:
                raise RuntimeError(f"{what} LP failed: no optimum in "
                                   f"{max_pivots} pivots")
            col = tab[:, j]
            # the ratio test over the rows with a pivot, on Python floats:
            # a column of a few dozen rows costs less as a loop than as
            # numpy temporaries; the largest entry among the rows whose
            # ratio is within the bound leaves, the first on ties
            entries, values = col[:m].tolist(), rhs.tolist()
            rows = [k for k, e in enumerate(entries) if e > _PIVOT_TOL]
            if not rows:
                raise RuntimeError(f"{what} LP failed: no pivot in column {j}")
            bound = min([(values[k] + zero_tol) / entries[k] for k in rows])
            i, largest = rows[0], 0.0
            for k in rows:
                if entries[k] > largest and values[k] / entries[k] <= bound:
                    i, largest = k, entries[k]
            row = tab[i] / col[i]
            tab -= col[:, None] * row
            tab[i] = row
            basis[i] = j
            pivots += 1
        # the duals and reduced costs of the basis, computed afresh from
        # one factorization of the basis columns, its inverse
        try:
            inverse = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError:
            raise RuntimeError(f"{what} LP failed: singular basis") from None
        y = c[basis] @ inverse
        reduced[:] = c - y @ a
        if reduced.min() >= -dual_tol:
            x = np.zeros(n)
            x[basis] = inverse @ b
            residual = np.abs(a @ x - b).max()
            if residual <= primal_tol and x.min() >= -primal_tol:
                return x, y
            raise RuntimeError(
                f"{what} LP failed: certificate missed, primal residual "
                f"{residual:.3e}, min x {x.min():.3e}")
        tab[:m, :n] = inverse @ a
        tab[:m, n] = inverse @ b


@dataclass(frozen=True, slots=True, eq=False)
class RevealedPolicy:
    """The policy a rule reveals: the one record of it that every reader
    takes.

    ``probs`` is the rule as given and ``marginals`` has one entry per row
    of it. ``supported`` marks the actions whose marginal is above
    ``SUPPORT_THRESHOLD``; each has a Bayes posterior, a row of one
    read-only matrix that ``belief_matrix()`` returns, and a weight, its
    marginal renormalized over the supported actions. ``policy()`` builds
    the simple policy of those rows and weights; ``included``,
    ``excluded`` and ``posteriors`` list the same split per action.
    """

    prior: Prior
    probs: np.ndarray
    marginals: np.ndarray
    supported: np.ndarray
    weights: np.ndarray
    _matrix: np.ndarray

    @property
    def included(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.supported).tolist())

    @property
    def excluded(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.supported).tolist())

    @property
    def posteriors(self) -> tuple[Belief | None, ...]:
        """Per action, its posterior, or None for an excluded action."""
        rows = iter(belief_rows(self._matrix))
        return tuple(next(rows) if kept else None for kept in self.supported.tolist())

    def belief_matrix(self) -> np.ndarray:
        """The posteriors of the supported actions, one row each."""
        return self._matrix

    def policy(self) -> SimpleInfoPolicy:
        return SimpleInfoPolicy(self.prior, self._matrix, self.weights)


def revealed_posteriors(s: np.ndarray, prior: Prior) -> RevealedPolicy:
    """The policy rule ``s`` reveals under ``prior``, without ``reveal``'s
    checks, for rules that are checked already or built by the solvers.

    This is the one computation of revealed posteriors: ``reveal``,
    ``kappa``, the certificate, ``rule_value`` and the solvers all read
    them from here.
    """
    mu0 = prior.weights
    p = s @ mu0
    supported = p > SUPPORT_THRESHOLD
    # an index array selects rows faster than the mask on these few rows
    included = supported.nonzero()[0]
    marginals = p[included]
    post = s[included] * mu0 / marginals[:, None]
    post /= post.sum(axis=1, keepdims=True)
    weights = marginals / marginals.sum()
    for arr in (p, supported, weights, post):
        arr.setflags(write=False)
    return RevealedPolicy(prior, s, p, supported, weights, post)


def reveal(scr: SCR, prior: Prior) -> RevealedPolicy:
    """Bayes-invert an SCR into its revealed information policy, after
    ``require_valid`` on the prior and the rule: a zero-weight state, a
    rule of the wrong state count and a column sum off one are refused."""
    require_valid(prior, scr=scr)
    return revealed_posteriors(scr.probs, prior)


def kappa(spec: CostSpec, scr: SCR, prior: Prior) -> float:
    """Indirect cost of an SCR: the cost of the policy it reveals.

    After ``require_valid`` on the prior, the rule and the cost, it prices
    the revealed posteriors and weights with ``policy_cost``, exactly what
    ``inverse.rule_value`` subtracts. The column sums make the rule Bayes
    plausible; the actions under the support cutoff, which the policy
    leaves out, carry at most ``SUPPORT_THRESHOLD`` of mass each.
    """
    require_valid(prior, scr=scr, spec=spec)
    rp = revealed_posteriors(scr.probs, prior)
    return policy_cost(spec, rp.belief_matrix(), rp.weights)


@dataclass(frozen=True, slots=True, eq=False)
class BlackwellResult:
    holds: bool
    #: joint weighting over (q belief, p belief) pairs when feasible
    witness: np.ndarray | None
    #: total shortfall of the best partial split, 2 (1 - sum W): twice the
    #: mass of q that cannot be split into p's beliefs within p's weights
    infeasibility: float
    #: when infeasible, the duals of the column-sum and mean-preservation
    #: rows: a Farkas vector that separates q from p's garblings
    certificate: np.ndarray | None


def blackwell_geq(p: SimpleInfoPolicy, q: SimpleInfoPolicy) -> BlackwellResult:
    """Decide whether p is at least as informative as q (p a mean-preserving
    spread of q) by linear-programming feasibility.

    Variables W[i, j] >= 0 split q's belief i across p's beliefs j subject to
      column sums = p weights,
      sum_j W[i, j] mu_j = q_i nu_i   per state (mean preservation).
    q's row sums need no rows of their own: summed over the states, q's
    mean-preservation rows say that row i of W sums to q_i, because
    beliefs sum to one. The LP is solved in phase-one form: each equality
    gets a shortfall r >= 0, ``A W + r = b``, and ``simplex`` minimizes the
    total shortfall from the basis of shortfalls. The column sums add up to
    sum W against p's total weight 1, and so do the mean-preservation rows
    against q's, so that minimum, the infeasibility, is 2 (1 - sum W) for
    the largest partial split W: twice the mass of q that cannot be split
    into p's beliefs within p's weights. p dominates q when it is at most
    1e-9; degenerate splits sit on the boundary and need that slack.
    Otherwise the certificate is the equality duals y, one per column-sum
    row and then one per (q belief, state): y prices no split above zero
    (A^T y <= 0), no entry exceeds 1 (the shortfalls' price), and b . y is
    the infeasibility, so y separates q from every garbling of p.
    """
    if p.prior != q.prior:
        raise InvalidInputError("policies do not share a prior")
    nq, npp, ns = q.n_beliefs, p.n_beliefs, p.prior.n_states
    mu_p, mu_q = p.belief_matrix(), q.belief_matrix()

    # W flattened row-major: variable i * npp + j is W[i, j]. Rows: npp
    # column sums, then nq x ns mean-preservation rows; each block is
    # filled through a view of the matrix split by q belief
    n_var = nq * npp
    n_eq = npp + nq * ns
    a_full = np.zeros((n_eq, n_var + n_eq))
    a_full[:npp, :n_var].reshape(npp, nq, npp)[...] = np.eye(npp)[:, None, :]
    each_q = np.arange(nq)
    a_full[npp:, :n_var].reshape(nq, ns, nq, npp)[each_q, :, each_q] = mu_p.T
    # b >= 0, so the +I shortfall columns are a feasible starting basis
    a_full.ravel()[n_var::n_var + n_eq + 1] = 1.0
    b_eq = np.concatenate([p.weights, (q.weights[:, None] * mu_q).ravel()])
    c = np.zeros(n_var + n_eq)
    c[n_var:] = 1.0
    x, duals = simplex(c, a_full, b_eq, np.arange(n_var, n_var + n_eq),
                       "informativeness")
    shortfall = float(b_eq @ duals)
    if shortfall <= _BLACKWELL_FEAS_TOL:
        # a copy, so the result does not keep the whole LP solution alive
        witness = x[:n_var].reshape(nq, npp).copy()
        witness.setflags(write=False)
        return BlackwellResult(True, witness, shortfall, None)
    duals.setflags(write=False)
    return BlackwellResult(False, None, shortfall, duals)


def mix_policies(p: SimpleInfoPolicy, q: SimpleInfoPolicy, beta: float) -> SimpleInfoPolicy:
    """Weight-beta mixture of two policies over a shared prior.

    The belief matrices are concatenated, p's rows first, with weights
    scaled by beta and 1 - beta (a policy with weight zero is left out).
    A row equal coordinatewise within 1e-12 to an earlier row that was
    kept is merged into the first such row, its weight added in order, to
    keep supports from blowing up under repeated mixing. Kept rows are the
    inputs' rows bit for bit.
    """
    if p.prior != q.prior:
        raise InvalidInputError("policies do not share a prior")
    if not 0.0 <= beta <= 1.0:
        raise InvalidInputError("beta must lie in [0, 1]")
    parts = [(pol, scale) for pol, scale in ((p, beta), (q, 1.0 - beta))
             if scale != 0.0]
    rows = np.concatenate([pol.belief_matrix() for pol, _ in parts])
    weights = np.concatenate([scale * pol.weights for pol, scale in parts])
    close = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2) <= _MERGE_TOL
    if np.count_nonzero(close) > len(rows):
        # some row has a match besides itself: each row joins the first
        # kept row it matches, or is kept
        kept: list[int] = []
        into = []
        for i, matches in enumerate(close.tolist()):
            k = next((k for k, r in enumerate(kept) if matches[r]), len(kept))
            if k == len(kept):
                kept.append(i)
            into.append(k)
        merged = np.zeros(len(kept))
        np.add.at(merged, into, weights)
        rows, weights = rows[kept], merged
    return SimpleInfoPolicy(p.prior, rows, weights)
