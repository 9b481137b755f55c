"""Core domain types for finite-state costly information acquisition.

States and actions are ordered label lists; every probability object is a
numpy vector or matrix aligned with those orders. All types are immutable
after construction (arrays are made read-only), so instances can be shared
freely across threads and all operations in this package are pure.

Numerical conventions:

- probabilities may undershoot zero or overshoot one by at most
  ``NEG_PROB_TOLERANCE`` and are clamped into [0, 1] on construction; an
  entry further outside [0, 1] is refused, naming the object,
- an action is supported when its marginal sum_w s_a(w) mu0(w) exceeds
  ``SUPPORT_THRESHOLD``, the one support rule of ``reveal``, ``certify``,
  ``recover_utility``, the rank test and the solvers; a rule has
  conditionally full support when every entry is positive and ``reveal``
  excludes no action,
- a prior, a belief, a row of a policy's belief matrix and a policy's
  weights must sum to one within their documented tolerance; one that
  misses by more than its rounding (its length in ulps) is divided by its
  sum, so downstream entropy-style evaluations never see sums like
  1 + 1e-13, and any other is kept bit for bit, so normalizing twice
  changes nothing,
- the constructors check each object alone; ``validate`` is the one check
  of a problem's inputs together, and every entry point runs it once,
  through ``require_valid``, on the arguments it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Cutoff on the marginal sum_w s_a(w) mu0(w) above which action a counts
#: as supported.
SUPPORT_THRESHOLD = 1e-9

#: Largest duality gap of an optimal rule: ``certify``'s bound, every solver's default.
OPTIMAL_TOL = 1e-8

#: Probabilities may undershoot zero by at most this before construction fails.
NEG_PROB_TOLERANCE = 1e-12

_PRIOR_SUM_TOL = 1e-12
_BELIEF_SUM_TOL = 1e-12
_SCR_COLUMN_SUM_TOL = 1e-10
_POLICY_WEIGHT_SUM_TOL = 1e-10
_BARYCENTER_TOL = 1e-9
#: float64 machine epsilon
_EPS = 2.0 ** -52


class InvalidInputError(ValueError):
    """An input violates a documented precondition or invariant."""


class SolverError(RuntimeError):
    """A solver or LP ended without a certified answer on a valid input;
    carries the last residual seen, None for an LP."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message if residual is None
                         else f"{message} (last residual {residual:.3e})")
        self.residual = residual


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _clean_probs(values, name: str) -> np.ndarray:
    """A float copy of ``values`` with its entries clamped into [0, 1],
    after the empty and non-finite checks and the checks that no entry
    misses [0, 1] by more than ``NEG_PROB_TOLERANCE``."""
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise InvalidInputError(f"{name}: empty")
    lo, hi = float(arr.min()), float(arr.max())
    # false on nan and on an infinity of either sign
    if not (lo >= -NEG_PROB_TOLERANCE and hi <= 1.0 + NEG_PROB_TOLERANCE):
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"{name}: non-finite entries")
        miss = (f"negative entry {lo:.3e} below -" if lo < -NEG_PROB_TOLERANCE
                else f"entry {hi:.3e} above 1 + ")
        raise InvalidInputError(f"{name}: {miss}{NEG_PROB_TOLERANCE:.0e}")
    if lo < 0.0 or hi > 1.0:
        np.clip(arr, 0.0, 1.0, out=arr)
    return arr


def _normalize(arr: np.ndarray, tol: float, name: str) -> None:
    """Divide each row of the contiguous ``arr`` (a vector is one row) in
    place by its sum when the sum misses one by more than the row's
    rounding, its length times machine epsilon; other rows are kept bit for
    bit, so normalizing twice changes nothing. Raises when a sum misses one
    by more than ``tol``."""
    rows = arr.reshape(-1, arr.shape[-1])
    totals = rows.sum(axis=1)
    rounding = rows.shape[1] * _EPS
    # a loop on Python floats: numpy temporaries cost more on a few rows
    for i, total in enumerate(totals.tolist()):
        miss = abs(total - 1.0)
        if miss > tol:
            raise InvalidInputError(f"{name}: sum {total!r} != 1")
        if miss > rounding:
            rows[i] /= total


def _labels(values: Iterable, name: str) -> tuple[str, ...]:
    labels = tuple(str(v) for v in values)
    if not labels:
        raise InvalidInputError(f"{name}: empty label list")
    if len(set(labels)) != len(labels):
        raise InvalidInputError(f"{name}: duplicate labels")
    return labels


@dataclass(frozen=True, slots=True)
class Prior:
    """Distribution of the payoff state over a finite ordered state list.

    Weights must sum to one within 1e-12 and are normalized as the module
    conventions say, so ``Prior(states, prior.weights)`` keeps them. Zero
    weights are representable so that :func:`validate` can report them; every
    entry point and cost constructor refuses them. Priors compare and hash
    by their states and weight bits.
    """

    states: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, states: Iterable, weights: Sequence[float]):
        object.__setattr__(self, "states", _labels(states, "states"))
        w = _clean_probs(weights, "prior weights")
        if w.ndim != 1 or len(w) != len(self.states):
            raise InvalidInputError("prior weights: shape does not match states")
        _normalize(w, _PRIOR_SUM_TOL, "prior weights")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def full_support(self) -> bool:
        return bool(self.weights.min() > 0.0)

    def require_full_support(self) -> None:
        """Raise the message :func:`validate` gives a zero-weight state."""
        if not self.full_support:
            require_valid(self)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Prior) and self.states == other.states
                                 and self.weights.tobytes() == other.weights.tobytes())

    def __hash__(self) -> int:
        return hash((self.states, self.weights.tobytes()))


@dataclass(frozen=True, slots=True, eq=False)
class Belief:
    """Posterior over states in a prior's state order: a belief-matrix row."""

    weights: np.ndarray

    def __init__(self, weights: Sequence[float]):
        w = _clean_probs(weights, "belief weights")
        if w.ndim != 1:
            raise InvalidInputError("belief weights: expected a vector")
        _normalize(w, _BELIEF_SUM_TOL, "belief weights")
        object.__setattr__(self, "weights", _freeze(w))


@dataclass(frozen=True, slots=True, eq=False)
class Menu:
    """Finite action set with a state-dependent utility matrix (action x state)."""

    actions: tuple[str, ...]
    utilities: np.ndarray

    def __init__(self, actions: Iterable, utilities):
        object.__setattr__(self, "actions", _labels(actions, "actions"))
        u = np.asarray(utilities, dtype=float)
        if u.ndim != 2 or u.shape[0] != len(self.actions):
            raise InvalidInputError("utilities: expected one row per action")
        if not np.all(np.isfinite(u)):
            raise InvalidInputError("utilities: non-finite entries")
        object.__setattr__(self, "utilities", _freeze(u))

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_states(self) -> int:
        return self.utilities.shape[1]

    def action_index(self, label: str) -> int:
        try:
            return self.actions.index(str(label))
        except ValueError:
            raise InvalidInputError(f"unknown action label {label!r}") from None


@dataclass(frozen=True, slots=True, eq=False)
class SCR:
    """Stochastic choice rule: matrix of conditional probabilities s_a(w).

    Rows are actions, columns are states. Entries outside [-1e-12,
    1 + 1e-12] are refused and the others clamped into [0, 1]. Column sums
    are *not* enforced here, so that malformed rules remain representable
    for diagnostics: :func:`validate` reports them, and every entry point
    that takes a rule refuses them.
    """

    probs: np.ndarray

    def __init__(self, probs):
        p = _clean_probs(probs, "scr probs")
        if p.ndim != 2:
            raise InvalidInputError("scr probs: expected an action x state matrix")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def n_actions(self) -> int:
        return self.probs.shape[0]

    @property
    def n_states(self) -> int:
        return self.probs.shape[1]


def belief_rows(matrix: np.ndarray) -> tuple[Belief, ...]:
    """The rows of a belief matrix as beliefs, without the constructor's
    checks: for rows that are already nonnegative and normalized to sum to
    one, such as Bayes posteriors. The matrix is frozen, and each belief's
    weights are a view of its row."""
    matrix = _freeze(matrix)
    beliefs = []
    for row in matrix:
        belief = object.__new__(Belief)
        object.__setattr__(belief, "weights", row)
        beliefs.append(belief)
    return tuple(beliefs)


def _belief_matrix(prior: Prior, beliefs: np.ndarray) -> np.ndarray:
    """The checked belief matrix of a policy: its rows checked and
    normalized as ``Belief`` checks and normalizes a vector. A faulty row
    raises the message ``Belief`` gives for it, the first faulty row's."""
    if len(beliefs) == 0:
        raise InvalidInputError("policy: needs at least one belief")
    if np.ndim(beliefs) != 2:
        raise InvalidInputError("policy: expected a belief matrix")
    try:
        matrix = _clean_probs(beliefs, "belief weights")
        _normalize(matrix, _BELIEF_SUM_TOL, "belief weights")
    except InvalidInputError:
        for row in beliefs:
            Belief(row)
        raise
    if matrix.shape[1] != prior.n_states:
        raise InvalidInputError("policy: belief dimension does not match prior")
    return matrix


@dataclass(frozen=True, slots=True, eq=False)
class SimpleInfoPolicy:
    """Finitely many posteriors with weights whose barycenter is the prior.

    ``beliefs`` is an (n_beliefs x n_states) matrix. The policy checks it
    once, over the whole matrix: its rows as ``Belief`` checks a vector,
    the weights (one per belief, summing to one within 1e-10) and the
    barycenter (the prior within 1e-9). Rows and weights are normalized as
    the module conventions say, so a policy rebuilt from its own matrix and
    weights is the same bit for bit. A faulty row raises the
    ``InvalidInputError`` that ``Belief`` raises for it. It keeps the
    matrix read-only, and ``belief_matrix()`` returns it; ``beliefs``
    makes ``Belief`` views of its rows on each access, so a policy holds
    no per-belief objects.
    """

    prior: Prior
    weights: np.ndarray
    _matrix: np.ndarray

    def __init__(self, prior: Prior, beliefs: np.ndarray, weights: Sequence[float]):
        matrix = _freeze(_belief_matrix(prior, beliefs))
        w = _clean_probs(weights, "policy weights")
        if w.ndim != 1 or len(w) != len(matrix):
            raise InvalidInputError("policy weights: one weight per belief required")
        _normalize(w, _POLICY_WEIGHT_SUM_TOL, "policy weights")
        gap = np.abs(w @ matrix - prior.weights).max()
        if gap > _BARYCENTER_TOL:
            raise InvalidInputError(f"policy: barycenter misses the prior by "
                                    f"{gap:.3e} (> {_BARYCENTER_TOL:.0e})")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "_matrix", matrix)

    @property
    def beliefs(self) -> tuple[Belief, ...]:
        """``Belief`` views of the rows of the belief matrix."""
        return belief_rows(self._matrix)

    @property
    def n_beliefs(self) -> int:
        return len(self._matrix)

    def belief_matrix(self) -> np.ndarray:
        """The beliefs as one read-only (n_beliefs x n_states) matrix."""
        return self._matrix

    @staticmethod
    def uninformative(prior: Prior) -> "SimpleInfoPolicy":
        return SimpleInfoPolicy(prior, prior.weights[None, :], [1.0])


def validate(prior: Prior, menu: Menu | None = None, scr: SCR | None = None,
             spec=None) -> tuple[str, ...]:
    """The one check of a problem's inputs: the invariants that the lenient
    constructors defer, and the agreement of the inputs with each other.

    Reports one message per fault, in this order: the prior's support
    (every state needs positive weight), the menu's state count, the rule's
    shape (against the menu's action count when a menu is given, its own
    otherwise) and then its column sums (one within 1e-10), and the prior
    of the cost ``spec`` (any object with a ``prior``), which must be
    ``prior``. Well-formed inputs produce an empty tuple. Every entry
    point runs :func:`require_valid` once, on the arguments it takes, so
    one fault gets one message wherever it is found.
    """
    problems = []
    if not prior.full_support:
        zero = [prior.states[i] for i in np.flatnonzero(prior.weights == 0.0)]
        problems.append(f"prior not full support (zero weight on {', '.join(zero)})")
    if menu is not None and menu.n_states != prior.n_states:
        problems.append(
            f"menu has {menu.n_states} state columns, prior has {prior.n_states} states"
        )
    if scr is not None:
        n_actions = scr.n_actions if menu is None else menu.n_actions
        if scr.probs.shape != (n_actions, prior.n_states):
            problems.append(f"scr shape {scr.probs.shape} does not match "
                            f"{n_actions} actions x {prior.n_states} states")
        else:
            sums = scr.probs.sum(axis=0).tolist()
            problems.extend(f"state {prior.states[j]}: action sum {total!r} != 1"
                            for j, total in enumerate(sums)
                            if abs(total - 1.0) > _SCR_COLUMN_SUM_TOL)
    # no cost can be built on a prior without full support, so against such
    # a prior the cost's prior differs by that one fault, already reported
    if spec is not None and prior.full_support and prior != spec.prior:
        problems.append("prior does not match the cost's prior")
    return tuple(problems)


def require_valid(prior: Prior, menu: Menu | None = None, scr: SCR | None = None,
                  spec=None) -> None:
    """Raise :func:`validate`'s messages, joined, unless there are none."""
    problems = validate(prior, menu, scr, spec)
    if problems:
        raise InvalidInputError("; ".join(problems))


def submenu(menu: Menu, subset: Iterable) -> Menu:
    """Restrict a menu to a subset of its actions, preserving original order."""
    labels = [str(a) for a in subset]
    if not labels:
        raise InvalidInputError("empty submenu")
    indices = sorted(menu.action_index(a) for a in set(labels))
    return Menu([menu.actions[i] for i in indices], menu.utilities[indices])
