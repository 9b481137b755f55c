"""Core domain types for finite-state costly information acquisition.

States and actions are ordered label lists; every probability object is a
numpy vector or matrix aligned with those orders. All types are immutable
after construction (arrays are made read-only), so instances can be shared
freely across threads and all operations in this package are pure.

Numerical conventions:

- probabilities may undershoot zero by at most ``NEG_PROB_TOLERANCE`` and
  are clamped into [0, 1] on construction,
- ``reveal``, ``certify`` and the solvers count an action as supported when
  its marginal exceeds ``SUPPORT_THRESHOLD``; ``SCR.support`` instead tests
  its largest conditional probability against the same cutoff,
- distributions that sum to one within their documented tolerance are
  renormalized exactly, so downstream entropy-style evaluations never see
  sums like 1 + 1e-13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: Cutoff on the marginal sum_w s_a(w) mu0(w) (``reveal``, ``certify``, the
#: solvers) or on max_w s_a(w) (``SCR.support``) above which a counts as supported.
SUPPORT_THRESHOLD = 1e-9

#: Probabilities may undershoot zero by at most this before construction fails.
NEG_PROB_TOLERANCE = 1e-12

_PRIOR_SUM_TOL = 1e-12
_BELIEF_SUM_TOL = 1e-12
_SCR_COLUMN_SUM_TOL = 1e-10
_POLICY_WEIGHT_SUM_TOL = 1e-10
_BARYCENTER_TOL = 1e-9


class InvalidInputError(ValueError):
    """An input violates a documented precondition or invariant."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _clean_probs(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidInputError(f"{name}: empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name}: non-finite entries")
    if arr.min() < -NEG_PROB_TOLERANCE:
        raise InvalidInputError(
            f"{name}: negative entry {arr.min():.3e} below -{NEG_PROB_TOLERANCE:.0e}"
        )
    return np.clip(arr, 0.0, 1.0)


def _labels(values: Iterable, name: str) -> tuple[str, ...]:
    labels = tuple(str(v) for v in values)
    if not labels:
        raise InvalidInputError(f"{name}: empty label list")
    if len(set(labels)) != len(labels):
        raise InvalidInputError(f"{name}: duplicate labels")
    return labels


@dataclass(frozen=True)
class Prior:
    """Distribution of the payoff state over a finite ordered state list.

    Weights must sum to one within 1e-12 (then renormalized exactly). Zero
    weights are representable so that :func:`validate` can report them, but
    every operation that needs a full-support prior checks for them.
    """

    states: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, states: Iterable, weights: Sequence[float]):
        object.__setattr__(self, "states", _labels(states, "states"))
        w = _clean_probs(weights, "prior weights")
        if w.ndim != 1 or len(w) != len(self.states):
            raise InvalidInputError("prior weights: shape does not match states")
        total = w.sum()
        if abs(total - 1.0) > _PRIOR_SUM_TOL:
            raise InvalidInputError(f"prior weights: sum {total!r} != 1")
        object.__setattr__(self, "weights", _freeze(w / total))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def full_support(self) -> bool:
        return bool(self.weights.min() > 0.0)

    def require_full_support(self) -> None:
        if not self.full_support:
            idx = int(np.argmin(self.weights))
            raise InvalidInputError(
                f"prior not full support: state {self.states[idx]!r} has weight 0"
            )

    def same_space(self, other: "Prior") -> bool:
        return self.states == other.states and np.array_equal(self.weights, other.weights)


@dataclass(frozen=True)
class Belief:
    """Posterior over states, aligned with a prior's state order."""

    weights: np.ndarray

    def __init__(self, weights: Sequence[float]):
        w = _clean_probs(weights, "belief weights")
        if w.ndim != 1:
            raise InvalidInputError("belief weights: expected a vector")
        total = w.sum()
        if abs(total - 1.0) > _BELIEF_SUM_TOL:
            raise InvalidInputError(f"belief weights: sum {total!r} != 1")
        object.__setattr__(self, "weights", _freeze(w / total))

    @property
    def n_states(self) -> int:
        return len(self.weights)

    def is_fully_mixed(self) -> bool:
        return bool(self.weights.min() > 0.0)

    @staticmethod
    def degenerate(n_states: int, state_index: int) -> "Belief":
        w = np.zeros(n_states)
        w[state_index] = 1.0
        return Belief(w)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SCR:
    """Stochastic choice rule: matrix of conditional probabilities s_a(w).

    Rows are actions, columns are states. Entries are clamped into [0, 1]
    after the -1e-12 undershoot check. Column sums are *not* enforced here;
    :func:`validate` reports them so that malformed rules remain
    representable for diagnostics.
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

    def support(self) -> tuple[int, ...]:
        """Indices of actions whose largest conditional probability clears the cutoff."""
        return tuple(
            int(a) for a in range(self.n_actions)
            if self.probs[a].max() > SUPPORT_THRESHOLD
        )

    def has_full_support(self) -> bool:
        return len(self.support()) == self.n_actions

    def has_conditionally_full_support(self) -> bool:
        """True when every action clears the support cutoff and is taken
        with positive probability in every state."""
        return self.has_full_support() and bool(self.probs.min() > 0.0)


@dataclass(frozen=True)
class SimpleInfoPolicy:
    """Finitely many posteriors with weights whose barycenter is the prior."""

    prior: Prior
    beliefs: tuple[Belief, ...]
    weights: np.ndarray

    def __init__(self, prior: Prior, beliefs: Sequence[Belief], weights: Sequence[float]):
        beliefs = tuple(beliefs)
        if not beliefs:
            raise InvalidInputError("policy: needs at least one belief")
        for b in beliefs:
            if b.n_states != prior.n_states:
                raise InvalidInputError("policy: belief dimension does not match prior")
        w = _clean_probs(weights, "policy weights")
        if w.ndim != 1 or len(w) != len(beliefs):
            raise InvalidInputError("policy weights: one weight per belief required")
        total = w.sum()
        if abs(total - 1.0) > _POLICY_WEIGHT_SUM_TOL:
            raise InvalidInputError(f"policy weights: sum {total!r} != 1")
        w = w / total
        bary = w @ np.stack([b.weights for b in beliefs])
        gap = np.abs(bary - prior.weights).max()
        if gap > _BARYCENTER_TOL:
            raise InvalidInputError(
                f"policy: barycenter misses the prior by {gap:.3e} (> {_BARYCENTER_TOL:.0e})"
            )
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_beliefs(self) -> int:
        return len(self.beliefs)

    def belief_matrix(self) -> np.ndarray:
        """Beliefs stacked as a (n_beliefs x n_states) matrix."""
        return np.stack([b.weights for b in self.beliefs])

    def is_fully_mixed(self) -> bool:
        return all(b.is_fully_mixed() for b in self.beliefs)

    @staticmethod
    def uninformative(prior: Prior) -> "SimpleInfoPolicy":
        return SimpleInfoPolicy(prior, [Belief(prior.weights)], [1.0])


@dataclass(frozen=True)
class ValidationReport:
    """List of violated invariants; empty means the triple is valid."""

    problems: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(prior: Prior, menu: Menu, scr: SCR | None = None) -> ValidationReport:
    """Check the invariants that the lenient constructors defer.

    Reports, per violation, the offending coordinates. Well-formed inputs
    produce an empty report.
    """
    problems: list[str] = []
    if not prior.full_support:
        zero = [prior.states[i] for i in np.flatnonzero(prior.weights == 0.0)]
        problems.append(f"prior not full support (zero weight on {', '.join(zero)})")
    if menu.n_states != prior.n_states:
        problems.append(
            f"menu has {menu.n_states} state columns, prior has {prior.n_states} states"
        )
    if scr is not None:
        if scr.probs.shape != (menu.n_actions, prior.n_states):
            problems.append(
                f"scr shape {scr.probs.shape} does not match "
                f"{menu.n_actions} actions x {prior.n_states} states"
            )
        else:
            sums = scr.probs.sum(axis=0)
            for j in np.flatnonzero(np.abs(sums - 1.0) > _SCR_COLUMN_SUM_TOL):
                problems.append(
                    f"state {prior.states[j]}: action sum {sums[j]!r} != 1"
                )
    return ValidationReport(tuple(problems))


def require_valid(prior: Prior, menu: Menu, scr: SCR | None = None) -> None:
    report = validate(prior, menu, scr)
    if not report.ok:
        raise InvalidInputError("; ".join(report.problems))


def submenu(menu: Menu, subset: Iterable) -> Menu:
    """Restrict a menu to a subset of its actions, preserving original order."""
    labels = [str(a) for a in subset]
    if not labels:
        raise InvalidInputError("empty submenu")
    indices = sorted(menu.action_index(a) for a in set(labels))
    return Menu([menu.actions[i] for i in indices], menu.utilities[indices])
