"""Information cost functions over simple information policies.

A cost spec is a tagged description of a convex, monotone cost C on
belief distributions. A smooth cost is a ``divergence`` c under a
nondecreasing convex ``psi``, C(p) = psi(sum_i w_i c(mu_i)):
``MutualInformation(prior, scale)`` is KL under ``AffinePsi(scale)``,
``PosteriorSeparable(divergence)`` is c under ``IdentityPsi()``, and
``Transformed(divergence, psi)`` is c under any psi. Two more families
only price policies: ``Quadratic(prior, kernel, declared_psd)``, the
double integral of a symmetric positive-semidefinite kernel, and
``MaxOverSet(divergences)``, the upper envelope of posterior-separable
costs (kinked, so no derivative support).

Every divergence prices one belief with ``value(weights)`` and a whole
belief matrix, one belief per row, with ``values(beliefs)``; likewise
``gradient(weights)`` and ``gradients(beliefs)`` for its belief gradient.
``conjugate_max`` gives each row v_b of a matrix its entry margin max_mu
<v_b, mu> - weight c(mu); for KL and chi-square ``conjugate_argmax`` gives
the maximizer at weight 1 and its derivative, the dual solver's Jacobian.

Where the cost is smooth, ``derivative_basis`` gives its derivative cost
c_p at the policy p, a per-belief price of probability mass, as a
divergence and a weight: c_p(mu) = weight * div.value(mu), and its belief
gradient weight * div.gradient(mu) integrates back to c_p(mu) under mu
itself; under an identity or affine psi it is the same at every policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import InvalidInputError, Prior, SimpleInfoPolicy, require_valid

_CONVEXITY_TRIALS = 1000
_CONVEXITY_TOL = 1e-9


class UnsupportedCostError(InvalidInputError):
    """The cost variant does not support the requested operation."""


class BoundaryGradientError(InvalidInputError):
    """Gradient requested at a belief where it is unbounded."""


# ---------------------------------------------------------------------------
# Divergences


@dataclass(frozen=True)
class KLDivergence:
    """c(mu) = sum_w mu(w) log(mu(w) / mu0(w)), with 0 log 0 = 0.

    Finite everywhere on the simplex when the prior has full support, but
    its gradient blows up at beliefs with a zero coordinate.
    """

    prior: Prior

    def __post_init__(self):
        self.prior.require_full_support()

    def value(self, weights: np.ndarray) -> float:
        return float(self.values(np.asarray(weights, dtype=float)[None])[0])

    def values(self, beliefs: np.ndarray) -> np.ndarray:
        """``value`` of every row of a belief matrix."""
        b = np.asarray(beliefs, dtype=float)
        # a zero coordinate contributes b * log(1) = 0, the 0 log 0 convention
        ratio = np.where(b > 0.0, b / self.prior.weights, 1.0)
        # nonnegative by construction; clamp roundoff
        return np.maximum(np.sum(b * np.log(ratio), axis=1), 0.0)

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        if w.min() <= 0.0:
            raise BoundaryGradientError("gradient unbounded at boundary belief")
        return self.gradients(w[None])[0]

    def gradients(self, beliefs: np.ndarray) -> np.ndarray:
        """``gradient`` of every row of a belief matrix. A zero coordinate,
        or one below float64's normal range whose log has lost its digits,
        gives -inf there instead of an error."""
        b = np.asarray(beliefs, dtype=float)
        # the +1 from d(x log x) cancels against any zero-sum direction
        with np.errstate(divide="ignore"):
            return np.log(np.where(b < np.finfo(float).tiny, 0.0, b) / self.prior.weights)

    def conjugate_max(self, v: np.ndarray, weight: float) -> np.ndarray:
        """max_mu <v_b, mu> - weight * c(mu) per row v_b: weighted log-sum-exp."""
        m = v.max(axis=1)
        if weight <= 0.0:
            return m
        # an exponent below float64's range is -inf, the exact e^-inf = 0
        with np.errstate(over="ignore"):
            z = (v - m[:, None]) / weight
        return m + weight * np.log((self.prior.weights * np.exp(z)).sum(axis=1))

    def conjugate_argmax(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The maximizer mu_b of <v_b, mu> - c(mu) per row v_b, the prior
        tilted by e^v_b, and its derivative diag(d_b) - b_b b_b^T, d_b = b_b
        = mu_b: the triple (mu, d, b)."""
        # an exponent below float64's range is -inf, the exact e^-inf = 0
        with np.errstate(over="ignore"):
            mu = self.prior.weights * np.exp(v - v.max(axis=1, keepdims=True))
        mu /= mu.sum(axis=1, keepdims=True)
        return mu, mu, mu

    def minimum(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ChiSquareDivergence:
    """c(mu) = sum_w mu(w)^2 / mu0(w) - 1, a quadratic divergence.

    Smooth on the whole simplex, including its boundary, so gradients and
    certificates remain exact for rules that shut an action down in some
    states.
    """

    prior: Prior

    def __post_init__(self):
        self.prior.require_full_support()

    def value(self, weights: np.ndarray) -> float:
        return float(self.values(np.asarray(weights, dtype=float)[None])[0])

    def values(self, beliefs: np.ndarray) -> np.ndarray:
        """``value`` of every row of a belief matrix."""
        b = np.asarray(beliefs, dtype=float)
        return np.maximum(np.sum(b * b / self.prior.weights, axis=1) - 1.0, 0.0)

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        return self.gradients(np.asarray(weights, dtype=float)[None])[0]

    def gradients(self, beliefs: np.ndarray) -> np.ndarray:
        """``gradient`` of every row of a belief matrix."""
        b = np.asarray(beliefs, dtype=float)
        # shift 2 mu / mu0 so the gradient integrates back to c(mu)
        return 2.0 * b / self.prior.weights - self.values(b)[:, None] - 2.0

    def conjugate_max(self, v: np.ndarray, weight: float) -> np.ndarray:
        """max_mu <v_b, mu> - weight * c(mu) per row v_b, by exact water-filling."""
        if weight <= 0.0:
            return v.max(axis=1)
        mu = self._water_fill(v, weight)
        return (v[:, None, :] @ mu[:, :, None])[:, 0, 0] - weight * self.values(mu)

    def conjugate_argmax(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The maximizer mu_b of <v_b, mu> - c(mu) per row v_b, and its
        derivative (diag(mu0_S) - mu0_S mu0_S^T / sum_S mu0) / 2 on the
        support S of mu_b, as diag(d_b) - b_b b_b^T: the triple (mu, d, b)."""
        mu = self._water_fill(v, 1.0)
        d = np.where(mu > 0.0, 0.5 * self.prior.weights, 0.0)
        return mu, d, d / np.sqrt(d.sum(axis=1, keepdims=True))

    def _water_fill(self, v: np.ndarray, weight: float) -> np.ndarray:
        """The maximizer of <v_b, mu> - weight * c(mu) per row v_b, for a
        positive weight. Where the weight is too small to move rho off the
        top entry, the fill is empty and the row takes the weight-0
        maximizer, mu0 on its top entries."""
        mu0 = self.prior.weights
        # stationarity: mu(w) = mu0(w) (v(w) - rho) / (2 weight), clipped at 0;
        # sum_w mu0(w) max(0, v(w) - rho) = 2 weight pins rho down: with v sorted
        # down, rho is the first level of the top k entries in [v_(k+1), v_(k)]
        order = np.argsort(v, axis=1)[:, ::-1]
        vs, ms = -np.sort(-v, axis=1), mu0[order]
        target = 2.0 * weight
        levels = (np.cumsum(ms * vs, axis=1) - target) / np.cumsum(ms, axis=1)
        fits = levels <= vs
        fits[:, :-1] &= vs[:, 1:] <= levels[:, :-1]
        fits[:, -1] = True  # the last level, if rounding leaves none in its gap
        rho = levels[np.arange(len(v)), fits.argmax(axis=1)]
        mu = np.maximum(mu0 * (v - rho[:, None]) / target, 0.0)
        total = mu.sum(axis=1, keepdims=True)
        if not total.all():
            for b in np.flatnonzero(total == 0.0):
                mu[b] = mu0 * (v[b] == vs[b, 0])
                total[b] = mu[b].sum()
        return mu / total

    def minimum(self) -> float:
        return 0.0


class CustomDivergence:
    """Caller-supplied convex function on the simplex with a gradient oracle.

    Convexity is spot-checked at construction with seeded random midpoint
    tests; it is not proven. The value at the prior must be finite.
    """

    def __init__(
        self,
        prior: Prior,
        fn: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        prior.require_full_support()
        self.prior = prior
        self.fn = fn
        self.grad = grad
        if not np.isfinite(fn(prior.weights)):
            raise InvalidInputError("custom divergence: value at the prior must be finite")
        rng = np.random.default_rng(0)
        n = self.prior.n_states
        for _ in range(_CONVEXITY_TRIALS):
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(n))
            mid = 0.5 * (a + b)
            if self.fn(mid) > 0.5 * (self.fn(a) + self.fn(b)) + _CONVEXITY_TOL:
                raise InvalidInputError("custom divergence: midpoint convexity test failed")

    def value(self, weights: np.ndarray) -> float:
        return float(self.fn(np.asarray(weights, dtype=float)))

    def values(self, beliefs: np.ndarray) -> np.ndarray:
        """``value`` of every row of a belief matrix, one call of ``fn`` each."""
        return np.array([self.value(b) for b in np.asarray(beliefs, dtype=float)])

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        if self.grad is None:
            raise UnsupportedCostError("custom divergence has no gradient oracle")
        w = np.asarray(weights, dtype=float)
        raw = np.asarray(self.grad(w), dtype=float)
        return raw + (self.value(w) - raw @ w)

    def gradients(self, beliefs: np.ndarray) -> np.ndarray:
        """``gradient`` of every row of a belief matrix, one oracle call each."""
        b = np.asarray(beliefs, dtype=float)
        return np.array([self.gradient(row) for row in b]).reshape(b.shape)

    def conjugate_argmax(self, v: np.ndarray):
        raise UnsupportedCostError("custom divergence has no conjugate argmax")

    def conjugate_max(self, v: np.ndarray, weight: float) -> np.ndarray:
        """max_mu <v_b, mu> - weight * c(mu) per row v_b: the best of two SLSQP
        starts that do not end on nan."""
        if weight <= 0.0:
            return v.max(axis=1)
        n = self.prior.n_states
        starts = (self.prior.weights, np.full(n, 1.0 / n))
        return np.array([
            max(-np.inf, *(-_simplex_min(lambda m: -(row @ m - weight * self.value(m)), s)
                           for s in starts))
            for row in v])

    def minimum(self) -> float:
        return _simplex_min(self.value, self.prior.weights)


def _simplex_min(fn: Callable[[np.ndarray], float], start: np.ndarray) -> float:
    """The minimum of ``fn`` over the simplex that SLSQP finds from ``start``."""
    from scipy.optimize import minimize

    res = minimize(
        fn,
        start,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * len(start),
        constraints=[{"type": "eq", "fun": lambda m: m.sum() - 1.0}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return float(res.fun)


DivergenceSpec = KLDivergence | ChiSquareDivergence | CustomDivergence


# ---------------------------------------------------------------------------
# Psi transforms (nondecreasing, convex, with a closed-form derivative)


@dataclass(frozen=True)
class IdentityPsi:
    def value(self, x: float) -> float:
        return x

    def derivative(self, x: float) -> float:
        return 1.0


@dataclass(frozen=True)
class AffinePsi:
    a: float
    b: float = 0.0

    def __post_init__(self):
        # false on nan too; the lattice oracle's LP never ends on such prices
        if not (0.0 <= self.a < np.inf and np.isfinite(self.b)):
            raise InvalidInputError("affine psi: a must be finite and >= 0, b finite")

    def value(self, x: float) -> float:
        return self.a * x + self.b

    def derivative(self, x: float) -> float:
        return self.a


@dataclass(frozen=True)
class PowerPsi:
    """psi(x) = x^exponent on x >= 0, exponent >= 1."""

    exponent: float

    def __post_init__(self):
        if not 1.0 <= self.exponent < np.inf:
            raise InvalidInputError("power psi: exponent must be finite and >= 1")

    def value(self, x: float) -> float:
        if x < -1e-9:
            raise InvalidInputError("power psi: negative argument")
        return max(x, 0.0) ** self.exponent

    def derivative(self, x: float) -> float:
        if x < -1e-9:
            raise InvalidInputError("power psi: negative argument")
        return self.exponent * max(x, 0.0) ** (self.exponent - 1.0)

    def conjugate_derivative(self, w: float) -> float:
        """psi*'(w), the x >= 0 where psi'(x) = w: (w / e)^(1 / (e - 1)), 0 at
        and below psi'(0); psi' = 1 at e = 1, so psi*' is inf above 1."""
        if self.exponent == 1.0:
            return 0.0 if w <= 1.0 else np.inf
        return max(w / self.exponent, 0.0) ** (1.0 / (self.exponent - 1.0))


@dataclass(frozen=True)
class ExpPsi:
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < np.inf:
            raise InvalidInputError("exp psi: rate must be finite and positive")

    def value(self, x: float) -> float:
        with np.errstate(over="ignore"):  # inf past float64's range
            return float(np.exp(self.rate * x))

    def derivative(self, x: float) -> float:
        return self.rate * self.value(x)

    def conjugate_derivative(self, w: float) -> float:
        """psi*'(w), the x >= 0 where psi'(x) = w: log(w / rate) / rate, 0 at
        and below psi'(0) = rate."""
        return float(np.log(w / self.rate) / self.rate) if w > self.rate else 0.0


PsiSpec = IdentityPsi | AffinePsi | PowerPsi | ExpPsi


# ---------------------------------------------------------------------------
# Cost specs


@dataclass(frozen=True)
class MutualInformation:
    prior: Prior
    scale: float = 1.0
    # held, not built per access: the derivative map reads both per step
    divergence: KLDivergence = field(init=False, repr=False, compare=False)
    psi: AffinePsi = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.scale < np.inf:
            raise InvalidInputError("mutual information: scale must be positive and finite")
        self.prior.require_full_support()
        object.__setattr__(self, "divergence", KLDivergence(self.prior))
        object.__setattr__(self, "psi", AffinePsi(self.scale))


@dataclass(frozen=True)
class PosteriorSeparable:
    divergence: DivergenceSpec
    psi: IdentityPsi = field(default=IdentityPsi(), init=False, repr=False)

    @property
    def prior(self) -> Prior:
        return self.divergence.prior


@dataclass(frozen=True)
class Transformed:
    divergence: DivergenceSpec
    psi: PsiSpec

    @property
    def prior(self) -> Prior:
        return self.divergence.prior


class Quadratic:
    """C(p) = sum_ij w_i w_j kernel(mu_i, mu_j) for a symmetric PSD kernel.

    Positive semidefiniteness has no finite test here; the caller must
    assert it via ``declared_psd=True`` or construction fails.
    """

    def __init__(self, prior: Prior, kernel: Callable[[np.ndarray, np.ndarray], float],
                 declared_psd: bool = False):
        if not declared_psd:
            raise InvalidInputError(
                "quadratic cost: kernel must be declared positive semidefinite"
            )
        prior.require_full_support()
        self.prior = prior
        self.kernel = kernel


@dataclass(frozen=True)
class MaxOverSet:
    divergences: tuple[DivergenceSpec, ...]

    def __init__(self, divergences: Sequence[DivergenceSpec]):
        divs = tuple(divergences)
        if not divs:
            raise InvalidInputError("max-over-set cost: needs at least one divergence")
        base = divs[0].prior
        for d in divs[1:]:
            if d.prior != base:
                raise InvalidInputError("max-over-set cost: mixed priors")
        object.__setattr__(self, "divergences", divs)

    @property
    def prior(self) -> Prior:
        return self.divergences[0].prior


CostSpec = MutualInformation | PosteriorSeparable | Transformed | Quadratic | MaxOverSet


def policy_cost(spec: CostSpec, beliefs: np.ndarray, weights: np.ndarray) -> float:
    """C of the policy putting ``weights[i]`` on belief row ``beliefs[i]``:
    ``cost_eval`` on arrays, without its check of the cost's prior."""
    if hasattr(spec, "psi"):
        return float(spec.psi.value(float(weights @ spec.divergence.values(beliefs))))
    if isinstance(spec, Quadratic):
        total = 0.0
        for i, wi in enumerate(weights):
            for j, wj in enumerate(weights):
                total += wi * wj * spec.kernel(beliefs[i], beliefs[j])
        return float(total)
    if isinstance(spec, MaxOverSet):
        return max(float(weights @ d.values(beliefs)) for d in spec.divergences)
    raise UnsupportedCostError(f"unknown cost variant {type(spec).__name__}")


def cost_eval(spec: CostSpec, policy: SimpleInfoPolicy) -> float:
    """Evaluate C on a simple information policy, after ``require_valid``
    on the policy's prior and the cost."""
    require_valid(policy.prior, spec=spec)
    return policy_cost(spec, policy.belief_matrix(), policy.weights)


def derivative_basis(spec: CostSpec, beliefs: np.ndarray | None = None,
                     weights: np.ndarray | None = None
                     ) -> tuple[DivergenceSpec, float]:
    """Divergence and scalar weight of the derivative cost at the policy
    putting ``weights[i]`` on belief row ``beliefs[i]``. The derivative
    cost is weight * divergence, weight psi'(K) at the expected divergence
    K. This is the one map from a cost spec to its derivative, and the one
    test of whether it needs the policy: under an identity or affine psi
    (mutual information, posterior separable) the weight is psi's slope and
    the policy may be omitted.
    """
    if not hasattr(spec, "psi"):
        raise UnsupportedCostError(
            f"{type(spec).__name__} cost does not expose a derivative"
        )
    psi, div = spec.psi, spec.divergence
    if isinstance(psi, (IdentityPsi, AffinePsi)):
        return div, float(psi.derivative(0.0))
    if beliefs is None:
        raise UnsupportedCostError(
            "transformed cost: the derivative weight moves with the policy"
        )
    return div, float(psi.derivative(float(weights @ div.values(beliefs))))
