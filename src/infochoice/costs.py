"""Information cost functions over simple information policies.

A cost spec is a tagged description of a convex, monotone cost C on
belief distributions. Five families are supported:

- ``MutualInformation(prior, scale)``: scale times the expected KL
  divergence of the posterior from the prior.
- ``PosteriorSeparable(divergence)``: expected value of a convex
  divergence c, so C is linear in the policy weights.
- ``Transformed(divergence, psi)``: psi applied to the expected
  divergence, for a nondecreasing convex psi.
- ``Quadratic(prior, kernel, declared_psd)``: double integral of a
  symmetric positive-semidefinite kernel. Evaluation only.
- ``MaxOverSet(divergences)``: upper envelope of posterior-separable
  costs. Evaluation only (kinked, so no derivative support).

Every divergence prices one belief with ``value(weights)`` and a whole
belief matrix, one belief per row, with ``values(beliefs)``; likewise
``gradient(weights)`` and ``gradients(beliefs)`` for its belief gradient.

Where the cost is smooth the module also exposes its derivative cost
c_p (a per-belief price of probability mass at the policy p) and the
belief gradient of that derivative, normalized so that the gradient
integrates back to the derivative value under the belief itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import Belief, InvalidInputError, Prior, SimpleInfoPolicy

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
        w = np.asarray(weights, dtype=float)
        pos = w > 0.0
        total = float(np.sum(w[pos] * np.log(w[pos] / self.prior.weights[pos])))
        return max(total, 0.0)  # nonnegative by construction; clamp roundoff

    def values(self, beliefs: np.ndarray) -> np.ndarray:
        """``value`` of every row of a belief matrix."""
        b = np.asarray(beliefs, dtype=float)
        # a zero coordinate contributes b * log(1) = 0, the 0 log 0 convention
        ratio = np.where(b > 0.0, b / self.prior.weights, 1.0)
        return np.maximum(np.sum(b * np.log(ratio), axis=1), 0.0)

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        if w.min() <= 0.0:
            raise BoundaryGradientError("gradient unbounded at boundary belief")
        # the +1 from d(x log x) cancels against any zero-sum direction
        return np.log(w / self.prior.weights)

    def gradients(self, beliefs: np.ndarray) -> np.ndarray:
        """``gradient`` of every row of a belief matrix. A zero coordinate
        gives -inf there instead of an error; ``gradient_defined`` tells."""
        b = np.asarray(beliefs, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(b / self.prior.weights)

    def gradient_defined(self, weights: np.ndarray) -> bool:
        return bool(np.asarray(weights).min() > 0.0)

    def conjugate_max(self, v: np.ndarray, weight: float) -> float:
        """max over beliefs of <v, mu> - weight * c(mu): weighted log-sum-exp."""
        mu0 = self.prior.weights
        if weight <= 0.0:
            return float(np.max(v))
        m = np.max(v)
        return float(m + weight * np.log(np.sum(mu0 * np.exp((v - m) / weight))))

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
        w = np.asarray(weights, dtype=float)
        return max(float(np.sum(w * w / self.prior.weights) - 1.0), 0.0)

    def values(self, beliefs: np.ndarray) -> np.ndarray:
        """``value`` of every row of a belief matrix."""
        b = np.asarray(beliefs, dtype=float)
        return np.maximum(np.sum(b * b / self.prior.weights, axis=1) - 1.0, 0.0)

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        # shift 2 mu / mu0 so the gradient integrates back to c(mu)
        return 2.0 * w / self.prior.weights - self.value(w) - 2.0

    def gradients(self, beliefs: np.ndarray) -> np.ndarray:
        """``gradient`` of every row of a belief matrix."""
        b = np.asarray(beliefs, dtype=float)
        return 2.0 * b / self.prior.weights - self.values(b)[:, None] - 2.0

    def gradient_defined(self, weights: np.ndarray) -> bool:
        return True

    def conjugate_max(self, v: np.ndarray, weight: float) -> float:
        """max over beliefs of <v, mu> - weight * c(mu), by exact water-filling."""
        mu0 = self.prior.weights
        if weight <= 0.0:
            return float(np.max(v))
        # stationarity: mu(w) = mu0(w) (v(w) - rho) / (2 weight), clipped at 0;
        # sum_w mu0(w) max(0, v(w) - rho) = 2 weight pins rho down
        order = np.argsort(v)[::-1]
        vs, ms = v[order], mu0[order]
        target = 2.0 * weight
        cum_m = np.cumsum(ms)
        cum_mv = np.cumsum(ms * vs)
        rho = None
        for k in range(len(vs)):
            r = (cum_mv[k] - target) / cum_m[k]
            lower = vs[k + 1] if k + 1 < len(vs) else -np.inf
            if lower <= r <= vs[k]:
                rho = r
                break
        if rho is None:
            rho = (cum_mv[-1] - target) / cum_m[-1]
        mu = np.clip(mu0 * (v - rho) / target, 0.0, None)
        mu = mu / mu.sum()
        return float(v @ mu - weight * self.value(mu))

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
        check_convexity: bool = True,
    ):
        prior.require_full_support()
        self.prior = prior
        self.fn = fn
        self.grad = grad
        if not np.isfinite(fn(prior.weights)):
            raise InvalidInputError("custom divergence: value at the prior must be finite")
        if check_convexity:
            self._midpoint_check()

    def _midpoint_check(self) -> None:
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

    def gradient_defined(self, weights: np.ndarray) -> bool:
        return self.grad is not None

    def conjugate_max(self, v: np.ndarray, weight: float) -> float:
        if weight <= 0.0:
            return float(np.max(v))
        from scipy.optimize import minimize

        n = self.prior.n_states
        objective = lambda m: -(v @ m - weight * self.value(m))
        best = -np.inf
        for start in (self.prior.weights, np.full(n, 1.0 / n)):
            res = minimize(
                objective,
                start,
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints=[{"type": "eq", "fun": lambda m: m.sum() - 1.0}],
                options={"maxiter": 500, "ftol": 1e-14},
            )
            best = max(best, -float(res.fun))
        return best

    def minimum(self) -> float:
        from scipy.optimize import minimize

        n = self.prior.n_states
        res = minimize(
            lambda m: self.value(m),
            self.prior.weights,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda m: m.sum() - 1.0}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        return float(res.fun)


DivergenceSpec = KLDivergence | ChiSquareDivergence | CustomDivergence


# ---------------------------------------------------------------------------
# Psi transforms (nondecreasing, convex, with closed-form derivatives)


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
        if self.a < 0.0:
            raise InvalidInputError("affine psi: slope must be nonnegative")

    def value(self, x: float) -> float:
        return self.a * x + self.b

    def derivative(self, x: float) -> float:
        return self.a


@dataclass(frozen=True)
class PowerPsi:
    """psi(x) = x^exponent on x >= 0, exponent >= 1."""

    exponent: float

    def __post_init__(self):
        if self.exponent < 1.0:
            raise InvalidInputError("power psi: exponent must be >= 1")

    def value(self, x: float) -> float:
        if x < -1e-9:
            raise InvalidInputError("power psi: negative argument")
        return max(x, 0.0) ** self.exponent

    def derivative(self, x: float) -> float:
        if x < -1e-9:
            raise InvalidInputError("power psi: negative argument")
        x = max(x, 0.0)
        if x == 0.0:
            return 1.0 if self.exponent == 1.0 else 0.0
        return self.exponent * x ** (self.exponent - 1.0)


@dataclass(frozen=True)
class ExpPsi:
    rate: float

    def __post_init__(self):
        if self.rate <= 0.0:
            raise InvalidInputError("exp psi: rate must be positive")

    def value(self, x: float) -> float:
        return float(np.exp(self.rate * x))

    def derivative(self, x: float) -> float:
        return float(self.rate * np.exp(self.rate * x))


PsiSpec = IdentityPsi | AffinePsi | PowerPsi | ExpPsi


# ---------------------------------------------------------------------------
# Cost specs


@dataclass(frozen=True)
class MutualInformation:
    prior: Prior
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise InvalidInputError("mutual information: scale must be positive")
        self.prior.require_full_support()

    @property
    def divergence(self) -> KLDivergence:
        return KLDivergence(self.prior)


@dataclass(frozen=True)
class PosteriorSeparable:
    divergence: DivergenceSpec

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
            if not d.prior.same_space(base):
                raise InvalidInputError("max-over-set cost: mixed priors")
        object.__setattr__(self, "divergences", divs)

    @property
    def prior(self) -> Prior:
        return self.divergences[0].prior


CostSpec = MutualInformation | PosteriorSeparable | Transformed | Quadratic | MaxOverSet


def check_prior(spec: CostSpec, prior: Prior) -> None:
    if not prior.same_space(spec.prior):
        raise InvalidInputError("policy prior does not match the cost's prior")


def _expected_divergence(div: DivergenceSpec, beliefs: np.ndarray,
                         weights: np.ndarray) -> float:
    return float(weights @ div.values(beliefs))


def policy_cost(spec: CostSpec, beliefs: np.ndarray, weights: np.ndarray) -> float:
    """C of the policy putting ``weights[i]`` on belief row ``beliefs[i]``:
    ``cost_eval`` on arrays, without its prior and barycenter checks."""
    if isinstance(spec, MutualInformation):
        return spec.scale * _expected_divergence(spec.divergence, beliefs, weights)
    if isinstance(spec, PosteriorSeparable):
        return _expected_divergence(spec.divergence, beliefs, weights)
    if isinstance(spec, Transformed):
        return float(spec.psi.value(_expected_divergence(spec.divergence, beliefs,
                                                         weights)))
    if isinstance(spec, Quadratic):
        total = 0.0
        for i, wi in enumerate(weights):
            for j, wj in enumerate(weights):
                total += wi * wj * spec.kernel(beliefs[i], beliefs[j])
        return float(total)
    if isinstance(spec, MaxOverSet):
        return max(_expected_divergence(d, beliefs, weights) for d in spec.divergences)
    raise UnsupportedCostError(f"unknown cost variant {type(spec).__name__}")


def cost_eval(spec: CostSpec, policy: SimpleInfoPolicy) -> float:
    """Evaluate C on a simple information policy."""
    check_prior(spec, policy.prior)
    return policy_cost(spec, policy.belief_matrix(), policy.weights)


def derivative_basis(spec: CostSpec, beliefs: np.ndarray | None = None,
                     weights: np.ndarray | None = None) -> tuple[DivergenceSpec, float]:
    """Divergence and scalar weight such that the derivative cost at the
    policy putting ``weights[i]`` on belief row ``beliefs[i]`` is
    weight * divergence. This is the one map from a cost spec to its
    derivative.

    For mutual-information and posterior-separable costs the weight is
    constant, so the policy may be omitted; for transformed costs it is
    psi'(expected divergence at the policy), which needs the policy.
    """
    if isinstance(spec, MutualInformation):
        return spec.divergence, spec.scale
    if isinstance(spec, PosteriorSeparable):
        return spec.divergence, 1.0
    if isinstance(spec, Transformed):
        if beliefs is None:
            raise UnsupportedCostError(
                "transformed cost: the derivative weight moves with the policy"
            )
        inner = _expected_divergence(spec.divergence, beliefs, weights)
        return spec.divergence, float(spec.psi.derivative(inner))
    raise UnsupportedCostError(
        f"{type(spec).__name__} cost does not expose a derivative"
    )


def _basis_at(spec: CostSpec, policy: SimpleInfoPolicy) -> tuple[DivergenceSpec, float]:
    check_prior(spec, policy.prior)
    return derivative_basis(spec, policy.belief_matrix(), policy.weights)


def derivative_value(spec: CostSpec, at_policy: SimpleInfoPolicy, belief: Belief) -> float:
    """Per-belief price c_p(mu) of the cost's derivative at the policy."""
    div, weight = _basis_at(spec, at_policy)
    return weight * div.value(belief.weights)


def cost_gradient(spec: CostSpec, at_policy: SimpleInfoPolicy, belief: Belief) -> np.ndarray:
    """Belief gradient of the derivative cost, normalized so that
    ``gradient @ belief == derivative_value``."""
    div, weight = _basis_at(spec, at_policy)
    return weight * div.gradient(belief.weights)


def is_iteratively_differentiable(
    spec: CostSpec, policy: SimpleInfoPolicy
) -> tuple[bool, str]:
    """Whether the cost admits a derivative at the policy whose belief
    gradient exists at every support belief. Returns (flag, reason)."""
    if isinstance(spec, MaxOverSet):
        return False, "kink: upper envelope of several divergences"
    if isinstance(spec, Quadratic):
        return False, "quadratic cost exposes no belief gradients in this build"
    try:
        div, _ = _basis_at(spec, policy)
    except UnsupportedCostError as exc:
        return False, str(exc)
    for b in policy.beliefs:
        if not div.gradient_defined(b.weights):
            return False, "boundary belief: divergence gradient unbounded there"
    return True, "smooth at every support belief"
