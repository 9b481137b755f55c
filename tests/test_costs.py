import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infochoice as ic
from conftest import random_interior_scr, random_prior

LOG2 = math.log(2.0)


def kl_by_hand(mu, mu0):
    """Independent oracle: direct sum with the 0 log 0 convention."""
    total = 0.0
    for m, m0 in zip(mu, mu0):
        if m > 0.0:
            total += m * math.log(m / m0)
    return total


def policy_from_scr(prior, scr):
    return ic.reveal(scr, prior).policy()


def random_policy(rng, prior, n_actions=3):
    cols = rng.dirichlet(np.ones(n_actions), size=prior.n_states)
    return policy_from_scr(prior, ic.SCR(cols.T))


class TestCostEval:
    def test_uninformative_policy_costs_nothing(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        assert ic.cost_eval(spec, ic.SimpleInfoPolicy.uninformative(binary_prior)) == 0.0

    def test_fully_revealing_costs_prior_entropy(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior, [ic.Belief([1, 0]), ic.Belief([0, 1])], [0.5, 0.5]
        )
        assert ic.cost_eval(spec, policy) == pytest.approx(LOG2, abs=1e-12)

    def test_asymmetric_binary_policy(self, binary_prior):
        # policy revealed by s_1 = (0.25, 0.75) under the uniform prior
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior,
            [ic.Belief([0.25, 0.75]), ic.Belief([0.75, 0.25])],
            [0.5, 0.5],
        )
        expected = 0.5 * kl_by_hand([0.25, 0.75], [0.5, 0.5]) \
            + 0.5 * kl_by_hand([0.75, 0.25], [0.5, 0.5])
        got = ic.cost_eval(spec, policy)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.130812, abs=5e-7)

    def test_scale_multiplies(self, binary_prior):
        policy = ic.SimpleInfoPolicy(
            binary_prior, [ic.Belief([1, 0]), ic.Belief([0, 1])], [0.5, 0.5]
        )
        c1 = ic.cost_eval(ic.MutualInformation(binary_prior, 1.0), policy)
        c3 = ic.cost_eval(ic.MutualInformation(binary_prior, 3.0), policy)
        assert c3 == pytest.approx(3.0 * c1, abs=1e-12)

    def test_prior_mismatch_is_an_error(self, binary_prior):
        other = ic.Prior(["x", "y"], [0.4, 0.6])
        spec = ic.MutualInformation(other, 1.0)
        with pytest.raises(ic.InvalidInputError, match="prior"):
            ic.cost_eval(spec, ic.SimpleInfoPolicy.uninformative(binary_prior))

    def test_quadratic_requires_declared_psd(self, binary_prior):
        with pytest.raises(ic.InvalidInputError):
            ic.Quadratic(binary_prior, lambda a, b: float(a @ b), declared_psd=False)

    def test_quadratic_evaluates_double_sum(self, binary_prior):
        kernel = lambda a, b: float((a @ a) * (b @ b))
        spec = ic.Quadratic(binary_prior, kernel, declared_psd=True)
        policy = ic.SimpleInfoPolicy(
            binary_prior, [ic.Belief([1, 0]), ic.Belief([0, 1])], [0.5, 0.5]
        )
        # sum_ij w_i w_j k(mu_i) k(mu_j) = (sum_i w_i k(mu_i))^2 = 1
        assert ic.cost_eval(spec, policy) == pytest.approx(1.0, abs=1e-12)

    def test_max_over_set_takes_the_envelope(self, binary_prior):
        spec = ic.MaxOverSet([
            ic.KLDivergence(binary_prior),
            ic.ChiSquareDivergence(binary_prior),
        ])
        policy = ic.SimpleInfoPolicy(
            binary_prior,
            [ic.Belief([0.25, 0.75]), ic.Belief([0.75, 0.25])],
            [0.5, 0.5],
        )
        kl = 0.130812
        chi = 0.25  # sum mu^2/mu0 - 1 = (0.125 + 1.125) - 1 at both beliefs
        assert ic.cost_eval(spec, policy) == pytest.approx(max(kl, chi), abs=1e-6)


class TestDerivativeValue:
    def test_zero_at_the_prior(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        assert ic.derivative_value(spec, policy, ic.Belief([0.5, 0.5])) == 0.0

    def test_posterior_separable_is_the_divergence(self, binary_prior):
        spec = ic.PosteriorSeparable(ic.KLDivergence(binary_prior))
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        got = ic.derivative_value(spec, policy, ic.Belief([0.25, 0.75]))
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.130812, abs=5e-7)

    def test_transformed_weight_vanishes_at_no_information(self, binary_prior):
        spec = ic.Transformed(ic.KLDivergence(binary_prior), ic.PowerPsi(2.0))
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        assert ic.derivative_value(spec, policy, ic.Belief([0.25, 0.75])) == 0.0

    def test_unsupported_variants_rejected(self, binary_prior):
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        quad = ic.Quadratic(binary_prior, lambda a, b: float(a @ b), declared_psd=True)
        with pytest.raises(ic.InvalidInputError):
            ic.derivative_value(quad, policy, ic.Belief([0.5, 0.5]))
        env = ic.MaxOverSet([ic.KLDivergence(binary_prior)])
        with pytest.raises(ic.InvalidInputError):
            ic.derivative_value(env, policy, ic.Belief([0.5, 0.5]))


class TestCostGradient:
    def test_zero_at_the_prior(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        g = ic.cost_gradient(spec, policy, ic.Belief([0.5, 0.5]))
        assert np.abs(g).max() == 0.0

    def test_log_likelihood_ratio_form(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        mu = ic.Belief([0.731059, 0.268941])
        g = ic.cost_gradient(spec, policy, mu)
        assert g == pytest.approx(
            [math.log(2 * 0.731059), math.log(2 * 0.268941)], abs=1e-12
        )
        assert g == pytest.approx([0.379885, -0.620115], abs=5e-6)

    def test_boundary_belief_rejected_under_kl(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        with pytest.raises(ic.InvalidInputError, match="boundary"):
            ic.cost_gradient(spec, policy, ic.Belief([1.0, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_oracle(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 3)
        specs = [
            ic.MutualInformation(prior, 0.7),
            ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
            ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0)),
        ]
        policy = random_policy(rng, prior)
        mu = 0.1 + 0.9 * rng.dirichlet(np.ones(3))
        mu = ic.Belief(mu / mu.sum())
        d = rng.normal(size=3)
        d -= d.mean()
        d /= np.abs(d).max()
        for spec in specs:
            ana = float(ic.cost_gradient(spec, policy, mu) @ d)

            def one_sided(eps):
                shifted = ic.Belief(mu.weights + eps * d)
                return (ic.derivative_value(spec, policy, shifted)
                        - ic.derivative_value(spec, policy, mu)) / eps

            d1, d2, d3 = one_sided(1e-4), one_sided(1e-5), one_sided(1e-6)
            r12 = (10 * d2 - d1) / 9
            r23 = (10 * d3 - d2) / 9
            richardson = (100 * r23 - r12) / 99
            assert abs(richardson - ana) < 1e-6 * max(1.0, abs(ana))


class TestSmoothnessGate:
    def test_mutual_information_smooth_when_fully_mixed(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior,
            [ic.Belief([0.25, 0.75]), ic.Belief([0.75, 0.25])],
            [0.5, 0.5],
        )
        ok, reason = ic.is_iteratively_differentiable(spec, policy)
        assert ok, reason

    def test_degenerate_belief_blocks_kl(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior, [ic.Belief([1, 0]), ic.Belief([0, 1])], [0.5, 0.5]
        )
        ok, reason = ic.is_iteratively_differentiable(spec, policy)
        assert not ok
        assert "boundary" in reason

    def test_envelope_costs_are_kinked(self, binary_prior):
        spec = ic.MaxOverSet([
            ic.KLDivergence(binary_prior),
            ic.ChiSquareDivergence(binary_prior),
        ])
        ok, reason = ic.is_iteratively_differentiable(
            spec, ic.SimpleInfoPolicy.uninformative(binary_prior)
        )
        assert not ok
        assert "kink" in reason

    def test_chi_square_stays_smooth_at_the_boundary(self, binary_prior):
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))
        policy = ic.SimpleInfoPolicy(
            binary_prior, [ic.Belief([1, 0]), ic.Belief([0, 1])], [0.5, 0.5]
        )
        ok, _ = ic.is_iteratively_differentiable(spec, policy)
        assert ok


def _all_specs(prior):
    kernel = lambda a, b: float((a @ a) * (b @ b))
    return [
        ic.MutualInformation(prior, 1.3),
        ic.PosteriorSeparable(ic.KLDivergence(prior)),
        ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
        ic.Transformed(ic.ChiSquareDivergence(prior), ic.PowerPsi(2.0)),
        ic.Transformed(ic.KLDivergence(prior), ic.ExpPsi(0.5)),
        ic.Quadratic(prior, kernel, declared_psd=True),
        ic.MaxOverSet([ic.KLDivergence(prior), ic.ChiSquareDivergence(prior)]),
    ]


@given(st.integers(0, 10_000), st.floats(0.05, 0.95))
def test_convexity_in_policy_mixtures(seed, beta):
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 2)
    p = random_policy(rng, prior)
    q = random_policy(rng, prior)
    mixed = ic.mix_policies(p, q, beta)
    for spec in _all_specs(prior):
        lhs = ic.cost_eval(spec, mixed)
        rhs = beta * ic.cost_eval(spec, p) + (1 - beta) * ic.cost_eval(spec, q)
        assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_monotone_in_certified_informativeness(seed):
    # p splits each belief of q mean-preservingly, so p dominates q
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 2)
    q = random_policy(rng, prior)
    beliefs, weights = [], []
    for b, w in zip(q.beliefs, q.weights):
        room = min(b.weights.min(), (1 - b.weights).min(), 0.05)
        delta = np.array([room / 2, -room / 2])
        beliefs += [ic.Belief(b.weights + delta), ic.Belief(b.weights - delta)]
        weights += [w / 2, w / 2]
    p = ic.SimpleInfoPolicy(prior, beliefs, weights)
    assert ic.blackwell_geq(p, q).holds
    for spec in _all_specs(prior):
        assert ic.cost_eval(spec, p) >= ic.cost_eval(spec, q) - 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_gradient_integrates_back_to_derivative_value(seed):
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 4)
    policy = random_policy(rng, prior)
    mu = ic.Belief(rng.dirichlet(np.full(4, 5.0)))
    specs = [
        ic.MutualInformation(prior, 2.0),
        ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
        ic.Transformed(ic.KLDivergence(prior), ic.AffinePsi(1.5, 0.2)),
    ]
    for spec in specs:
        g = ic.cost_gradient(spec, policy, mu)
        assert float(g @ mu.weights) == pytest.approx(
            ic.derivative_value(spec, policy, mu), abs=1e-10
        )


@pytest.mark.parametrize("seed", range(10))
def test_transformed_chain_rule(seed):
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 3)
    policy = random_policy(rng, prior)
    mu = ic.Belief(rng.dirichlet(np.full(3, 5.0)))
    div = ic.KLDivergence(prior)
    psi = ic.PowerPsi(3.0)
    spec = ic.Transformed(div, psi)
    inner_expect = sum(
        w * div.value(b.weights) for w, b in zip(policy.weights, policy.beliefs)
    )
    inner_spec = ic.PosteriorSeparable(div)
    expected = psi.derivative(inner_expect) * ic.derivative_value(inner_spec, policy, mu)
    assert ic.derivative_value(spec, policy, mu) == pytest.approx(expected, abs=1e-10)


def test_custom_divergence_convexity_screen(binary_prior):
    ic.CustomDivergence(binary_prior, lambda m: float(m @ m))  # convex: fine
    with pytest.raises(ic.InvalidInputError, match="convexity"):
        ic.CustomDivergence(binary_prior, lambda m: -float(m @ m))


class TestConjugateMaxima:
    """The entry-margin engine: max over beliefs of <v, mu> - w c(mu),
    checked against brute-force grid maximization."""

    @staticmethod
    def _grid_max(div, v, weight, n=2000):
        best = -np.inf
        if len(v) == 2:
            xs = np.linspace(0.0, 1.0, n + 1)
            for x in xs:
                mu = np.array([x, 1.0 - x])
                best = max(best, float(v @ mu) - weight * div.value(mu))
        else:
            rng = np.random.default_rng(0)
            pts = rng.dirichlet(np.ones(len(v)), size=n)
            vertices = np.eye(len(v))
            for mu in np.vstack([pts, vertices]):
                best = max(best, float(v @ mu) - weight * div.value(mu))
        return best

    @pytest.mark.parametrize("seed", range(10))
    def test_chi_square_water_filling_beats_the_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        prior = random_prior(rng, n)
        div = ic.ChiSquareDivergence(prior)
        v = rng.normal(0.0, 2.0, size=n)
        w = float(rng.uniform(0.2, 3.0))
        exact = div.conjugate_max(v, w)
        grid = self._grid_max(div, v, w)
        assert exact >= grid - 1e-9
        if n == 2:
            assert exact <= grid + 1e-4  # grid spacing error only

    @pytest.mark.parametrize("seed", range(10))
    def test_kl_log_sum_exp_matches_binary_grid(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 2)
        div = ic.KLDivergence(prior)
        v = rng.normal(0.0, 2.0, size=2)
        w = float(rng.uniform(0.2, 3.0))
        exact = div.conjugate_max(v, w)
        grid = self._grid_max(div, v, w)
        assert grid - 1e-9 <= exact <= grid + 1e-4

    def test_zero_weight_degenerates_to_the_max(self, binary_prior):
        div = ic.ChiSquareDivergence(binary_prior)
        assert div.conjugate_max(np.array([0.3, -1.0]), 0.0) == 0.3

    def test_custom_divergence_conjugate_is_consistent(self, binary_prior):
        div = ic.CustomDivergence(binary_prior, lambda m: float(m @ m) - 0.5,
                                  grad=lambda m: 2.0 * m)
        v = np.array([1.0, -0.5])
        exact = div.conjugate_max(v, 1.0)
        grid = self._grid_max(div, v, 1.0)
        assert abs(exact - grid) < 1e-4


class TestVectorisedValues:
    """``values`` on a belief matrix against ``value`` row by row."""

    @staticmethod
    def _beliefs(rng, prior):
        n = prior.n_states
        interior = rng.dirichlet(np.ones(n), size=20)
        boundary = rng.dirichlet(np.ones(n), size=20)
        boundary[rng.random(boundary.shape) < 0.4] = 0.0
        boundary[boundary.sum(axis=1) == 0.0, 0] = 1.0
        boundary /= boundary.sum(axis=1, keepdims=True)
        # at and next to the prior the sums are roundoff around 0
        near = prior.weights * (1.0 + 1e-9 * rng.normal(size=(5, n)))
        near /= near.sum(axis=1, keepdims=True)
        return np.vstack([interior, boundary, np.eye(n), prior.weights, near])

    @pytest.mark.parametrize("seed", range(6))
    def test_values_match_value_row_by_row(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 1 + seed)
        beliefs = self._beliefs(rng, prior)
        for div in (ic.KLDivergence(prior), ic.ChiSquareDivergence(prior),
                    ic.CustomDivergence(prior, lambda m: float(m @ m) - 0.5)):
            got = div.values(beliefs)
            want = np.array([div.value(b) for b in beliefs])
            assert got.shape == (len(beliefs),)
            assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())
        kl = ic.KLDivergence(prior).values(beliefs)
        assert kl.min() >= 0.0
        hand = [max(kl_by_hand(b, prior.weights), 0.0) for b in beliefs]
        assert kl == pytest.approx(hand, abs=1e-14)
        assert ic.ChiSquareDivergence(prior).values(beliefs).min() >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients_match_gradient_row_by_row(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 1 + seed)
        n = prior.n_states
        near = prior.weights * (1.0 + 1e-9 * rng.normal(size=(5, n)))
        beliefs = np.vstack([rng.dirichlet(np.ones(n), size=20), prior.weights,
                             near / near.sum(axis=1, keepdims=True)])
        custom = ic.CustomDivergence(prior, lambda m: float(m @ m) - 0.5,
                                     grad=lambda m: 2.0 * m)
        for div in (ic.KLDivergence(prior), ic.ChiSquareDivergence(prior), custom):
            got = div.gradients(beliefs)
            want = np.stack([div.gradient(b) for b in beliefs])
            assert got.shape == beliefs.shape
            assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())

    def test_kl_gradients_are_minus_infinity_at_a_zero_coordinate(self, binary_prior):
        # the matrix form marks the unbounded slope instead of raising
        g = ic.KLDivergence(binary_prior).gradients(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert g[0, 1] == -np.inf
        assert np.isfinite(np.delete(g.ravel(), 1)).all()
