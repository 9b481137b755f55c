import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infochoice as ic
from conftest import random_interior_scr, random_prior
from infochoice.costs import UnsupportedCostError

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


def derivative_value(spec, policy, mu):
    """c_p(mu) at the policy p, from ``derivative_basis``."""
    div, weight = ic.derivative_basis(spec, policy.belief_matrix(), policy.weights)
    return weight * div.value(mu)


def cost_gradient(spec, policy, mu):
    """The belief gradient of c_p at mu."""
    div, weight = ic.derivative_basis(spec, policy.belief_matrix(), policy.weights)
    return weight * div.gradient(mu)


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
            binary_prior, [[1, 0], [0, 1]], [0.5, 0.5]
        )
        assert ic.cost_eval(spec, policy) == pytest.approx(LOG2, abs=1e-12)

    def test_asymmetric_binary_policy(self, binary_prior):
        # policy revealed by s_1 = (0.25, 0.75) under the uniform prior
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior,
            [[0.25, 0.75], [0.75, 0.25]],
            [0.5, 0.5],
        )
        expected = 0.5 * kl_by_hand([0.25, 0.75], [0.5, 0.5]) \
            + 0.5 * kl_by_hand([0.75, 0.25], [0.5, 0.5])
        got = ic.cost_eval(spec, policy)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.130812, abs=5e-7)

    def test_scale_multiplies(self, binary_prior):
        policy = ic.SimpleInfoPolicy(
            binary_prior, [[1, 0], [0, 1]], [0.5, 0.5]
        )
        c1 = ic.cost_eval(ic.MutualInformation(binary_prior, 1.0), policy)
        c3 = ic.cost_eval(ic.MutualInformation(binary_prior, 3.0), policy)
        assert c3 == pytest.approx(3.0 * c1, abs=1e-12)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_scale_must_be_positive_and_finite(self, binary_prior, scale):
        with pytest.raises(ic.InvalidInputError, match="scale"):
            ic.MutualInformation(binary_prior, scale)
        with pytest.raises(ic.InvalidInputError, match="scale"):
            ic.solve_mi(ic.Menu(["a"], [[1.0, 0.0]]), binary_prior, scale)

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
            binary_prior, [[1, 0], [0, 1]], [0.5, 0.5]
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
            [[0.25, 0.75], [0.75, 0.25]],
            [0.5, 0.5],
        )
        kl = 0.130812
        chi = 0.25  # sum mu^2/mu0 - 1 = (0.125 + 1.125) - 1 at both beliefs
        assert ic.cost_eval(spec, policy) == pytest.approx(max(kl, chi), abs=1e-6)


class TestDerivativeValue:
    def test_zero_at_the_prior(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        assert derivative_value(spec, policy, [0.5, 0.5]) == 0.0

    def test_posterior_separable_is_the_divergence(self, binary_prior):
        spec = ic.PosteriorSeparable(ic.KLDivergence(binary_prior))
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        got = derivative_value(spec, policy, [0.25, 0.75])
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.130812, abs=5e-7)

    def test_transformed_weight_vanishes_at_no_information(self, binary_prior):
        spec = ic.Transformed(ic.KLDivergence(binary_prior), ic.PowerPsi(2.0))
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        assert derivative_value(spec, policy, [0.25, 0.75]) == 0.0

    def test_unsupported_variants_rejected(self, binary_prior):
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        quad = ic.Quadratic(binary_prior, lambda a, b: float(a @ b), declared_psd=True)
        with pytest.raises(ic.InvalidInputError):
            derivative_value(quad, policy, [0.5, 0.5])
        env = ic.MaxOverSet([ic.KLDivergence(binary_prior)])
        with pytest.raises(ic.InvalidInputError):
            derivative_value(env, policy, [0.5, 0.5])


class TestCostGradient:
    def test_zero_at_the_prior(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        g = cost_gradient(spec, policy, np.array([0.5, 0.5]))
        assert np.abs(g).max() == 0.0

    def test_log_likelihood_ratio_form(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        g = cost_gradient(spec, policy, np.array([0.731059, 0.268941]))
        assert g == pytest.approx(
            [math.log(2 * 0.731059), math.log(2 * 0.268941)], abs=1e-12
        )
        assert g == pytest.approx([0.379885, -0.620115], abs=5e-6)

    def test_boundary_belief_rejected_under_kl(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy.uninformative(binary_prior)
        with pytest.raises(ic.InvalidInputError, match="boundary"):
            cost_gradient(spec, policy, np.array([1.0, 0.0]))

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
        mu = ic.Belief(mu / mu.sum()).weights
        d = rng.normal(size=3)
        d -= d.mean()
        d /= np.abs(d).max()
        for spec in specs:
            ana = float(cost_gradient(spec, policy, mu) @ d)

            def one_sided(eps):
                shifted = ic.Belief(mu + eps * d).weights
                return (derivative_value(spec, policy, shifted)
                        - derivative_value(spec, policy, mu)) / eps

            d1, d2, d3 = one_sided(1e-4), one_sided(1e-5), one_sided(1e-6)
            r12 = (10 * d2 - d1) / 9
            r23 = (10 * d3 - d2) / 9
            richardson = (100 * r23 - r12) / 99
            assert abs(richardson - ana) < 1e-6 * max(1.0, abs(ana))


def belief_gradients(spec, policy):
    """The divergence gradients of the derivative cost at every belief of
    the policy: ``derivative_basis`` at the policy, then ``div.gradients``."""
    beliefs = policy.belief_matrix()
    div, _ = ic.derivative_basis(spec, beliefs, policy.weights)
    return div.gradients(beliefs)


class TestSmoothnessGate:
    def test_mutual_information_smooth_when_fully_mixed(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior,
            [[0.25, 0.75], [0.75, 0.25]],
            [0.5, 0.5],
        )
        assert np.isfinite(belief_gradients(spec, policy)).all()

    def test_degenerate_belief_blocks_kl(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        policy = ic.SimpleInfoPolicy(
            binary_prior, [[1, 0], [0, 1]], [0.5, 0.5]
        )
        assert not np.isfinite(belief_gradients(spec, policy)).all()

    def test_envelope_costs_are_kinked(self, binary_prior):
        spec = ic.MaxOverSet([
            ic.KLDivergence(binary_prior),
            ic.ChiSquareDivergence(binary_prior),
        ])
        with pytest.raises(UnsupportedCostError, match="does not expose a derivative"):
            belief_gradients(spec, ic.SimpleInfoPolicy.uninformative(binary_prior))

    def test_quadratic_costs_expose_no_derivative(self, binary_prior):
        spec = ic.Quadratic(binary_prior, lambda m, n: float(m @ n), declared_psd=True)
        with pytest.raises(UnsupportedCostError, match="does not expose a derivative"):
            belief_gradients(spec, ic.SimpleInfoPolicy.uninformative(binary_prior))

    def test_chi_square_stays_smooth_at_the_boundary(self, binary_prior):
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))
        policy = ic.SimpleInfoPolicy(
            binary_prior, [[1, 0], [0, 1]], [0.5, 0.5]
        )
        assert np.isfinite(belief_gradients(spec, policy)).all()

    def test_custom_divergence_without_oracle_names_it(self, binary_prior):
        mu0 = binary_prior.weights
        div = ic.CustomDivergence(binary_prior, lambda m: float(np.sum(m * m / mu0) - 1.0))
        policy = ic.SimpleInfoPolicy(
            binary_prior,
            [[0.25, 0.75], [0.75, 0.25]],
            [0.5, 0.5],
        )
        with pytest.raises(UnsupportedCostError, match="gradient oracle"):
            belief_gradients(ic.PosteriorSeparable(div), policy)


class TestOneSmoothForm:
    def test_every_smooth_cost_is_a_divergence_under_a_psi(self, binary_prior):
        kl = ic.KLDivergence(binary_prior)
        mi = ic.MutualInformation(binary_prior, 1.3)
        assert (mi.divergence, mi.psi) == (kl, ic.AffinePsi(1.3))
        ps = ic.PosteriorSeparable(kl)
        assert (ps.divergence, ps.psi) == (kl, ic.IdentityPsi())

    def test_affine_transform_needs_no_policy(self, binary_prior):
        chi = ic.ChiSquareDivergence(binary_prior)
        div, weight = ic.derivative_basis(ic.Transformed(chi, ic.AffinePsi(2.0, 1.0)))
        assert (div, weight) == (chi, 2.0)
        with pytest.raises(UnsupportedCostError, match="moves with the policy"):
            ic.derivative_basis(ic.Transformed(chi, ic.PowerPsi(2.0)))

    def test_affine_derivative_prices_no_belief(self, binary_prior):
        # the weight of an identity or affine psi is its slope: the map
        # computes no expected divergence, so the divergence is never called
        calls = []
        mu0 = binary_prior.weights

        def chi(m):
            calls.append(m)
            return float(np.sum(m * m / mu0) - 1.0)

        div = ic.CustomDivergence(binary_prior, chi)
        calls.clear()
        policy = ic.SimpleInfoPolicy(binary_prior, [[0.2, 0.8], [0.8, 0.2]], [0.5, 0.5])
        for psi in (ic.IdentityPsi(), ic.AffinePsi(2.0, 1.0)):
            ic.derivative_basis(ic.Transformed(div, psi), policy.belief_matrix(),
                                policy.weights)
        assert calls == []

    @pytest.mark.parametrize("a, b", [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                                      (1.0, math.nan), (1.0, -math.inf)])
    def test_affine_psi_refuses_a_slope_or_intercept_it_cannot_price(self, a, b):
        # the lattice oracle accepts affine costs, and its LP never ends on
        # a nan or infinite slope
        with pytest.raises(ic.InvalidInputError, match="^affine psi: "):
            ic.AffinePsi(a, b)

    @pytest.mark.parametrize("psi, bad", [(ic.PowerPsi, math.nan), (ic.PowerPsi, math.inf),
                                          (ic.ExpPsi, math.nan), (ic.ExpPsi, math.inf)])
    def test_power_and_exp_psi_refuse_a_non_finite_parameter(self, psi, bad):
        # a nan parameter prices every policy at nan, and the solvers then
        # end in a SolverError instead of refusing the input
        with pytest.raises(ic.InvalidInputError, match="must be finite"):
            psi(bad)

    @pytest.mark.parametrize("psi", [ic.PowerPsi(1.5), ic.PowerPsi(2.0), ic.PowerPsi(3.0),
                                     ic.ExpPsi(0.5), ic.ExpPsi(1.0), ic.ExpPsi(2.0)],
                             ids=repr)
    def test_conjugate_derivative_inverts_the_derivative(self, psi):
        # psi*' is the inverse of psi' above psi'(0) and 0 at and below it
        floor = psi.derivative(0.0)
        for w in floor + np.array([1e-6, 1e-3, 0.1, 1.0, 7.5, 1e3]):
            x = psi.conjugate_derivative(w)
            assert x > 0.0
            assert psi.derivative(x) == pytest.approx(w, rel=1e-12)
        for w in (floor, 0.5 * floor, 0.0):
            assert psi.conjugate_derivative(w) == 0.0

    def test_conjugate_derivative_of_a_linear_power_psi(self):
        # psi' is 1 everywhere at exponent 1, so psi* is flat up to 1 and
        # infinite beyond it
        psi = ic.PowerPsi(1.0)
        assert psi.conjugate_derivative(0.5) == psi.conjugate_derivative(1.0) == 0.0
        assert psi.conjugate_derivative(1.0 + 1e-12) == math.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_spellings_of_one_cost_price_alike(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 3)
        policy = random_policy(rng, prior)
        kl = ic.KLDivergence(prior)
        assert ic.cost_eval(ic.MutualInformation(prior, 0.7), policy) == \
            ic.cost_eval(ic.Transformed(kl, ic.AffinePsi(0.7)), policy)
        assert ic.cost_eval(ic.PosteriorSeparable(kl), policy) == \
            ic.cost_eval(ic.Transformed(kl, ic.IdentityPsi()), policy)


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
        beliefs += [ic.Belief(b.weights + delta).weights,
                    ic.Belief(b.weights - delta).weights]
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
    mu = ic.Belief(rng.dirichlet(np.full(4, 5.0))).weights
    specs = [
        ic.MutualInformation(prior, 2.0),
        ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
        ic.Transformed(ic.KLDivergence(prior), ic.AffinePsi(1.5, 0.2)),
    ]
    for spec in specs:
        g = cost_gradient(spec, policy, mu)
        assert float(g @ mu) == pytest.approx(derivative_value(spec, policy, mu), abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_transformed_chain_rule(seed):
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 3)
    policy = random_policy(rng, prior)
    mu = ic.Belief(rng.dirichlet(np.full(3, 5.0))).weights
    div = ic.KLDivergence(prior)
    psi = ic.PowerPsi(3.0)
    spec = ic.Transformed(div, psi)
    inner_expect = sum(
        w * div.value(b.weights) for w, b in zip(policy.weights, policy.beliefs)
    )
    inner_spec = ic.PosteriorSeparable(div)
    expected = psi.derivative(inner_expect) * derivative_value(inner_spec, policy, mu)
    assert derivative_value(spec, policy, mu) == pytest.approx(expected, abs=1e-10)


def test_custom_divergence_convexity_screen(binary_prior):
    ic.CustomDivergence(binary_prior, lambda m: float(m @ m))  # convex: fine
    with pytest.raises(ic.InvalidInputError, match="convexity"):
        ic.CustomDivergence(binary_prior, lambda m: -float(m @ m))


def kl_conjugate_by_hand(mu0, v, weight):
    """One row's KL conjugate maximum: a weighted log-sum-exp."""
    if weight <= 0.0:
        return float(np.max(v))
    m = np.max(v)
    with np.errstate(over="ignore"):
        z = (v - m) / weight
    return float(m + weight * np.log(np.sum(mu0 * np.exp(z))))


def chi_square_conjugate_by_hand(mu0, v, weight):
    """One row's chi-square conjugate maximum, by water-filling with a loop
    over the sorted entries."""
    if weight <= 0.0:
        return float(np.max(v))
    order = np.argsort(v)[::-1]
    vs, ms = v[order], mu0[order]
    target = 2.0 * weight
    cum_m, cum_mv = np.cumsum(ms), np.cumsum(ms * vs)
    rho = (cum_mv[-1] - target) / cum_m[-1]
    for k in range(len(vs)):
        r = (cum_mv[k] - target) / cum_m[k]
        lower = vs[k + 1] if k + 1 < len(vs) else -np.inf
        if lower <= r <= vs[k]:
            rho = r
            break
    mu = np.clip(mu0 * (v - rho) / target, 0.0, None)
    mu = mu / mu.sum()
    return float(v @ mu - weight * (np.sum(mu * mu / mu0) - 1.0))


class TestConjugateMaxima:
    """The entry-margin engine: max over beliefs of <v_b, mu> - w c(mu) for
    every row v_b of a matrix, checked against one-row closed forms and
    brute-force grid maximization."""

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
        v = rng.normal(0.0, 2.0, size=(3, n))
        w = float(rng.uniform(0.2, 3.0))
        exact = div.conjugate_max(v, w)
        assert exact.shape == (3,)
        for row, value in zip(v, exact):
            grid = self._grid_max(div, row, w)
            assert value >= grid - 1e-9
            if n == 2:
                assert value <= grid + 1e-4  # grid spacing error only

    @pytest.mark.parametrize("seed", range(10))
    def test_kl_log_sum_exp_matches_binary_grid(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 2)
        div = ic.KLDivergence(prior)
        v = rng.normal(0.0, 2.0, size=(3, 2))
        w = float(rng.uniform(0.2, 3.0))
        exact = div.conjugate_max(v, w)
        assert exact.shape == (3,)
        for row, value in zip(v, exact):
            grid = self._grid_max(div, row, w)
            assert grid - 1e-9 <= value <= grid + 1e-4

    def test_zero_weight_degenerates_to_the_max(self, binary_prior):
        v = np.array([[0.3, -1.0], [-2.0, -0.5]])
        for div in (ic.ChiSquareDivergence(binary_prior), ic.KLDivergence(binary_prior)):
            assert div.conjugate_max(v, 0.0).tolist() == [0.3, -0.5]

    def test_custom_divergence_conjugate_is_consistent(self, binary_prior):
        div = ic.CustomDivergence(binary_prior, lambda m: float(m @ m) - 0.5,
                                  grad=lambda m: 2.0 * m)
        v = np.array([[1.0, -0.5], [-0.25, 0.75]])
        exact = div.conjugate_max(v, 1.0)
        assert exact.shape == (2,)
        for row, value in zip(v, exact):
            assert abs(value - self._grid_max(div, row, 1.0)) < 1e-4
        # one row alone gives the same margin as in the stack
        assert div.conjugate_max(v[1:], 1.0)[0] == exact[1]

    @pytest.mark.parametrize("seed", range(40))
    def test_stacked_rows_match_the_one_row_forms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        prior = random_prior(rng, n)
        v = rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])),
                       size=(int(rng.integers(1, 6)), n))
        if seed % 4 == 0:
            v = np.round(v, 1)  # ties
        w = float(10.0 ** rng.uniform(-3.0, 1.0))
        for div, by_hand in ((ic.KLDivergence(prior), kl_conjugate_by_hand),
                             (ic.ChiSquareDivergence(prior),
                              chi_square_conjugate_by_hand)):
            # the same arithmetic row by row, so the same bits
            want = [by_hand(prior.weights, row, w) for row in v]
            np.testing.assert_array_equal(div.conjugate_max(v, w), want)

    def test_kl_exponent_below_float64_is_an_exact_zero(self):
        prior = ic.Prior(["a", "b", "c"], [0.2, 0.3, 0.5])
        div = ic.KLDivergence(prior)
        # (v - max v) / weight is -inf in the last two entries of row 0
        v = np.array([[1.0, -1e306, -1e307], [0.5, 0.25, 0.0]])
        with np.errstate(all="raise"):
            got = div.conjugate_max(v, 1e-3)
        assert got[0] == 1.0 + 1e-3 * np.log(0.2)
        assert got[1] == kl_conjugate_by_hand(prior.weights, v[1], 1e-3)

    def test_chi_square_ties_match_the_grid(self):
        prior = ic.Prior(["a", "b", "c"], [0.2, 0.3, 0.5])
        div = ic.ChiSquareDivergence(prior)
        v = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 2.0], [0.0, 1.0, 1.0],
                      [-1.0, 3.0, -1.0]])
        got = div.conjugate_max(v, 0.7)
        for row, value in zip(v, got):
            assert value == chi_square_conjugate_by_hand(prior.weights, row, 0.7)
            assert value >= self._grid_max(div, row, 0.7) - 1e-9
        # equal payoffs everywhere: the prior is optimal and c(prior) = 0
        assert got[1] == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("weight", [1e-17, 1e-20])
    def test_chi_square_weight_too_small_to_fill_takes_the_top_vertex(self, binary_prior,
                                                                      weight):
        # the water level rounds onto the top entry and fills nothing; the
        # maximizer is the weight-0 one, the vertex on the top entry, or the
        # prior over tied top entries
        div = ic.ChiSquareDivergence(binary_prior)
        got = div.conjugate_max(np.array([[0.0, 1.0], [1.0, 1.0]]), weight)
        assert got[0] == pytest.approx(1.0 - weight * div.value(np.array([0.0, 1.0])),
                                       abs=1e-15)
        assert got[1] == 1.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chi_square_water_level_at_each_breakpoint(self, n):
        # row k is scaled so the water level falls exactly on its (k+1)-th
        # largest entry, so the top k entries carry all the mass
        rng = np.random.default_rng(n)
        prior = random_prior(rng, n)
        mu0, w = prior.weights, 0.4
        x = np.sort(rng.normal(0.0, 1.0, size=n))[::-1]
        rows = []
        for k in range(1, n):
            spread = float(mu0[:k] @ (x[:k] - x[k]))
            rows.append(x * (2.0 * w / spread))
        v = np.array(rows)
        div = ic.ChiSquareDivergence(prior)
        got = div.conjugate_max(v, w)
        for k, (row, value) in enumerate(zip(v, got), start=1):
            rho = row[k]
            # stationarity gives the closed form rho + w + sum mu0 (v - rho)^2 / 4w
            want = rho + w + float(mu0[:k] @ (row[:k] - rho) ** 2) / (4.0 * w)
            assert value == pytest.approx(want, abs=1e-12)
            assert value == chi_square_conjugate_by_hand(mu0, row, w)
            assert value >= self._grid_max(div, row, w) - 1e-9


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


class TestConjugateArgmax:
    """``conjugate_argmax``, the maximizer the dual solver's Newton steps are
    built from, against ``conjugate_max`` and finite differences."""

    @pytest.mark.parametrize("n_states", range(1, 7))
    def test_argmax_is_the_gradient_and_its_derivative_matches(self, n_states):
        # the maximizer of <v, mu> - c(mu) is the gradient of the conjugate,
        # and diag(d) - b b^T is its own derivative in v
        rng = np.random.default_rng(n_states)
        prior = random_prior(rng, n_states)
        h = 1e-6
        for div in (ic.KLDivergence(prior), ic.ChiSquareDivergence(prior)):
            v = 3.0 * rng.normal(size=(5, n_states))
            mu, d, b = div.conjugate_argmax(v)
            assert np.abs(mu.sum(axis=1) - 1.0).max() < 1e-14 and mu.min() >= 0.0
            steps = h * np.eye(n_states)
            for row, m, dr, br in zip(v, mu, d, b):
                up, down = row + steps, row - steps
                grad = (div.conjugate_max(up, 1.0) - div.conjugate_max(down, 1.0)) / (2 * h)
                assert np.abs(grad - m).max() < 1e-7
                jac = (div.conjugate_argmax(up)[0] - div.conjugate_argmax(down)[0]) / (2 * h)
                assert np.abs(jac.T - (np.diag(dr) - np.outer(br, br))).max() < 1e-6

    def test_kl_argmax_keeps_an_underflowed_coordinate_at_zero(self, binary_prior):
        mu, d, b = ic.KLDivergence(binary_prior).conjugate_argmax(np.array([[0.0, -1e4]]))
        assert mu.tolist() == [[1.0, 0.0]] and d.tolist() == b.tolist() == mu.tolist()

    def test_chi_square_argmax_is_zero_off_its_support(self, binary_prior):
        # water-filling puts no mass where v is more than 2 / mu0 below the top
        mu, d, b = ic.ChiSquareDivergence(binary_prior).conjugate_argmax(
            np.array([[0.0, -5.0]]))
        assert mu.tolist() == [[1.0, 0.0]] and d[0, 1] == b[0, 1] == 0.0

    def test_custom_divergence_cannot_be_solved(self, binary_prior, sym2_menu):
        div = ic.CustomDivergence(binary_prior, lambda m: float(m @ m) - 0.5,
                                  grad=lambda m: 2.0 * m)
        with pytest.raises(UnsupportedCostError, match="no conjugate argmax"):
            ic.solve_ps(sym2_menu, binary_prior, ic.PosteriorSeparable(div))
