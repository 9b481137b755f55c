import math

import numpy as np
import pytest

import infochoice as ic
from conftest import (anchored_menu, conditionally_full, random_menu, random_prior,
                      random_scr)
from infochoice.costs import UnsupportedCostError

E_RATIO = math.e / (1.0 + math.e)


def perturb(scr, a=0, w=0, eps=0.05):
    probs = scr.probs.copy()
    probs[a, w] += eps
    probs[:, w] /= probs[:, w].sum()
    return ic.SCR(probs)


class TestCertify:
    def test_sym2_solution_is_optimal_with_zero_gamma(self, binary_prior, sym2_menu,
                                                      sym2_solution):
        spec = ic.MutualInformation(binary_prior, 1.0)
        cert = ic.certify(sym2_solution.scr, sym2_menu, binary_prior, spec)
        assert cert.verdict == "optimal"
        assert cert.residual < 1e-8
        assert np.abs(cert.gamma).max() < 1e-10

    def test_perturbed_solution_fails(self, binary_prior, sym2_menu, sym2_solution):
        spec = ic.MutualInformation(binary_prior, 1.0)
        cert = ic.certify(perturb(sym2_solution.scr), sym2_menu, binary_prior, spec)
        assert cert.verdict == "not-optimal"
        assert cert.residual > 1e-8

    def test_dominant_corner_certifies_through_entry(self, binary_prior):
        menu = ic.Menu(["1", "0"], [[2.0, 2.0], [0.0, 0.0]])
        scr = ic.SCR([[1.0, 1.0], [0.0, 0.0]])
        spec = ic.MutualInformation(binary_prior, 1.0)
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "optimal"
        assert cert.entry_margins[1] == pytest.approx(-2.0, abs=1e-12)

    def test_wrong_corner_fails_through_entry(self, binary_prior):
        menu = ic.Menu(["1", "0"], [[2.0, 2.0], [2.5, 2.5]])
        scr = ic.SCR([[1.0, 1.0], [0.0, 0.0]])
        spec = ic.MutualInformation(binary_prior, 1.0)
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "not-optimal"
        assert cert.entry_margins[1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("weight", [1e-17, 1e-20])
    @pytest.mark.parametrize("div", [ic.ChiSquareDivergence, ic.KLDivergence])
    def test_a_tiny_weight_prices_the_unused_action_near_its_payoff(self, binary_prior,
                                                                   div, weight):
        # always a0 under the identity utilities: a1's entry margin is about
        # its payoff 1 at any tiny weight, never a nan that reads as optimal
        menu = ic.Menu(["a0", "a1"], [[1.0, 0.0], [0.0, 1.0]])
        scr = ic.SCR([[1.0, 1.0], [0.0, 0.0]])
        spec = ic.Transformed(div(binary_prior), ic.AffinePsi(weight))
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "not-optimal"
        assert cert.residual == pytest.approx(1.0, abs=1e-12)

    def test_a_nan_entry_margin_is_not_optimal(self, binary_prior, monkeypatch):
        # the dominant corner certifies through a negative margin, but a nan
        # margin says nothing about the excluded action
        monkeypatch.setattr(ic.ChiSquareDivergence, "conjugate_max",
                            lambda self, v, weight: np.full(len(v), np.nan))
        menu = ic.Menu(["1", "0"], [[2.0, 2.0], [0.0, 0.0]])
        scr = ic.SCR([[1.0, 1.0], [0.0, 0.0]])
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "not-optimal" and np.isnan(cert.residual)

    def test_boundary_posterior_is_priced_by_its_conjugate_under_kl(self, binary_prior):
        # a supported row with an unbounded KL slope joins the entry margins:
        # lambda comes from the finite slopes, 1 - log 2 in each state, and
        # each row's margin log(1 + e^-1) is the whole duality gap
        menu = ic.Menu(["1", "0"], [[1.0, 0.0], [0.0, 1.0]])
        scr = ic.SCR([[1.0, 0.0], [0.0, 1.0]])  # fully revealing
        spec = ic.MutualInformation(binary_prior, 1.0)
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "not-optimal"
        assert cert.lambda_ == pytest.approx([1.0 - math.log(2.0)] * 2, abs=1e-15)
        margin = math.log(1.0 + math.exp(-1.0))
        assert cert.entry_margins == pytest.approx({0: margin, 1: margin}, abs=1e-15)
        assert cert.residual == pytest.approx(margin, abs=1e-15)

    def test_one_conjugate_call_prices_every_unsupported_row(self, monkeypatch):
        rng = np.random.default_rng(6)
        prior = random_prior(rng, 4)
        probs = np.zeros((6, 4))
        probs[:4] = rng.dirichlet(np.ones(4), size=4).T
        scr = ic.SCR(probs)
        div = ic.ChiSquareDivergence(prior)
        spec = ic.PosteriorSeparable(div)
        u = ic.rationalize(scr, prior, spec).utilities.copy()
        u[4:] = rng.normal(0.0, 1.0, size=(2, 4))
        menu = ic.Menu([str(a) for a in range(6)], u)
        shapes = []
        conjugate = ic.ChiSquareDivergence.conjugate_max

        def counted(self, v, weight):
            shapes.append(v.shape)
            return conjugate(self, v, weight)

        monkeypatch.setattr(ic.ChiSquareDivergence, "conjugate_max", counted)
        cert = ic.certify(scr, menu, prior, spec)
        assert shapes == [(2, 4)]
        assert sorted(cert.entry_margins) == [4, 5]
        for b in (4, 5):
            alone = conjugate(div, (u[b] - cert.lambda_)[None, :], 1.0)[0]
            assert cert.entry_margins[b] == alone
        assert cert.residual == max(cert.entry_margins.values())
        # a rule with no unsupported row makes no conjugate call
        shapes.clear()
        ic.certify(ic.SCR(probs[:4]), ic.Menu(list("abcd"), u[:4]), prior, spec)
        assert shapes == []

    def test_custom_divergence_without_gradient_is_inconclusive(self, binary_prior,
                                                                sym2_menu):
        div = ic.CustomDivergence(binary_prior, lambda m: float(m @ m) - 0.5)
        spec = ic.PosteriorSeparable(div)
        scr = ic.SCR([[0.7, 0.3], [0.3, 0.7]])
        cert = ic.certify(scr, sym2_menu, binary_prior, spec)
        assert cert.verdict == "inconclusive"
        assert cert.message == "custom divergence has no gradient oracle"
        assert cert.residual == np.inf and np.isnan(cert.lambda_).all()
        with pytest.raises(ic.InvalidInputError, match=r"^input rule is not certified "
                           r"optimal \(verdict inconclusive\)$"):
            ic.find_equivalent(scr, sym2_menu, binary_prior, spec)

    def test_certificate_serializes(self, binary_prior, sym2_menu, sym2_solution):
        spec = ic.MutualInformation(binary_prior, 1.0)
        cert = ic.certify(sym2_solution.scr, sym2_menu, binary_prior, spec)
        data = cert.to_dict()
        assert set(data) >= {"lambda", "gamma", "residual", "verdict"}

    @pytest.mark.parametrize("seed", range(25))
    def test_solve_then_certify_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n_a, n_s = rng.integers(2, 6), rng.integers(2, 6)
        prior = random_prior(rng, n_s)
        menu = random_menu(rng, n_a, n_s)
        spec = ic.MutualInformation(prior, 1.0)
        res = ic.solve_mi(menu, prior, 1.0)
        cert = ic.certify(res.scr, menu, prior, spec)
        assert cert.verdict == "optimal"
        assert cert.residual < 1e-8
        assert np.asarray(cert.gamma).min() > -1e-12


class TestRecoverUtility:
    def test_uninformative_rule_reveals_nothing(self, binary_prior):
        scr = ic.SCR([[0.4, 0.4], [0.6, 0.6]])
        spec = ic.MutualInformation(binary_prior, 1.0)
        rec = ic.recover_utility(scr, binary_prior, spec)
        assert np.abs(rec.base).max() < 1e-12

    def test_sym2_inversion(self, binary_prior, sym2_menu, sym2_solution):
        spec = ic.MutualInformation(binary_prior, 1.0)
        rec = ic.recover_utility(sym2_solution.scr, binary_prior, spec)
        top = math.log(2 * E_RATIO)
        assert rec.base[0] == pytest.approx([top, math.log(2 * (1 - E_RATIO))],
                                            abs=1e-9)
        shifts = sym2_menu.utilities - rec.base
        # both actions are shifted by the same per-state nuisance
        assert np.abs(shifts[0] - shifts[1]).max() < 1e-9
        assert shifts[0] == pytest.approx([1 - top, 1 - top], abs=1e-9)

    def test_round_trip_identifies_up_to_state_shift(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 20:
            n_a, n_s = rng.integers(2, 5), rng.integers(2, 5)
            prior = random_prior(rng, n_s)
            menu = random_menu(rng, n_a, n_s)
            res = ic.solve_mi(menu, prior, 1.0)
            if not conditionally_full(res.scr, prior):
                continue
            spec = ic.MutualInformation(prior, 1.0)
            rec = ic.recover_utility(res.scr, prior, spec)
            shifts = menu.utilities - rec.base
            spread = (shifts.max(axis=0) - shifts.min(axis=0)).max()
            assert spread < 1e-6
            done += 1

    def test_rejects_vanishing_actions(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        with pytest.raises(ic.InvalidInputError):
            ic.recover_utility(ic.SCR([[1.0, 1.0], [0.0, 0.0]]), binary_prior, spec)


class TestUniqueCheck:
    def test_independent_rows_are_unique_capable(self, binary_prior):
        scr = ic.SCR([[0.25, 0.75], [0.75, 0.25]])
        report = ic.unique_check(scr, binary_prior)
        assert report.unique_capable
        assert report.rank == 2

    def test_proportional_rows_are_not(self, binary_prior):
        scr = ic.SCR([[0.5, 0.5], [0.5, 0.5]])
        report = ic.unique_check(scr, binary_prior)
        assert not report.unique_capable
        assert report.rank == 1

    def test_more_actions_than_states_is_never_unique_capable(self, binary_prior):
        rng = np.random.default_rng(0)
        for _ in range(10):
            scr = random_scr(rng, 3, 2)
            assert not ic.unique_check(scr, binary_prior).unique_capable

    def test_rank_matches_explicit_affine_independence(self):
        rng = np.random.default_rng(424242)

        def rules():
            # the third action's marginal, 1.3e-10, is below the support
            # cutoff, so reveal excludes it though its row is not zero
            t = 1e-10
            yield (ic.Prior(["x", "y", "z"], [0.3, 0.3, 0.4]),
                   ic.SCR([[0.7, 0.2, 0.1], [0.3 - t, 0.8 - 2 * t, 0.9 - t],
                           [t, 2 * t, t]]))
            for _ in range(500):
                n_a, n_s = rng.integers(2, 6), rng.integers(2, 6)
                yield random_prior(rng, n_s), random_scr(rng, n_a, n_s)

        for prior, scr in rules():
            n_a = scr.n_actions
            report = ic.unique_check(scr, prior)
            rp = ic.reveal(scr, prior)
            if len(rp.included) < n_a:
                assert not report.unique_capable
                continue
            hom = np.vstack([
                np.stack([rp.posteriors[a].weights for a in rp.included]).T,
                np.ones(n_a),
            ])
            svals = np.linalg.svd(hom, compute_uv=False)
            affinely_independent = svals.min() > svals.max() * 1e-9
            assert report.unique_capable == affinely_independent


class TestFindEquivalent:
    def test_free_family_under_constant_utility(self, binary_prior):
        menu = ic.Menu(["a", "b"], np.zeros((2, 2)))
        scr = ic.SCR([[0.5, 0.5], [0.5, 0.5]])
        spec = ic.MutualInformation(binary_prior, 1.0)
        alt = ic.find_equivalent(scr, menu, binary_prior, spec)
        assert alt is not None
        assert np.abs(alt.probs - scr.probs).max() > 1e-3
        base = float(binary_prior.weights @ (menu.utilities * scr.probs).sum(axis=0)) \
            - ic.kappa(spec, scr, binary_prior)
        new = float(binary_prior.weights @ (menu.utilities * alt.probs).sum(axis=0)) \
            - ic.kappa(spec, alt, binary_prior)
        assert abs(new - base) < 1e-10

    def test_unique_capable_solution_has_no_twin(self, binary_prior, sym2_menu,
                                                 sym2_solution):
        spec = ic.MutualInformation(binary_prior, 1.0)
        assert ic.find_equivalent(sym2_solution.scr, sym2_menu, binary_prior,
                                  spec) is None

    @pytest.mark.parametrize("kind", ["mi", "chi"])
    @pytest.mark.parametrize("posts, weights", [
        ([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]], [0.25, 0.5, 0.25]),
        ([[0.3, 0.7], [0.3, 0.7], [0.8, 0.2]], [0.2, 0.4, 0.4]),
        ([[0.3, 0.7], [0.3, 0.7], [0.8, 0.2], [0.5, 0.5]], [0.2, 0.4, 0.4, 0.0]),
    ], ids=["distinct", "duplicate", "duplicate-excluded"])
    def test_collinear_posteriors_admit_an_equal_value_twin(self, binary_prior, posts,
                                                            weights, kind):
        # three supported actions on a binary state space: revealed
        # posteriors are necessarily affinely dependent; two equal
        # posteriors, next to a distinct one or an action the rule never
        # takes, are the simplest dependence
        weights = np.array(weights)
        probs = weights[:, None] * np.array(posts) / binary_prior.weights[None, :]
        scr = ic.SCR(probs)
        spec = (ic.MutualInformation(binary_prior, 1.0) if kind == "mi" else
                ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior)))
        labels = tuple(f"a{k}" for k in range(len(weights)))
        menu = ic.rationalize(scr, binary_prior, spec, actions=labels)
        assert ic.certify(scr, menu, binary_prior, spec).verdict == "optimal"
        alt = ic.find_equivalent(scr, menu, binary_prior, spec)
        assert alt is not None
        assert np.abs(alt.probs - scr.probs).max() > 1e-6
        base = float(binary_prior.weights @ (menu.utilities * scr.probs).sum(axis=0)) \
            - ic.kappa(spec, scr, binary_prior)
        new = float(binary_prior.weights @ (menu.utilities * alt.probs).sum(axis=0)) \
            - ic.kappa(spec, alt, binary_prior)
        assert abs(new - base) < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_twin_does_not_depend_on_the_action_order(self, seed):
        # n_s + 1 distinct posteriors in n_s states have one affine
        # dependence, which fixes the twin up to the sign of its null
        # vector; the sign is fixed by the data, so relabelling the actions
        # relabels the twin
        rng = np.random.default_rng([seed, 31])
        n_s = int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        spec = (ic.MutualInformation(prior, 1.0) if seed % 2 else
                ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)))
        scr = random_scr(rng, n_s + 1, n_s)
        post = ic.reveal(scr, prior).policy().belief_matrix()
        gaps = np.abs(post[:, None] - post[None]).max(axis=2)
        assert gaps[np.triu_indices(n_s + 1, 1)].min() > 1e-6  # distinct posteriors
        labels = tuple(f"a{k}" for k in range(n_s + 1))
        menu = ic.rationalize(scr, prior, spec, actions=labels)
        twin = ic.find_equivalent(scr, menu, prior, spec)
        assert twin is not None
        perm = rng.permutation(n_s + 1)
        moved = ic.find_equivalent(
            ic.SCR(scr.probs[perm]),
            ic.Menu([labels[k] for k in perm], menu.utilities[perm]), prior, spec)
        back = np.empty_like(moved.probs)
        back[perm] = moved.probs
        assert np.abs(back - twin.probs).max() <= 1e-12

    @pytest.mark.parametrize("div, a, b", [("kl", 1.0, 0.0), ("kl", 0.7, 0.3),
                                           ("chi", 1.0, 0.0), ("chi", 1.0, -0.2)])
    def test_transformed_spellings_find_the_plain_twin(self, binary_prior, div, a, b):
        # an identity or affine psi with slope a has the derivative cost of
        # the plain spelling at weight a, so the same twin
        d = (ic.KLDivergence if div == "kl" else ic.ChiSquareDivergence)(binary_prior)
        plain = (ic.PosteriorSeparable(d) if a == 1.0
                 else ic.MutualInformation(binary_prior, a))
        probs = np.array([[0.2, 0.4, 0.4]]).T * [[0.3, 0.7], [0.3, 0.7], [0.8, 0.2]] \
            / binary_prior.weights
        scr = ic.SCR(probs)
        menu = ic.rationalize(scr, binary_prior, plain, actions=("a0", "a1", "a2"))
        want = ic.find_equivalent(scr, menu, binary_prior, plain)
        assert want is not None
        psis = [ic.AffinePsi(a, b)] + ([ic.IdentityPsi()] if (a, b) == (1.0, 0.0) else [])
        for psi in psis:
            got = ic.find_equivalent(scr, menu, binary_prior, ic.Transformed(d, psi))
            assert np.array_equal(got.probs, want.probs)

    def test_refuses_a_cost_whose_derivative_moves_with_the_policy(self, binary_prior,
                                                                   sym2_menu,
                                                                   sym2_solution):
        spec = ic.Transformed(ic.KLDivergence(binary_prior), ic.PowerPsi(2.0))
        with pytest.raises(UnsupportedCostError, match="moves with the policy"):
            ic.find_equivalent(sym2_solution.scr, sym2_menu, binary_prior, spec)

    def test_requires_certified_optimality(self, binary_prior, sym2_menu):
        spec = ic.MutualInformation(binary_prior, 1.0)
        bad = ic.SCR([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ic.InvalidInputError, match="not certified optimal"):
            ic.find_equivalent(bad, sym2_menu, binary_prior, spec)


class TestRationalize:
    def test_interior_rule_certifies_under_mi(self, binary_prior):
        rng = np.random.default_rng(5)
        spec = ic.MutualInformation(binary_prior, 1.0)
        for _ in range(10):
            cols = rng.dirichlet(np.ones(3), size=2)
            scr = ic.SCR(cols.T)
            menu = ic.rationalize(scr, binary_prior, spec)
            cert = ic.certify(scr, menu, binary_prior, spec)
            assert cert.verdict == "optimal"

    def test_uninformative_rule_gets_zero_utility(self, binary_prior):
        scr = ic.SCR([[0.6, 0.6], [0.4, 0.4]])
        spec = ic.MutualInformation(binary_prior, 1.0)
        menu = ic.rationalize(scr, binary_prior, spec)
        assert np.abs(menu.utilities).max() < 1e-12

    def test_zero_probability_region_is_rejected_under_mi(self, binary_prior):
        # supported action vanishing on a positive-prior state, or putting
        # 1e-320 there, below float64's normal range: the cost's unbounded
        # slope toward no information rules it out, and recovery and
        # forecasts refuse it too (a zero entry with their own message)
        spec = ic.MutualInformation(binary_prior, 1.0)
        menu = ic.Menu(["a", "b"], np.eye(2))
        for probs, recovery in [
                ([[1.0, 0.5], [0.0, 0.5]], "utility recovery needs conditionally full"),
                ([[1.0 - 1e-320, 0.3], [1e-320, 0.7]], "not rationalizable")]:
            scr = ic.SCR(probs)
            with pytest.raises(ic.InvalidInputError, match="not rationalizable"):
                ic.rationalize(scr, binary_prior, spec)
            with pytest.raises(ic.InvalidInputError, match=recovery):
                ic.recover_utility(scr, binary_prior, spec)
            with pytest.raises(ic.InvalidInputError, match=recovery):
                ic.predict_submenus(scr, menu, binary_prior, spec)

    def test_unused_action_gets_a_flat_row_that_certifies(self, binary_prior):
        scr = ic.SCR([[0.3, 0.7], [0.7, 0.3], [0.0, 0.0]])
        spec = ic.MutualInformation(binary_prior, 1.0)
        menu = ic.rationalize(scr, binary_prior, spec)
        assert np.ptp(menu.utilities[2]) == 0.0
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "optimal"

    def test_chi_square_accepts_boundary_posteriors(self, binary_prior):
        scr = ic.SCR([[1.0, 0.5], [0.0, 0.5]])
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))
        menu = ic.rationalize(scr, binary_prior, spec)
        cert = ic.certify(scr, menu, binary_prior, spec)
        assert cert.verdict == "optimal"


class TestDualities:
    def test_rationalize_certify_duality_on_random_interior_rules(self):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            n_a, n_s = rng.integers(2, 5), rng.integers(2, 5)
            prior = random_prior(rng, n_s)
            cols = 0.05 / n_a + 0.95 * rng.dirichlet(np.ones(n_a), size=n_s)
            scr = ic.SCR((cols / cols.sum(axis=1, keepdims=True)).T)
            for spec in (ic.MutualInformation(prior, 1.0),
                         ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))):
                menu = ic.rationalize(scr, prior, spec)
                cert = ic.certify(scr, menu, prior, spec)
                assert cert.verdict == "optimal", spec

    @pytest.mark.parametrize("seed", range(10))
    def test_all_rationalizing_utilities_differ_by_a_state_term(self, seed):
        rng = np.random.default_rng(seed)
        prior = random_prior(rng, 3)
        menu = anchored_menu(rng, 3, 3)
        res = ic.solve_mi(menu, prior, 1.0)
        if not conditionally_full(res.scr, prior):
            pytest.skip("corner optimum")
        spec = ic.MutualInformation(prior, 1.0)
        u_direct = ic.rationalize(res.scr, prior, spec).utilities
        diff = menu.utilities - u_direct
        assert (diff.max(axis=0) - diff.min(axis=0)).max() < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_agrees_with_the_lattice_oracle(self, seed):
        rng = np.random.default_rng(seed)
        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        menu = random_menu(rng, 3, 2)
        spec = ic.MutualInformation(prior, 1.0)
        res = ic.solve_mi(menu, prior, 1.0)
        oracle = ic.grid_oracle(menu, prior, spec, 400)
        assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"
        assert res.value >= oracle.value - 1e-6
        bad = perturb(res.scr, eps=0.2)
        bad_value = float(prior.weights @ (menu.utilities * bad.probs).sum(axis=0)) \
            - ic.kappa(spec, bad, prior)
        cert = ic.certify(bad, menu, prior, spec)
        if cert.verdict == "not-optimal":
            assert bad_value <= oracle.value + 2e-2
