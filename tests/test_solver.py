import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog

import infochoice as ic
from conftest import anchored_menu, random_menu, random_prior
from infochoice import solver

E_RATIO = math.e / (1.0 + math.e)


class TestSolveMI:
    def test_sym2_closed_form(self, binary_prior, sym2_menu):
        res = ic.solve_mi(sym2_menu, binary_prior, 1.0)
        assert res.scr.probs[0, 0] == pytest.approx(E_RATIO, abs=1e-10)
        assert res.scr.probs[0, 1] == pytest.approx(1.0 - E_RATIO, abs=1e-10)
        marginals = ic.reveal(res.scr, binary_prior).marginals
        assert marginals[0] == pytest.approx(0.5, abs=1e-10)

    def test_constant_utility_breaks_ties_uniformly(self, binary_prior):
        menu = ic.Menu(["a", "b", "c"], np.ones((3, 2)))
        res = ic.solve_mi(menu, binary_prior, 1.0)
        assert np.abs(res.scr.probs - 1.0 / 3.0).max() < 1e-12
        assert ic.kappa(ic.MutualInformation(binary_prior), res.scr, binary_prior) \
            == pytest.approx(0.0, abs=1e-12)

    def test_dominant_action_corner(self, binary_prior):
        menu = ic.Menu(["1", "0"], [[2.0, 2.0], [0.0, 0.0]])
        res = ic.solve_mi(menu, binary_prior, 1.0)
        assert np.abs(res.scr.probs[0] - 1.0).max() < 1e-12
        assert res.value == pytest.approx(2.0, abs=1e-12)
        cert = ic.certify(res.scr, menu, binary_prior,
                          ic.MutualInformation(binary_prior, 1.0))
        assert cert.verdict == "optimal"
        # losing action enters only at payoff gap 0; here the margin is -2
        assert cert.entry_margins[1] == pytest.approx(-2.0, abs=1e-9)

    def test_logit_fixed_point_consistency(self, binary_prior):
        rng = np.random.default_rng(3)
        menu = random_menu(rng, 3, 2)
        res = ic.solve_mi(menu, binary_prior, 0.8)
        p = res.scr.probs @ binary_prior.weights
        expu = np.exp(menu.utilities / 0.8)
        logit = p[:, None] * expu / (p @ expu)[None, :]
        assert np.abs(logit - res.scr.probs).max() < 1e-9

    def test_objective_monotone_along_the_iteration(self, binary_prior):
        # replay the marginal fixed-point map and watch the objective
        rng = np.random.default_rng(7)
        menu = random_menu(rng, 3, 2)
        spec = ic.MutualInformation(binary_prior, 1.0)
        expu = np.exp(menu.utilities)
        p = np.full(3, 1.0 / 3.0)
        last = -np.inf
        for _ in range(200):
            s = p[:, None] * expu / (p @ expu)[None, :]
            scr = ic.SCR(s)
            benefit = float(binary_prior.weights @ (menu.utilities * s).sum(axis=0))
            obj = benefit - ic.kappa(spec, scr, binary_prior)
            assert obj >= last - 1e-12
            last = obj
            p = s @ binary_prior.weights

    def test_marginal_consistency_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_a, n_s = rng.integers(2, 6), rng.integers(2, 6)
            prior = random_prior(rng, n_s)
            menu = random_menu(rng, n_a, n_s)
            res = ic.solve_mi(menu, prior, 1.0)
            p = res.scr.probs @ prior.weights
            expu = np.exp(menu.utilities - menu.utilities.max(axis=0)[None, :])
            active = p > 0
            logit = p[active][:, None] * expu[active] / (p[active] @ expu[active])[None, :]
            assert np.abs(logit - res.scr.probs[active]).max() < 1e-9
            assert res.residual < 1e-8

    def test_value_recomputes_from_parts(self, binary_prior, sym2_menu):
        res = ic.solve_mi(sym2_menu, binary_prior, 1.0)
        benefit = float(binary_prior.weights
                        @ (sym2_menu.utilities * res.scr.probs).sum(axis=0))
        kap = ic.kappa(ic.MutualInformation(binary_prior), res.scr, binary_prior)
        assert res.value == pytest.approx(benefit - kap, abs=1e-10)

    def test_nonconvergence_raises_with_residual(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ic.SolverError):
            ic.solve_mi(menu, binary_prior, 1.0, ic.SolveOptions(max_iter=1))

    def test_rejects_nonpositive_scale(self, binary_prior, sym2_menu):
        with pytest.raises(ic.InvalidInputError):
            ic.solve_mi(sym2_menu, binary_prior, 0.0)

    def test_cheap_information_failure_reports_the_first_order_residual(self):
        # at scale 1e-4 the logit weights underflow to exact zeros, so a
        # supported posterior sits where the KL slope is unbounded: a failure
        # must say so (inf or nan), not report the vanished marginal gap
        rng = np.random.default_rng(0)
        for _ in range(15):
            menu = random_menu(rng, 3, 3)
            prior = random_prior(rng, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    res = ic.solve_mi(menu, prior, 1e-4, ic.SolveOptions(max_iter=3000))
                except ic.SolverError as exc:
                    assert not np.isfinite(exc.residual)
                    assert str(exc).endswith(f"(last residual {exc.residual})")
                    continue
            assert res.residual < 1e-10


class TestSolvePS:
    def test_kl_reproduces_mi_solver(self, binary_prior, sym2_menu):
        mi = ic.solve_mi(sym2_menu, binary_prior, 1.0)
        ps = ic.solve_ps(sym2_menu, binary_prior,
                         ic.PosteriorSeparable(ic.KLDivergence(binary_prior)))
        assert np.abs(mi.scr.probs - ps.scr.probs).max() < 1e-8
        assert mi.value == pytest.approx(ps.value, abs=1e-8)

    def test_identity_transform_matches_plain(self, binary_prior, sym2_menu):
        ps = ic.solve_ps(sym2_menu, binary_prior,
                         ic.PosteriorSeparable(ic.KLDivergence(binary_prior)))
        tr = ic.solve_ps(sym2_menu, binary_prior,
                         ic.Transformed(ic.KLDivergence(binary_prior),
                                        ic.AffinePsi(1.0, 0.0)))
        assert np.abs(ps.scr.probs - tr.scr.probs).max() < 1e-8

    def test_chi_square_interior_solution_certifies(self, binary_prior, sym2_menu):
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))
        res = ic.solve_ps(sym2_menu, binary_prior, spec)
        assert res.scr.has_conditionally_full_support()
        cert = ic.certify(res.scr, sym2_menu, binary_prior, spec)
        assert cert.verdict == "optimal"
        recovered = ic.recover_utility(res.scr, binary_prior, spec)
        shifts = sym2_menu.utilities - recovered.base
        assert np.abs(shifts[0] - shifts[1]).max() < 1e-6

    def test_chi_square_closed_form_on_sym2(self, binary_prior, sym2_menu):
        # interior stationarity equalizes utility minus gradient across
        # actions; by symmetry that pins s_1(x) = 5/8
        res = ic.solve_ps(sym2_menu, binary_prior,
                          ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior)))
        assert res.scr.probs[0, 0] == pytest.approx(0.625, abs=1e-7)

    def test_transformed_power_weight_is_self_consistent(self, binary_prior, sym2_menu):
        div = ic.KLDivergence(binary_prior)
        psi = ic.PowerPsi(2.0)
        spec = ic.Transformed(div, psi)
        res = ic.solve_ps(sym2_menu, binary_prior, spec)
        policy = ic.reveal(res.scr, binary_prior).policy()
        inner = sum(w * div.value(b.weights)
                    for w, b in zip(policy.weights, policy.beliefs))
        weight = psi.derivative(inner)
        # solution must be the mutual-information optimum at the fixed weight
        check = ic.solve_mi(sym2_menu, binary_prior, weight)
        assert np.abs(check.scr.probs - res.scr.probs).max() < 1e-6
        cert = ic.certify(res.scr, sym2_menu, binary_prior, spec)
        assert cert.verdict == "optimal"

    def test_rejects_costs_without_derivatives(self, binary_prior, sym2_menu):
        env = ic.MaxOverSet([ic.KLDivergence(binary_prior)])
        with pytest.raises(ic.InvalidInputError):
            ic.solve_ps(sym2_menu, binary_prior, env)


def _residual_instances(kind):
    for seed in range(40):
        rng = np.random.default_rng([seed, 3])
        n_a, n_s = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        prior = random_prior(rng, n_s)
        spec = {"mi": ic.MutualInformation(prior, 1.0),
                "chi": ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
                "kl2": ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0))}[kind]
        yield random_menu(rng, n_a, n_s), prior, spec


@pytest.mark.parametrize("kind", ["mi", "chi", "kl2"])
def test_solver_residual_is_the_certificate_residual(kind):
    # solvers and certify share one first-order routine, evaluated on the
    # returned rule's own probabilities, so the residuals agree exactly
    for menu, prior, spec in _residual_instances(kind):
        res = (ic.solve_mi(menu, prior, spec.scale) if kind == "mi"
               else ic.solve_ps(menu, prior, spec))
        assert res.residual == ic.certify(res.scr, menu, prior, spec).residual


class TestGridOracle:
    def test_sym2_value_agreement(self, binary_prior, sym2_menu):
        spec = ic.MutualInformation(binary_prior, 1.0)
        res = ic.solve_mi(sym2_menu, binary_prior, 1.0)
        oracle = ic.grid_oracle(sym2_menu, binary_prior, spec, 400)
        assert abs(oracle.value - res.value) < 1e-3

    def test_zero_utility_buys_nothing(self, binary_prior):
        menu = ic.Menu(["a", "b"], np.zeros((2, 2)))
        oracle = ic.grid_oracle(menu, binary_prior, ic.MutualInformation(binary_prior),
                                400)
        assert oracle.value == pytest.approx(0.0, abs=1e-9)
        assert oracle.policy.n_beliefs == 1
        assert oracle.policy.beliefs[0].weights == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_dominant_action_stays_uninformed(self, binary_prior):
        menu = ic.Menu(["1", "0"], [[2.0, 2.0], [0.0, 0.0]])
        oracle = ic.grid_oracle(menu, binary_prior, ic.MutualInformation(binary_prior),
                                400)
        assert oracle.value == pytest.approx(2.0, abs=1e-9)
        assert oracle.policy.n_beliefs == 1

    def test_three_states_supported(self):
        prior = ic.Prior(["a", "b", "c"], [1 / 3, 1 / 3, 1 / 3])
        rng = np.random.default_rng(5)
        menu = random_menu(rng, 3, 3)
        spec = ic.MutualInformation(prior, 1.0)
        oracle = ic.grid_oracle(menu, prior, spec, 60)
        res = ic.solve_mi(menu, prior, 1.0)
        assert abs(oracle.value - res.value) < 5 * (1 / 60) * np.ptp(menu.utilities)

    def test_four_states_rejected(self):
        prior = ic.Prior(list("abcd"), [0.25] * 4)
        menu = ic.Menu(["x"], [[0.0] * 4])
        with pytest.raises(ic.InvalidInputError):
            ic.grid_oracle(menu, prior, ic.MutualInformation(prior))

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_agreement_on_random_binary_instances(self, seed):
        rng = np.random.default_rng(seed)
        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        menu = random_menu(rng, int(rng.integers(2, 4)), 2)
        res = ic.solve_mi(menu, prior, 1.0)
        oracle = ic.grid_oracle(menu, prior, ic.MutualInformation(prior, 1.0), 400)
        bound = 5 * (1 / 400) * max(np.ptp(menu.utilities), 1.0)
        assert abs(res.value - oracle.value) <= bound


def _lattice_by_list(resolution):
    """The list-of-tuples construction of the three-state lattice."""
    pts = [
        (i, j, resolution - i - j)
        for i in range(resolution + 1)
        for j in range(resolution + 1 - i)
    ]
    return np.asarray(pts, dtype=float) / resolution


def _full_lattice_lp(menu, prior, div, weight, resolution):
    """Reference: one LP over every lattice belief, priced belief by belief."""
    beliefs = solver._simplex_lattice(prior.n_states, resolution)
    net = (menu.utilities @ beliefs.T).max(axis=0) \
        - weight * np.array([div.value(b) for b in beliefs])
    res = linprog(-net, A_eq=beliefs.T, b_eq=prior.weights, bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return -res.fun, beliefs, net


def _hellinger(prior):
    root = np.sqrt(prior.weights)
    return ic.CustomDivergence(prior, lambda m: float(np.sum((np.sqrt(m) - root) ** 2)))


_LATTICE_CASES = [(1, 7)] + [(2, r) for r in (1, 7, 60, 99, 101, 100, 400)] \
    + [(3, r) for r in (1, 7, 60, 99, 101, 100)]


class TestLatticeColumnGeneration:
    @pytest.mark.parametrize("resolution", [*range(1, 13), 100])
    def test_lattice_rows_and_order(self, resolution):
        got = solver._simplex_lattice(3, resolution)
        assert np.array_equal(got, _lattice_by_list(resolution))

    @pytest.mark.parametrize("kind", ["kl", "chi", "custom"])
    @pytest.mark.parametrize("n_states,resolution", _LATTICE_CASES)
    def test_matches_the_full_lattice_lp(self, n_states, resolution, kind,
                                         monkeypatch):
        rng = np.random.default_rng([n_states, resolution, len(kind)])
        prior = random_prior(rng, n_states)
        menu = random_menu(rng, 3, n_states)
        if kind == "kl":
            spec = ic.MutualInformation(prior, float(rng.uniform(0.2, 1.5)))
            div, weight = spec.divergence, spec.scale
        else:
            div = ic.ChiSquareDivergence(prior) if kind == "chi" else _hellinger(prior)
            spec, weight = ic.PosteriorSeparable(div), 1.0
        ref, beliefs, net = _full_lattice_lp(menu, prior, div, weight, resolution)

        duals = []

        def recording_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            duals.append(res.eqlin.marginals)
            return res

        monkeypatch.setattr(solver, "linprog", recording_linprog)
        oracle = ic.grid_oracle(menu, prior, spec, resolution)
        assert abs(oracle.value - ref) <= 1e-9 * max(1.0, abs(ref))
        # the last restricted LP's dual hyperplane supports the net payoff
        # at every lattice belief and meets it at the prior
        hyperplane = -duals[-1]
        assert (net - beliefs @ hyperplane).max() <= 1e-9 * max(1.0, np.abs(net).max())
        assert hyperplane @ prior.weights == pytest.approx(oracle.value, abs=1e-9)
        assert len(duals) <= len(beliefs)

    def test_failed_restricted_lp_raises(self, binary_prior, sym2_menu, monkeypatch):
        monkeypatch.setattr(solver, "linprog",
                            lambda *a, **k: OptimizeResult(success=False, message="forced"))
        with pytest.raises(RuntimeError, match="oracle LP failed: forced"):
            ic.grid_oracle(sym2_menu, binary_prior,
                           ic.MutualInformation(binary_prior), 400)

    @pytest.mark.parametrize("resolution", [0, -3, 2.5, "100"])
    def test_bad_resolution_rejected(self, binary_prior, sym2_menu, resolution):
        with pytest.raises(ic.InvalidInputError, match="grid resolution"):
            ic.grid_oracle(sym2_menu, binary_prior,
                           ic.MutualInformation(binary_prior), resolution)

    def test_highs_status_15_instance(self):
        # 3x3 MI rule with one excluded action on which one HiGHS LP over
        # the whole 100-step lattice ended with status 15 (model status
        # Unknown, primal feasible)
        prior = ic.Prior(["s0", "s1", "s2"],
                         [0.21613939789423972, 0.4169021037251748, 0.3669584983805856])
        menu = ic.Menu(["a0", "a1", "a2"], [
            [0.072692303278723, -0.0059438660308595, -1.154566926043144],
            [0.5414615416118318, 0.019550397379157772, -1.4288934395837185],
            [0.40653795961826666, 0.006751895214171752, -1.2481704907794373],
        ])
        spec = ic.MutualInformation(prior, 0.22389239687030504)
        oracle = ic.grid_oracle(menu, prior, spec)
        res = ic.solve_mi(menu, prior, spec.scale)
        assert abs(oracle.value - res.value) < 5 * (1 / 100) * np.ptp(menu.utilities)
        assert oracle.value <= res.value + 1e-9


class TestValueProbe:
    def test_identical_menus_are_exactly_convex(self, binary_prior, sym2_menu):
        spec = ic.MutualInformation(binary_prior, 1.0)
        report = ic.value_convexity_probe(sym2_menu, sym2_menu, binary_prior, spec,
                                          samples=10, seed=0)
        assert report.max_violation <= 1e-10

    def test_random_mi_menus_show_no_violations(self, binary_prior):
        rng = np.random.default_rng(2)
        a = random_menu(rng, 3, 2)
        b = ic.Menu(a.actions, rng.normal(size=a.utilities.shape))
        spec = ic.MutualInformation(binary_prior, 1.0)
        report = ic.value_convexity_probe(a, b, binary_prior, spec, samples=30, seed=1)
        assert not report.violations

    def test_state_shift_moves_value_by_its_mean(self, binary_prior):
        rng = np.random.default_rng(4)
        menu = random_menu(rng, 3, 2)
        lam = rng.normal(size=2)
        shifted = ic.Menu(menu.actions, menu.utilities + lam[None, :])
        spec = ic.MutualInformation(binary_prior, 1.0)
        v0 = ic.solve(menu, binary_prior, spec)
        v1 = ic.solve(shifted, binary_prior, spec)
        assert v1.value - v0.value == pytest.approx(
            float(binary_prior.weights @ lam), abs=1e-9
        )
        assert np.abs(v0.scr.probs - v1.scr.probs).max() < 1e-8


class TestDeterminismAndUniqueness:
    def test_identical_runs_are_bitwise_identical(self, binary_prior):
        rng = np.random.default_rng(9)
        menu = random_menu(rng, 3, 2)
        a = ic.solve_mi(menu, binary_prior, 1.0)
        b = ic.solve_mi(menu, binary_prior, 1.0)
        assert np.array_equal(a.scr.probs, b.scr.probs)
        assert a.value == b.value

    def test_random_initializations_land_on_the_same_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n_a, n_s = 3, 3
            prior = random_prior(rng, n_s)
            menu = anchored_menu(rng, n_a, n_s)
            base = ic.solve_mi(menu, prior, 1.0).scr.probs
            for _ in range(3):
                init = rng.dirichlet(np.ones(n_a))
                res = ic.solve_mi(menu, prior, 1.0, ic.SolveOptions(init_marginals=init))
                assert np.abs(res.scr.probs - base).max() < 1e-6


class TestEdgeShapes:
    def test_single_action_menu_is_forced(self, binary_prior):
        menu = ic.Menu(["only"], [[3.0, -1.0]])
        res = ic.solve_mi(menu, binary_prior, 1.0)
        assert np.all(res.scr.probs == 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.residual == 0.0

    def test_single_state_menu(self):
        prior = ic.Prior(["only"], [1.0])
        menu = ic.Menu(["a", "b"], [[1.0], [2.0]])
        res = ic.solve_mi(menu, prior, 1.0)
        assert res.scr.probs[1, 0] == 1.0
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_envelope_cost_prices_rules_through_kappa(self, binary_prior):
        spec = ic.MaxOverSet([
            ic.KLDivergence(binary_prior),
            ic.ChiSquareDivergence(binary_prior),
        ])
        scr = ic.SCR([[0.25, 0.75], [0.75, 0.25]])
        kl = 0.25 * np.log(0.5) + 0.75 * np.log(1.5)
        assert ic.kappa(spec, scr, binary_prior) == pytest.approx(
            max(kl, 0.25), abs=1e-12
        )
