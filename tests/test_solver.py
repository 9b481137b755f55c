import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp

import infochoice as ic
from conftest import anchored_menu, conditionally_full, random_menu, random_prior
from infochoice import revealed, solver
from infochoice.costs import UnsupportedCostError
from infochoice.inverse import rule_first_order
from infochoice.model import OPTIMAL_TOL, SUPPORT_THRESHOLD
from infochoice.revealed import revealed_posteriors

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
        assert res.value == benefit - kap

    def test_nonconvergence_raises_with_residual(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ic.SolverError):
            ic.solve_mi(menu, binary_prior, 1.0, ic.SolveOptions(max_iter=1))

    def test_rejects_nonpositive_scale(self, binary_prior, sym2_menu):
        with pytest.raises(ic.InvalidInputError):
            ic.solve_mi(sym2_menu, binary_prior, 0.0)

    def test_scale_overflowing_the_utilities_raises_solver_error(self, binary_prior,
                                                                 sym2_menu):
        # u / 1e-310 is inf; RuntimeWarnings are errors under this suite
        with pytest.raises(ic.SolverError, match="u / scale overflow") as exc:
            ic.solve_mi(sym2_menu, binary_prior, 1e-310)
        assert exc.value.residual == np.inf

    def test_optimum_below_float64_certifies_rounded(self, binary_prior, sym2_menu):
        # at scale 1e-308 the optimum's off-diagonal entries are e^-1e308:
        # stored as 0, the fully revealing rule certifies with a zero gap
        res = ic.solve_mi(sym2_menu, binary_prior, 1e-308)
        assert res.certificate.verdict == "optimal" and res.residual == 0.0
        assert res.scr.probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("row", [[-1e306, 1.0], [-1e306, 0.0]],
                             ids=["underflow", "certified"])
    def test_utilities_near_the_float64_limit_warn_nothing(self, binary_prior, row):
        # the per-state shift of u / scale and the entry margin's exponent
        # fall below float64's range, to -inf, the exact e^-inf = 0, with
        # RuntimeWarnings errors in this suite. Where the optimum has an
        # entry below float64's range, the rounded rule certifies
        menu = ic.Menu(["a", "b"], [[1e306, 0.0], row])
        res = ic.solve_mi(menu, binary_prior, 0.01)
        spec = ic.MutualInformation(binary_prior, 0.01)
        assert ic.certify(res.scr, menu, binary_prior, spec).verdict == "optimal"
        if row[1] == 0.0:
            assert np.array_equal(res.scr.probs, [[1.0, 1.0], [0.0, 0.0]])
            return
        assert res.scr.probs[1, 0] == 0.0
        with np.errstate(over="ignore"):
            _, log_s = _log_domain_optimum(menu, binary_prior, 0.01)
        assert np.abs(res.scr.probs - np.exp(log_s)).max() < 1e-12

    @pytest.mark.parametrize("field, kwargs", [
        ("options.tol", {"tol": 0.0}), ("options.tol", {"tol": -1.0}),
        ("options.tol", {"tol": float("nan")}), ("options.tol", {"tol": float("inf")}),
        ("options.tol", {"tol": None}), ("options.tol", {"tol": True}),
        ("options.max_iter", {"max_iter": 0}), ("options.max_iter", {"max_iter": -1}),
        ("options.max_iter", {"max_iter": float("nan")}),
        ("options.max_iter", {"max_iter": float("inf")}),
        ("options.max_iter", {"max_iter": 2.5}), ("options.max_iter", {"max_iter": True}),
    ])
    def test_options_refuse_a_tol_or_step_budget_that_cannot_be_met(self, field,
                                                                    kwargs):
        with pytest.raises(ic.InvalidInputError, match=f"^{field}: "):
            ic.SolveOptions(**kwargs)

    @pytest.mark.parametrize("entropy, scale", [(60, 1e6), (75, 1e6), (3, 1e8), (12, 1e8),
                                                (15, 1e8), (129, 1e8), (195, 1e8)])
    def test_large_scales_certify_above_the_gap_rounding_floor(self, entropy, scale):
        # the gap's rounding floor, about scale x 1e-16, sits above 1e-10 at
        # these scales: a bound of 1e-10 ran these menus, six with a
        # duplicate action, out of steps; at OPTIMAL_TOL they certify
        rng = np.random.default_rng([52, entropy])
        n_a, n_s = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        w = np.maximum(rng.dirichlet(0.3 * np.ones(n_s)), 1e-6)
        prior = ic.Prior([f"s{i}" for i in range(n_s)], w / w.sum())
        u = rng.normal(size=(n_a, n_s))
        if entropy % 3 == 0:
            u[-1] = u[0]
        menu = ic.Menu([f"a{a}" for a in range(n_a)], u)
        res = ic.solve_mi(menu, prior, scale, ic.SolveOptions(max_iter=50))
        spec = ic.MutualInformation(prior, scale)
        assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"

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


#: a probability whose log is below this (about -745.1) rounds to 0 in float64
LOG_TINY = math.log(math.ulp(0.0)) - math.log(2.0)
SWEEP_SCALES = [1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3]


def _sweep_instances():
    """15 seeded 3x3 problems, N(0, 1) utilities and a Dirichlet(1) prior,
    the same for every scale."""
    rng = np.random.default_rng(0)
    for _ in range(15):
        u = rng.normal(size=(3, 3))
        w = rng.dirichlet(np.ones(3))
        yield (ic.Menu(["a0", "a1", "a2"], u),
               ic.Prior(["s0", "s1", "s2"], w / w.sum()))


def _log_domain_optimum(menu, prior, scale):
    """The mutual-information optimum by Blahut-Arimoto run entirely in logs,
    so no entry underflows: log marginals and the log rule, once they meet
    the KKT conditions of the marginal program to 1e-9."""
    a = menu.utilities / scale
    log_mu0 = np.log(prior.weights)
    log_p = np.full(menu.n_actions, -np.log(menu.n_actions))
    for _ in range(10_000):
        log_z = logsumexp(log_p[:, None] + a, axis=0)
        # sum_w mu0(w) R_aw, whose KKT value is 1 on the support, at most 1 off it
        log_ratio = logsumexp(a - log_z + log_mu0, axis=1)
        supported = log_p > np.log(SUPPORT_THRESHOLD)
        if np.abs(log_ratio[supported]).max() < 1e-9 and log_ratio.max() < 1e-9:
            return log_p, log_p[:, None] + a - log_z
        log_p = log_p + log_ratio
    raise AssertionError("log-domain Blahut-Arimoto did not converge")


class TestCostScaleSweep:
    @pytest.mark.parametrize("scale", SWEEP_SCALES)
    def test_certifies_the_rounded_optimum(self, scale):
        # every instance certifies within 100 iterations, also where a
        # supported entry of the optimal rule, computed independently in
        # logs, is below float64's range and stored as 0; the log-domain
        # reference crawls above scale 1, where nothing underflows
        for menu, prior in _sweep_instances():
            spec = ic.MutualInformation(prior, scale)
            res = ic.solve_mi(menu, prior, scale, ic.SolveOptions(max_iter=100))
            assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"
            if scale > 1.0:
                continue
            log_p, log_s = _log_domain_optimum(menu, prior, scale)
            assert np.abs(res.scr.probs - np.exp(log_s)).max() < 1e-6
            tiny = log_s[log_p > np.log(SUPPORT_THRESHOLD)] < LOG_TINY
            assert (res.scr.probs[log_p > np.log(SUPPORT_THRESHOLD)][tiny] == 0.0).all()

    def test_near_corner_optimum_takes_few_newton_steps(self):
        # a second action keeps 1% of the mass at scale 10: the optimum sits
        # next to a corner, where a linearly convergent marginal map crawls
        menu, prior = list(_sweep_instances())[13]
        res = ic.solve_mi(menu, prior, 10.0)
        assert res.iterations <= 50
        spec = ic.MutualInformation(prior, 10.0)
        assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"


class TestSolvePS:
    def test_kl_reproduces_mi_solver(self, binary_prior, sym2_menu):
        # the dual Newton's KL route, the tests' reference for the MI Newton
        mi = ic.solve_mi(sym2_menu, binary_prior, 1.0)
        ps = solver._dual_newton(sym2_menu, binary_prior,
                                 ic.PosteriorSeparable(ic.KLDivergence(binary_prior)),
                                 1.0, None, OPTIMAL_TOL, 100_000)
        assert np.abs(mi.scr.probs - ps.scr.probs).max() < 1e-8
        assert mi.value == pytest.approx(ps.value, abs=1e-8)

    @pytest.mark.parametrize("psi", [ic.AffinePsi(1.0, 0.0), ic.IdentityPsi()],
                             ids=["affine", "identity"])
    @pytest.mark.parametrize("route", [ic.solve_ps, ic.solve], ids=["solve_ps", "solve"])
    def test_identity_transform_matches_plain(self, binary_prior, sym2_menu, route,
                                              psi):
        ps = route(sym2_menu, binary_prior,
                   ic.PosteriorSeparable(ic.KLDivergence(binary_prior)))
        tr = route(sym2_menu, binary_prior,
                   ic.Transformed(ic.KLDivergence(binary_prior), psi))
        assert np.abs(ps.scr.probs - tr.scr.probs).max() < 1e-8

    def test_chi_square_interior_solution_certifies(self, binary_prior, sym2_menu):
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))
        res = ic.solve_ps(sym2_menu, binary_prior, spec)
        assert conditionally_full(res.scr, binary_prior)
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

    def test_joint_rescaling_reaches_the_same_rule(self):
        # seed 1467 of the joint-rescaling property in test_invariance, on
        # which two certified chi-square rules once sat 9.8e-6 apart
        prior = ic.Prior(["s0", "s1"], [0.291861209023628, 0.708138790976372])
        u = np.array([[0.6995038768392646, 0.5508994867870313],
                      [-1.3910072695311253, 1.2302168302143563],
                      [1.0537696290630019, 0.3000476288700168]])
        c = 0.26775718083451505
        chi = ic.ChiSquareDivergence(prior)
        problems = [(ic.Menu(["a0", "a1", "a2"], u), ic.PosteriorSeparable(chi)),
                    (ic.Menu(["a0", "a1", "a2"], c * u),
                     ic.Transformed(chi, ic.AffinePsi(c)))]
        rules = []
        for menu, spec in problems:
            res = ic.solve_ps(menu, prior, spec)
            assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"
            rules.append(res.scr.probs)
        assert np.abs(rules[0] - rules[1]).max() < 1e-8

    def test_init_marginals_start_the_solve(self):
        # both starts end on the optimum to rounding, by different paths
        rng = np.random.default_rng(6)
        prior = random_prior(rng, 3)
        menu = anchored_menu(rng, 3, 3)
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
        base = ic.solve(menu, prior, spec)
        moved = ic.solve(menu, prior, spec, init_marginals=np.array([0.8, 0.1, 0.1]))
        assert base.iterations != moved.iterations
        assert np.abs(base.scr.probs - moved.scr.probs).max() < 1e-12
        with pytest.raises(ic.InvalidInputError, match="init_marginals"):
            ic.solve(menu, prior, spec, init_marginals=np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("kind", ["mi", "chi"])
    def test_a_start_of_python_numbers_is_read_as_floats(self, kind):
        # the start is checked as floats, and each method reads it so
        rng = np.random.default_rng(6)
        prior = random_prior(rng, 3)
        menu = anchored_menu(rng, 3, 3)
        spec = {"mi": ic.MutualInformation(prior, 1.0),
                "chi": ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))}[kind]
        starts = [np.array([0.8, 0.1, 0.1]), [Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)]]
        floats, fractions = (ic.solve(menu, prior, spec, init_marginals=start)
                             for start in starts)
        assert np.array_equal(floats.scr.probs, fractions.scr.probs)

    def test_nonconvergence_raises_with_residual(self):
        # a 3x3 menu takes more than one step; the 2x2 one of solve_mi's
        # test above is solved exactly by the first
        rng = np.random.default_rng(6)
        prior = random_prior(rng, 3)
        menu = anchored_menu(rng, 3, 3)
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
        with pytest.raises(ic.SolverError) as info:
            ic.solve_ps(menu, prior, spec, ic.SolveOptions(max_iter=1))
        assert info.value.residual > 1e-8


def _wide_sweep(kind, weight):
    """20 menus of 2-6 actions and states, a duplicate action in every
    third. A constant weight is psi's slope; under psi(K) = K^2 or e^K it
    divides the utilities instead."""
    rng = np.random.default_rng([int(np.log10(weight)) + 10, len(kind)])
    for k in range(20):
        n_a, n_s = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        prior = random_prior(rng, n_s)
        u = rng.normal(size=(n_a, n_s))
        if k % 3 == 0:
            u[-1] = u[0]
        div = (ic.ChiSquareDivergence if kind.startswith("chi") else ic.KLDivergence)(prior)
        psi = {"kl2": ic.PowerPsi(2.0), "chi_exp": ic.ExpPsi(1.0)}.get(kind)
        spec = ic.Transformed(div, psi or ic.AffinePsi(weight))
        yield ic.Menu([f"a{a}" for a in range(n_a)], u / weight if psi else u), prior, spec


#: KL menus (entropy, weight; psi(K) = K^2 where the weight is None) on
#: which the dual Newton ran out of 400 steps or found no descent; the MI
#: Newton certifies them in 11, 8, 60, 34 and 67 steps
KL_DUAL_STALLS = [([1, 41, 1], 1e-3), ([2, 53, 1], 1e-2), ([99, 59, 2], None),
                  ([99, 87, 2], None), ([99, 91, 2], None)]

#: chi-square menus under psi(K) = K^2 on which the weight root ran out of
#: 400 steps: the first three while its dual solves started from the default
#: marginals, [99, 87, 2] (7x5) while its first dual solve did, next to the
#: weight w-bar above which the uninformative rule is optimal
CHI_DUAL_STALLS = [([99, 12, 2], None), ([99, 99, 2], None), ([99, 102, 2], None),
                   ([99, 87, 2], None)]

#: the open failure of the [99, k, 2] chi-square K^2 set
CHI_K2_93 = ("[99, 93, 2], 4x4: K jumps to 0 at w-bar = 1.1576e-6, and the optimum mixes "
             "in action a1 with a marginal near 1e-12, below SUPPORT_THRESHOLD, where "
             "the certificate no longer sees it")


def _dual_stall(div, entropy, weight):
    """2-8 actions and states from ``default_rng(entropy)``, a Dirichlet(1)
    prior for even entropy[1] and Dirichlet(0.3) for odd, floored at 1e-6,
    N(0, 1) utilities with a duplicate action where 3 divides entropy[1],
    under the divergence ``div``."""
    rng = np.random.default_rng(entropy)
    n_a, n_s = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    alpha = 0.3 if entropy[1] % 2 else 1.0
    w = np.maximum(rng.dirichlet(alpha * np.ones(n_s)), 1e-6)
    prior = ic.Prior([f"s{i}" for i in range(n_s)], w / w.sum())
    u = rng.normal(size=(n_a, n_s))
    if entropy[1] % 3 == 0:
        u[-1] = u[0]
    psi = ic.PowerPsi(2.0) if weight is None else ic.AffinePsi(weight)
    yield ic.Menu([f"a{a}" for a in range(n_a)], u), prior, ic.Transformed(div(prior), psi)


class TestGeneralSolverScaleSweep:
    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("kind", ["chi", "mi"])
    def test_certifies_within_the_step_bound(self, kind, scale):
        # chi-square and mutual information, both through AffinePsi(scale),
        # on every sweep menu
        for menu, prior in _sweep_instances():
            div = ic.ChiSquareDivergence(prior) if kind == "chi" \
                else ic.KLDivergence(prior)
            spec = ic.Transformed(div, ic.AffinePsi(scale))
            res = ic.solve_ps(menu, prior, spec, ic.SolveOptions(max_iter=400))
            assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"

    @pytest.mark.parametrize("kind, case", [
        (kind, weight) for kind in ("chi", "mi", "kl2", "chi_exp")
        for weight in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8)] + [
        pytest.param(f"{div}_dual_stall", case, id=f"{div}_dual_stall-{case[0]}")
        for div, stalls in (("kl", KL_DUAL_STALLS), ("chi", CHI_DUAL_STALLS))
        for case in stalls] + [
        pytest.param("chi_dual_stall", ([99, 93, 2], None), id="chi_dual_stall-[99, 93, 2]",
                     marks=pytest.mark.xfail(strict=True, raises=ic.SolverError,
                                             reason=CHI_K2_93))])
    def test_wide_sweep_certifies_every_menu(self, kind, case):
        # every solve certifies within 400 steps, and solve_ps returns
        # what solve returns, bit for bit
        div = {"kl_dual_stall": ic.KLDivergence,
               "chi_dual_stall": ic.ChiSquareDivergence}.get(kind)
        instances = _dual_stall(div, *case) if div else _wide_sweep(kind, case)
        opts = ic.SolveOptions(max_iter=400)
        for menu, prior, spec in instances:
            res = ic.solve_ps(menu, prior, spec, opts)
            assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"
            same = ic.solve(menu, prior, spec, opts)
            assert res.scr.probs.tobytes() == same.scr.probs.tobytes()
            assert (res.value, res.iterations, res.residual, res.method) == \
                (same.value, same.iterations, same.residual, same.method)


def _residual_instances(kind):
    for seed in range(40):
        rng = np.random.default_rng([seed, 3])
        n_a, n_s = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        prior = random_prior(rng, n_s)
        spec = {"mi": ic.MutualInformation(prior, 1.0),
                "chi": ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
                "kl2": ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0)),
                "kl_affine": ic.Transformed(ic.KLDivergence(prior),
                                            ic.AffinePsi(0.5, 0.3))}[kind]
        yield random_menu(rng, n_a, n_s), prior, spec


def _solve_kind(kind, menu, prior, spec):
    """``solve_mi`` for mi, ``solve`` for KL under an affine psi, which it
    sends to ``solve_mi`` with the intercept counted, ``solve_ps`` else."""
    if kind == "mi":
        return ic.solve_mi(menu, prior, spec.scale)
    if kind == "kl_affine":
        res = ic.solve(menu, prior, spec)
        assert res.method == "mi-newton"
        return res
    return ic.solve_ps(menu, prior, spec)


@pytest.mark.parametrize("kind", ["mi", "chi", "kl2", "kl_affine"])
def test_value_is_benefit_minus_kappa(kind):
    # a solve's value and kappa price one revealed policy
    for menu, prior, spec in _residual_instances(kind):
        res = _solve_kind(kind, menu, prior, spec)
        benefit = float(prior.weights @ (menu.utilities * res.scr.probs).sum(axis=0))
        assert res.value == benefit - ic.kappa(spec, res.scr, prior)


@pytest.mark.parametrize("kind", ["mi", "chi", "kl2", "kl_affine"])
def test_solver_residual_is_the_certificate_residual(kind):
    # solvers and certify share one first-order routine, evaluated on the
    # returned rule's own probabilities, so the residuals agree exactly, and
    # certify returns that routine's record field by field
    for menu, prior, spec in _residual_instances(kind):
        res = _solve_kind(kind, menu, prior, spec)
        cert = ic.certify(res.scr, menu, prior, spec)
        assert res.residual == cert.residual
        foc = rule_first_order(menu.utilities,
                               revealed_posteriors(res.scr.probs, prior), spec)
        # the result carries the certificate its stopping test accepted
        for other in (foc, res.certificate):
            for field in dataclasses.fields(cert):
                mine, theirs = getattr(cert, field.name), getattr(other, field.name)
                if isinstance(mine, np.ndarray):
                    assert np.array_equal(mine, theirs), field.name
                else:
                    assert mine == theirs, field.name


@pytest.mark.parametrize("spelling", ["ps", "identity", "affine", "affine-intercept"])
def test_solve_sends_kl_under_a_constant_weight_to_the_mi_newton(spelling):
    # every spelling of a KL cost whose derivative weight a is constant is
    # mutual information at scale a, up to psi's intercept b
    a, b = {"ps": (1.0, 0.0), "identity": (1.0, 0.0), "affine": (0.5, 0.0),
            "affine-intercept": (0.5, 0.3)}[spelling]
    for menu, prior, _ in _residual_instances("mi"):
        kl = ic.KLDivergence(prior)
        spec = {"ps": ic.PosteriorSeparable(kl),
                "identity": ic.Transformed(kl, ic.IdentityPsi())}.get(
                    spelling, ic.Transformed(kl, ic.AffinePsi(a, b)))
        res = ic.solve(menu, prior, spec)
        mi = ic.solve_mi(menu, prior, a)
        assert res.method == "mi-newton"
        assert np.array_equal(res.scr.probs, mi.scr.probs)
        assert res.iterations == mi.iterations and res.residual == mi.residual
        assert res.value == pytest.approx(mi.value - b, abs=1e-12)


@pytest.mark.parametrize("route", [ic.solve_ps, ic.solve], ids=["solve_ps", "solve"])
@pytest.mark.parametrize("div", [ic.KLDivergence, ic.ChiSquareDivergence])
def test_free_information_is_the_closed_form(binary_prior, route, div):
    # each state goes to its best action, the lowest index on ties, as in
    # the lattice oracle, and the rule certifies with a zero gap
    menu = ic.Menu(["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    spec = ic.Transformed(div(binary_prior), ic.AffinePsi(0.0, 0.2))
    res = route(menu, binary_prior, spec)
    assert res.method == "free-information"
    assert res.scr.probs.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert res.certificate.verdict == "optimal" and res.residual == 0.0
    assert res.value == 1.0 - 0.2
    oracle = ic.grid_oracle(menu, binary_prior, spec)
    assert oracle.value == pytest.approx(res.value, abs=1e-12)


@pytest.mark.parametrize("oracle", [False, True], ids=["no-gradient", "gradient"])
def test_free_information_under_a_custom_divergence(binary_prior, sym2_menu, oracle):
    # at weight 0 the closed form needs no solver, but its certificate needs
    # the divergence's gradient: without an oracle it is inconclusive
    div = ic.CustomDivergence(binary_prior, lambda m: float(m @ m) - 0.5,
                              grad=(lambda m: 2.0 * m) if oracle else None)
    spec = ic.Transformed(div, ic.AffinePsi(0.0))
    if not oracle:
        with pytest.raises(UnsupportedCostError, match="no gradient oracle"):
            ic.solve(sym2_menu, binary_prior, spec)
        return
    res = ic.solve(sym2_menu, binary_prior, spec)
    assert res.method == "free-information" and res.certificate.verdict == "optimal"
    assert res.scr.probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def _dual_weight_root(menu, prior, spec):
    """The weight root over the dual Newton, KL's reference route."""
    return solver._weight_root(menu, prior, spec, solver._dual_newton, None, OPTIMAL_TOL,
                               100_000)


@pytest.mark.parametrize("route, method, steps", [
    (ic.solve, "weight-root:mi-newton", 156),
    (_dual_weight_root, "weight-root:dual-newton", 515)], ids=["solve", "dual-newton"])
def test_a_nonlinear_psi_solves_by_the_weight_root(route, method, steps):
    # under psi(K) = K^2 the mutual-information optimum jumps at a weight
    # near 0.515, from actions {0, 2} to {0, 1}; g(w) = w - psi'(K) has no
    # root there, and the optimum mixes the two rules, using all actions.
    # The tangents of V at the ends of the bracket find the jump in fewer
    # Newton steps than a regula falsi on the share took (156 and 515)
    prior = ic.Prior(["s0", "s1"], [0.39532863918455596, 0.604671360815444])
    menu = ic.Menu(["a0", "a1", "a2"], [[1.2536468175412852, -0.45864095856439174],
                                        [0.5316423582721688, 1.3546808913837052],
                                        [-0.7667834760518545, 1.486474595923083]])
    spec = ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0))
    res = route(menu, prior, spec)
    assert res.method == method
    assert res.certificate.verdict == "optimal"
    assert res.iterations < steps
    assert (res.scr.probs @ prior.weights > 1e-3).all()
    # the rule is optimal at the weight psi'(K) it implies
    kl = ic.Transformed(ic.KLDivergence(prior), ic.AffinePsi(
        2.0 * ic.kappa(ic.PosteriorSeparable(spec.divergence), res.scr, prior)))
    assert ic.certify(res.scr, menu, prior, kl).residual < 1e-8


def _identity_menu():
    """The identity menu on the prior [0.7, 0.3]: the uninformative rule plays
    a0, and a1's entry margin against it falls to 0 at w-bar = 1 / log(7/3)
    under KL and at Var / (4 |mean|) = 0.84 / 1.6 = 0.525 under chi-square,
    the moments of u_1 - u_0 under the prior."""
    return ic.Menu(["a0", "a1"], np.eye(2)), ic.Prior(["x", "y"], [0.7, 0.3])


@pytest.mark.parametrize("div, wbar", [(ic.KLDivergence, 1.0 / math.log(7.0 / 3.0)),
                                       (ic.ChiSquareDivergence, 0.525)], ids=["kl", "chi"])
def test_the_uninformative_rule_is_optimal_just_above_w_bar(div, wbar):
    menu, prior = _identity_menu()
    found, quiet = solver._silent_weight(div(prior), menu.utilities, 0, 10.0)
    assert quiet and wbar <= found <= wbar * (1.0 + 1e-9)
    silent = ic.SCR([[1.0, 1.0], [0.0, 0.0]])

    def verdict(weight):
        spec = ic.Transformed(div(prior), ic.AffinePsi(weight))
        return ic.certify(silent, menu, prior, spec).verdict

    assert verdict(wbar * (1.0 + 1e-6)) == "optimal"
    assert verdict(wbar * (1.0 - 1e-3)) == "not-optimal"
    # w-bar above the cap ends the bracket at the cap
    assert solver._silent_weight(div(prior), menu.utilities, 0, 0.5 * wbar) == (0.5 * wbar,
                                                                              False)


def test_mutual_information_buys_nothing_above_w_bar():
    # KL has a finite w-bar too: at scale 1.4 the solve is uninformative
    menu, prior = _identity_menu()
    assert ic.solve_mi(menu, prior, 1.4).scr.probs.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    assert ic.solve_mi(menu, prior, 1.1).scr.probs[1].min() > 0.0


@pytest.mark.parametrize("div", [ic.KLDivergence, ic.ChiSquareDivergence])
def test_no_newton_step_where_psi_prime_at_zero_is_above_w_bar(monkeypatch, div):
    # under e^{1.5 K}, psi'(0) = 1.5 is above both w-bars, so the
    # uninformative rule is the answer and certifies as it stands
    def refused(*args):
        raise AssertionError("a constant-weight solve ran")

    monkeypatch.setattr(solver, "_mi_newton", refused)
    monkeypatch.setattr(solver, "_dual_newton", refused)
    menu, prior = _identity_menu()
    res = ic.solve(menu, prior, ic.Transformed(div(prior), ic.ExpPsi(1.5)))
    assert res.iterations == 0 and res.certificate.verdict == "optimal"
    assert res.scr.probs.tolist() == [[1.0, 1.0], [0.0, 0.0]]


@pytest.mark.parametrize("div", [ic.KLDivergence, ic.ChiSquareDivergence])
def test_a_linear_power_psi_is_solved_at_weight_one(div):
    # psi'(K) = 1 at every K, so the one solve at psi'(0) = 1 is the answer
    rng = np.random.default_rng(3)
    prior = random_prior(rng, 3)
    menu = random_menu(rng, 4, 3)
    res = ic.solve(menu, prior, ic.Transformed(div(prior), ic.PowerPsi(1.0)))
    assert res.method.startswith("weight-root:")
    assert res.certificate.verdict == "optimal"
    spec = ic.Transformed(div(prior), ic.AffinePsi(1.0))
    assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"


@pytest.mark.parametrize("div", [ic.KLDivergence, ic.ChiSquareDivergence])
@pytest.mark.parametrize("psi", [ic.PowerPsi(2.0), ic.ExpPsi(1.0)], ids=repr)
def test_no_inner_solve_lands_above_w_bar(monkeypatch, div, psi):
    # the bracket ends at w-bar, so no solve is spent on the uninformative rule
    weights = []
    for name in ("_mi_newton", "_dual_newton"):
        def spy(menu, prior, spec, weight, start, tol, max_iter, inner=getattr(solver, name)):
            weights.append(weight)
            return inner(menu, prior, spec, weight, start, tol, max_iter)

        monkeypatch.setattr(solver, name, spy)
    solves = 0
    for seed in range(8):
        menu, prior = _dirichlet_menu([seed, 5], 5)
        spec = ic.Transformed(div(prior), psi)
        weights.clear()
        res = ic.solve(menu, prior, spec)
        top = int(np.argmax(menu.utilities @ prior.weights))
        wbar, _ = solver._silent_weight(spec.divergence, menu.utilities, top, 1e6)
        assert res.certificate.verdict == "optimal"
        assert all(weight < wbar for weight in weights)
        solves += len(weights)
    assert solves > 0


def _dirichlet_menu(entropy, n, duplicate=False):
    """A Dirichlet(1) prior over n states, then an n x n N(0, 1) menu, drawn
    from ``default_rng(entropy)``; with ``duplicate`` the last action copies
    the first."""
    rng = np.random.default_rng(entropy)
    prior = ic.Prior([f"s{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
    u = rng.normal(size=(n, n))
    if duplicate:
        u[-1] = u[0]
    return ic.Menu([f"a{i}" for i in range(n)], u), prior


@pytest.mark.parametrize("entropy, n", [([7, 5], 5), ([0, 10], 10), ([1, 10], 10),
                                        ([0, 20], 20), ([7, 20], 20), ([8, 20], 20),
                                        (2, 20), (4, 20)])
@pytest.mark.parametrize("route", [ic.solve, ic.solve_ps], ids=["solve", "solve_ps"])
def test_chi_square_under_a_power_psi_certifies_from_halfway_to_uniform(route, entropy, n):
    # the weight root starts each dual solve halfway from the last rule's
    # marginals to uniform, the first from the free-information rule's: from
    # those marginals themselves the dual's merit stalls on these menus
    menu, prior = _dirichlet_menu(entropy, n)
    spec = ic.Transformed(ic.ChiSquareDivergence(prior), ic.PowerPsi(2.0))
    res = route(menu, prior, spec)
    assert res.method == "weight-root:dual-newton"
    assert res.certificate.verdict == "optimal"
    assert res.iterations <= 200


def test_a_caller_start_to_the_dual_takes_its_halfway_rule():
    # from the weight-5 rule's marginals, 18 of 20 exactly zero, floored at
    # 1e-12, the dual's merit stalls short of a solution; halfway from them
    # to uniform, the dual's own start rule, it certifies
    rng = np.random.default_rng(2)
    w = rng.dirichlet(np.ones(20))
    prior = ic.Prior([f"s{i}" for i in range(20)], w / w.sum())
    menu = ic.Menu([f"a{i}" for i in range(20)], rng.normal(size=(20, 20)))
    chi = ic.ChiSquareDivergence(prior)
    far = ic.solve(menu, prior, ic.Transformed(chi, ic.AffinePsi(5.0))).scr.probs @ prior.weights
    assert (far == 0.0).sum() == 18
    res = ic.solve(menu, prior, ic.Transformed(chi, ic.AffinePsi(0.0156)),
                   init_marginals=np.maximum(far, 1e-12))
    assert res.method == "dual-newton" and res.certificate.verdict == "optimal"


@pytest.mark.parametrize("entropy, scale", [([9, 20, 5], 0.05), ([5, 20, 11], 0.01)])
@pytest.mark.parametrize("route", [ic.solve_mi, ic.solve], ids=["solve_mi", "solve"])
def test_mi_newton_steps_past_a_singular_free_block(route, entropy, scale):
    # with a duplicate action the free block of the Newton system turns
    # exactly singular, and the solve takes the diagonally scaled step there
    menu, prior = _dirichlet_menu(entropy, 20, duplicate=True)
    res = route(menu, prior, scale if route is ic.solve_mi
                else ic.MutualInformation(prior, scale))
    assert res.method == "mi-newton"
    assert res.certificate.verdict == "optimal"
    assert res.iterations <= 20


def test_a_solve_certifies_only_where_its_kkt_measure_settles(monkeypatch):
    # the KL Newton certifies under the caller's cost, so an affine
    # intercept costs no second certificate of the returned rule, and only
    # where its KKT measure stops halving, which most iterates do not
    calls = []

    def counted(*args, **kwargs):
        calls.append(rule_first_order(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(solver, "rule_first_order", counted)
    certified = iterates = 0
    for menu, prior, spec in _residual_instances("kl_affine"):
        calls.clear()
        res = ic.solve(menu, prior, spec)
        assert res.method == "mi-newton"
        assert res.certificate is calls[-1]
        certified, iterates = certified + len(calls), iterates + res.iterations + 1
    assert 2 * certified < iterates


_LOGIT_RULE = np.array([[E_RATIO, 1.0 - E_RATIO], [1.0 - E_RATIO, E_RATIO]])


@pytest.mark.parametrize("measures, rule, max_iter, error, resumed", [
    ([1.0, 0.25], np.full((2, 2), 0.5), 50, "line search found no step", 2),
    ([4.0 ** -k for k in range(10)], np.full((2, 2), 0.5), 3, "did not converge", 3),
    # an exact KKT point whose rule does not certify leaves no step to take
    ([0.0, 0.0], np.full((2, 2), 0.5), 50, "line search found no step", 0),
    ([1.0, 0.25, 0.0625], _LOGIT_RULE, 50, None, 3),
], ids=["steps-run-out", "max-iter", "zero-measure", "certifying-rule"])
def test_each_newton_exit(measures, rule, max_iter, error, resumed):
    # ``solver._newton`` on a scripted generator that yields each measure
    # with one rule, on the 2 x 2 identity menu under MI at scale 1: the
    # uniform rule does not certify there, the logit rule does
    prior = ic.Prior(["x", "y"], [0.5, 0.5])
    steps_taken = []

    def steps():
        for measure in measures:
            yield measure, rule
            steps_taken.append(measure)

    def run():
        return solver._newton(steps(), np.eye(2), prior, ic.MutualInformation(prior, 1.0),
                              OPTIMAL_TOL, max_iter, 1e-15, "scripted")

    if error is None:
        res = run()
        assert np.array_equal(res.scr.probs, rule)
        assert (res.iterations, res.method, res.certificate.verdict) == (
            len(measures) - 1, "scripted", "optimal")
    else:
        with pytest.raises(ic.SolverError, match=f"^scripted {error}"):
            run()
    assert len(steps_taken) == resumed


def _budget_menu(seed):
    """n x n, n = integers(2, 7), from ``default_rng([seed, 4])``: a
    Dirichlet(1) prior, then N(0, 1) utilities."""
    rng = np.random.default_rng([seed, 4])
    n = int(rng.integers(2, 7))
    w = rng.dirichlet(np.ones(n))
    prior = ic.Prior([f"s{i}" for i in range(n)], w / w.sum())
    return ic.Menu([f"a{i}" for i in range(n)], rng.normal(size=(n, n))), prior


@pytest.mark.parametrize("kind, seeds", [("mi", 20), ("chi", 20), ("kl2", 10), ("chi2", 10)])
def test_every_step_budget_returns_a_certified_rule_or_raises_above_tol(kind, seeds):
    # cut short at any max_iter below its step count, a solve returns a rule
    # that certifies or raises with a residual above tol, never on one that
    # certifies: [0, 4] under MI at max_iter=4 returns a gap of 2.314e-13
    for seed in range(seeds):
        menu, prior = _budget_menu(seed)
        spec = {"mi": ic.MutualInformation(prior, 1.0),
                "chi": ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
                "kl2": ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0)),
                "chi2": ic.Transformed(ic.ChiSquareDivergence(prior), ic.PowerPsi(2.0))}[kind]
        for max_iter in range(1, ic.solve(menu, prior, spec).iterations):
            try:
                res = ic.solve(menu, prior, spec, ic.SolveOptions(max_iter=max_iter))
            except ic.SolverError as exc:
                assert exc.residual > OPTIMAL_TOL, (seed, max_iter)
                continue
            assert res.iterations <= max_iter
            assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"


def test_a_divergence_without_a_conjugate_argmax_is_refused_before_w_bar(monkeypatch):
    # under a nonlinear psi the weight root refuses a custom divergence
    # before it bisects w-bar, which prices every row by SLSQP
    prior = ic.Prior(["x", "y", "z"], [0.2, 0.3, 0.5])
    menu = ic.Menu(["a", "b", "c"], np.eye(3))
    div = ic.CustomDivergence(prior, lambda m: float(m @ (m / prior.weights)) - 1.0,
                              grad=lambda m: 2.0 * m / prior.weights)
    calls, conjugate_max = [], ic.CustomDivergence.conjugate_max

    def counted(self, *args):
        calls.append(args)
        return conjugate_max(self, *args)

    monkeypatch.setattr(ic.CustomDivergence, "conjugate_max", counted)
    with pytest.raises(UnsupportedCostError, match="custom divergence has no conjugate argmax"):
        ic.solve(menu, prior, ic.Transformed(div, ic.PowerPsi(2.0)))
    assert calls == []


@pytest.mark.parametrize("kind, start", [
    ("mi", [0.5, 0.3, 0.2]), ("chi", [0.5, 0.3, 0.2]), ("mi", [[0.5], [0.5]]),
    ("chi", [[0.5], [0.5]]), ("free", [0.5, 0.3, 0.2]), ("silent", [0.5, 0.3, 0.2])],
    ids=["mi", "chi", "mi-column", "chi-column", "free-information", "uninformative"])
def test_init_marginals_of_the_wrong_length_are_named(binary_prior, sym2_menu, kind, start):
    # the start is checked before the route, so the routes that take no
    # Newton step refuse it too: chi-square at weight 0, and KL under e^{2K},
    # whose psi'(0) = 2 is above w-bar = 1 / log(7/3) on the identity menu
    menu, prior = _identity_menu() if kind == "silent" else (sym2_menu, binary_prior)
    spec = {"mi": ic.MutualInformation(prior, 1.0),
            "chi": ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
            "free": ic.Transformed(ic.ChiSquareDivergence(prior), ic.AffinePsi(0.0)),
            "silent": ic.Transformed(ic.KLDivergence(prior), ic.ExpPsi(2.0))}[kind]
    if kind in ("free", "silent"):
        assert ic.solve(menu, prior, spec).iterations == 0
    shape = np.shape(start)
    with pytest.raises(ic.InvalidInputError,
                       match=re.escape(f"init_marginals has shape {shape} for 2 actions")):
        ic.solve(menu, prior, spec, init_marginals=np.array(start))


@pytest.mark.parametrize("bad", [np.nan, np.inf, "ab"])
@pytest.mark.parametrize("kind", ["mi", "chi"])
def test_non_finite_init_marginals_are_refused(binary_prior, sym2_menu, kind, bad):
    spec = {"mi": ic.MutualInformation(binary_prior, 1.0),
            "chi": ic.PosteriorSeparable(ic.ChiSquareDivergence(binary_prior))}[kind]
    with pytest.raises(ic.InvalidInputError, match="init_marginals"):
        ic.solve(sym2_menu, binary_prior, spec, init_marginals=np.array([1.0, bad]))


_INFINITE_ON_THE_BOUNDARY = """
import numpy as np
import infochoice as ic
prior = ic.Prior(["x", "y"], [0.5, 0.5])
menu = ic.Menu(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
with np.errstate(divide="ignore"):
    div = ic.CustomDivergence(
        prior, lambda mu: -float(prior.weights @ np.log(mu / prior.weights)))
    try:
        ic.grid_oracle(menu, prior, ic.PosteriorSeparable(div), 10)
    except ic.InvalidInputError as exc:
        print(exc)
"""


class TestGridOracle:
    def test_cost_infinite_on_the_boundary_is_refused(self):
        # the LP ran without end on the vertex beliefs' infinite costs, so
        # the call runs in a child that a timeout ends
        src = os.path.dirname(os.path.dirname(os.path.abspath(ic.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _INFINITE_ON_THE_BOUNDARY],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ("grid oracle: the net payoff is not finite at "
                                       "lattice belief [0.0, 1.0]")

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

    @pytest.mark.parametrize("n_states", [2, 3])
    def test_duplicate_actions_go_to_the_lowest_index(self, n_states):
        # a tie on the envelope goes to the lowest action index: a copy of
        # an action is never assigned, and the rule is the one of the menu
        # without the copy, plus its zero row
        rng = np.random.default_rng([11, n_states])
        prior = random_prior(rng, n_states)
        u = rng.normal(size=(3, n_states))
        copied = ic.Menu(["a0", "a1", "a2", "a3"], np.vstack([u, u[1]]))
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
        oracle = ic.grid_oracle(copied, prior, spec)
        plain = ic.grid_oracle(ic.Menu(["a0", "a1", "a2"], u), prior, spec)
        assert 3 not in oracle.assigned_actions
        assert oracle.assigned_actions == plain.assigned_actions
        assert oracle.value == plain.value
        assert np.array_equal(oracle.scr.probs, np.vstack([plain.scr.probs,
                                                           np.zeros(n_states)]))

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

    @pytest.mark.parametrize("div, a, b", [("kl", 1.0, 0.0), ("kl", 2.0, -0.4),
                                           ("chi", 1.0, 0.0), ("chi", 1.0, 0.3)])
    def test_transformed_spellings_match_the_plain_cost(self, div, a, b):
        # an identity or affine psi with slope a has the derivative cost of
        # the plain spelling at weight a; psi's intercept b shifts the value
        prior = ic.Prior(["x", "y", "z"], [0.2, 0.3, 0.5])
        menu = random_menu(np.random.default_rng(3), 3, 3)
        d = (ic.KLDivergence if div == "kl" else ic.ChiSquareDivergence)(prior)
        plain = ic.PosteriorSeparable(d) if a == 1.0 else ic.MutualInformation(prior, a)
        want = ic.grid_oracle(menu, prior, plain, 30)
        psis = [ic.AffinePsi(a, b)] + ([ic.IdentityPsi()] if (a, b) == (1.0, 0.0) else [])
        for psi in psis:
            got = ic.grid_oracle(menu, prior, ic.Transformed(d, psi), 30)
            assert np.array_equal(got.scr.probs, want.scr.probs)
            assert got.assigned_actions == want.assigned_actions
            assert got.value == want.value - b

    def test_affine_intercept_counts_in_the_oracle_value(self, binary_prior, sym2_menu):
        spec = ic.Transformed(ic.ChiSquareDivergence(binary_prior), ic.AffinePsi(1.0, 0.3))
        res = ic.solve(sym2_menu, binary_prior, spec)
        oracle = ic.grid_oracle(sym2_menu, binary_prior, spec, 400)
        assert abs(oracle.value - res.value) < 1e-3

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

        def recording_simplex(*args, **kwargs):
            x, y = revealed.simplex(*args, **kwargs)
            duals.append(y)
            return x, y

        monkeypatch.setattr(solver, "simplex", recording_simplex)
        oracle = ic.grid_oracle(menu, prior, spec, resolution)
        assert abs(oracle.value - ref) <= 1e-9 * max(1.0, abs(ref))
        # the LP's dual hyperplane supports the net payoff at every lattice
        # belief and meets it at the prior
        hyperplane = -duals[-1]
        assert (net - beliefs @ hyperplane).max() <= 1e-9 * max(1.0, np.abs(net).max())
        assert hyperplane @ prior.weights == pytest.approx(oracle.value, abs=1e-9)
        assert len(duals) <= len(beliefs)

    def test_failed_restricted_lp_raises(self, binary_prior, sym2_menu, monkeypatch):
        # a negative primal tolerance fails every certificate
        monkeypatch.setattr(revealed, "_PRIMAL_RTOL", -1.0)
        with pytest.raises(RuntimeError, match="oracle LP failed: certificate missed"):
            ic.grid_oracle(sym2_menu, binary_prior,
                           ic.MutualInformation(binary_prior), 400)

    @pytest.mark.parametrize("resolution", [0, -3, 2.5, "100", True])
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

    def test_value_is_the_lattice_optimum_to_rounding(self):
        # 3x2 chi-square rule (benchmark audit seed 0, batch 14) on which the
        # lattice optimum is 1.3325348832882316; an LP solved at 1e-7
        # tolerances returned 1.3325348205560217, 6.3e-8 below it
        prior = ic.Prior(["s0", "s1"], [0.6318892534968369, 0.36811074650316317])
        menu = ic.Menu(["a0", "a1", "a2"], [
            [-0.5436638135738918, 1.4584334699343198],
            [2.6175609286230417, -1.1647770647932876],
            [2.679726809247186, -1.427697820831145],
        ])
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
        oracle = ic.grid_oracle(menu, prior, spec)
        assert oracle.value == pytest.approx(1.3325348832882316, rel=1e-12, abs=0.0)


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
                res = ic.solve(menu, prior, ic.MutualInformation(prior, 1.0),
                               init_marginals=init)
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
