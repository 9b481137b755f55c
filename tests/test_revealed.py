import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import infochoice as ic
from conftest import random_prior, random_scr
from infochoice import revealed, solver

LOG2 = math.log(2.0)


class TestReveal:
    def test_uninformative_rule_reveals_the_prior(self, binary_prior):
        scr = ic.SCR([[0.5, 0.5], [0.5, 0.5]])
        rp = ic.reveal(scr, binary_prior)
        assert rp.marginals == pytest.approx([0.5, 0.5], abs=1e-15)
        for a in rp.included:
            assert rp.posteriors[a].weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_state_indicator_reveals_certainty(self, binary_prior):
        scr = ic.SCR([[1.0, 0.0], [0.0, 1.0]])
        rp = ic.reveal(scr, binary_prior)
        assert rp.marginals[0] == pytest.approx(0.5, abs=1e-15)
        assert rp.posteriors[0].weights == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_asymmetric_binary_rule(self, binary_prior):
        scr = ic.SCR([[0.25, 0.75], [0.75, 0.25]])
        rp = ic.reveal(scr, binary_prior)
        assert rp.marginals == pytest.approx([0.5, 0.5], abs=1e-15)
        assert rp.posteriors[0].weights == pytest.approx([0.25, 0.75], abs=1e-14)
        assert rp.posteriors[1].weights == pytest.approx([0.75, 0.25], abs=1e-14)

    def test_vanishing_action_is_excluded(self, binary_prior):
        scr = ic.SCR([[1.0, 1.0], [0.0, 0.0]])
        rp = ic.reveal(scr, binary_prior)
        assert rp.excluded == (1,)
        assert rp.posteriors[1] is None

    def test_dimension_mismatch(self, binary_prior):
        with pytest.raises(ic.InvalidInputError):
            ic.reveal(ic.SCR([[1.0, 0.0, 0.0]]), binary_prior)

    @pytest.mark.parametrize("probs", [[[0.9, 0.6], [0.6, 0.9]],
                                       [[0.3, 0.8], [0.5, 0.2]]],
                             ids=["uniform-sums", "unequal-sums"])
    def test_column_sums_off_one_are_refused(self, binary_prior, probs):
        # column sums of 1.5 reveal marginals summing to 1.5 and pass the
        # barycenter check, so only the column-sum gate refuses them
        scr = ic.SCR(probs)
        spec = ic.MutualInformation(binary_prior)
        for call in (lambda: ic.reveal(scr, binary_prior),
                     lambda: ic.kappa(spec, scr, binary_prior)):
            with pytest.raises(ic.InvalidInputError, match=r"^state x: action sum"):
                call()

    def test_the_record_derives_its_split_from_the_mask(self):
        rng = np.random.default_rng(4)
        prior = random_prior(rng, 3)
        probs = random_scr(rng, 5, 3).probs.copy()
        probs[[1, 3]] = 0.0
        scr = ic.SCR(probs / probs.sum(axis=0))
        rp = ic.reveal(scr, prior)
        assert isinstance(rp, ic.RevealedPolicy)
        assert rp.probs is scr.probs
        assert np.array_equal(rp.supported, rp.marginals > 1e-9)
        assert rp.included == (0, 2, 4) and rp.excluded == (1, 3)
        kept = rp.marginals[rp.supported]
        assert np.array_equal(rp.weights, kept / kept.sum())
        assert np.array_equal(rp.policy().weights, rp.weights)
        assert np.array_equal(rp.policy().belief_matrix(), rp.belief_matrix())
        for arr in (rp.marginals, rp.supported, rp.weights, rp.belief_matrix()):
            assert not arr.flags.writeable
        assert [b is None for b in rp.posteriors] == [False, True, False, True, False]

    def test_policy_refuses_a_rule_whose_supported_barycenter_misses_the_prior(self):
        # four actions under the support cutoff take state y with total
        # probability 7.6e-9: reveal and kappa accept the rule, but the policy of its
        # supported posteriors misses the prior by 1.9e-9, above the 1e-9 a
        # policy allows; built without that test, it would not even be as
        # informative as no information by ``blackwell_geq``
        e = 1.9e-9
        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        scr = ic.SCR([[0.5, 0.5 - 4 * e], [0.5, 0.5]] + [[0.0, e]] * 4)
        rp = ic.reveal(scr, prior)
        assert rp.included == (0, 1)
        assert np.isfinite(ic.kappa(ic.MutualInformation(prior), scr, prior))
        with pytest.raises(ic.InvalidInputError,
                           match=r"^policy: barycenter misses the prior by 1\.900e-09"):
            rp.policy()


class TestKappa:
    def test_state_independent_rule_is_free(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        scr = ic.SCR([[0.3, 0.3], [0.7, 0.7]])
        assert ic.kappa(spec, scr, binary_prior) == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_rule_price(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        scr = ic.SCR([[0.25, 0.75], [0.75, 0.25]])
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert ic.kappa(spec, scr, binary_prior) == pytest.approx(expected, abs=1e-14)

    def test_fully_revealing_price_is_prior_entropy(self, binary_prior):
        spec = ic.MutualInformation(binary_prior, 1.0)
        scr = ic.SCR([[1.0, 0.0], [0.0, 1.0]])
        assert ic.kappa(spec, scr, binary_prior) == pytest.approx(LOG2, abs=1e-14)


def _cost_families(prior):
    """One cost of every family, each with a finite value on every policy."""
    kl, chi = ic.KLDivergence(prior), ic.ChiSquareDivergence(prior)
    return {
        "mi": ic.MutualInformation(prior, 0.7),
        "ps": ic.PosteriorSeparable(chi),
        "transformed": ic.Transformed(kl, ic.PowerPsi(2.0)),
        "quadratic": ic.Quadratic(prior, lambda m, n: float(m @ n),
                                  declared_psd=True),
        "max-over-set": ic.MaxOverSet([kl, chi]),
    }


def _policy_route(spec, scr, prior):
    """Reference kappa: the cost of the revealed policy object."""
    return ic.cost_eval(spec, ic.reveal(scr, prior).policy())


class TestKappaMatrixRoute:
    @pytest.mark.parametrize("family", ["mi", "ps", "transformed", "quadratic",
                                        "max-over-set"])
    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_the_policy_object_route(self, family, excluded, seed):
        rng = np.random.default_rng([seed, 21])
        n_a, n_s = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        probs = random_scr(rng, n_a, n_s).probs.copy()
        if excluded:
            probs[rng.integers(n_a)] = 0.0
            probs /= probs.sum(axis=0)
        scr = ic.SCR(probs)
        spec = _cost_families(prior)[family]
        ref = _policy_route(spec, scr, prior)
        assert ic.kappa(spec, scr, prior) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case,message", [
        ("states", "scr shape"), ("unsupported", "action sum"),
        ("barycenter", "action sum"),
        ("prior", "prior does not match")])
    def test_raises_what_the_policy_object_route_raises(self, case, message):
        prior = ic.Prior(["x", "y"], [0.4, 0.6])
        spec = ic.MutualInformation(prior)
        scr = ic.SCR([[0.3, 0.8], [0.7, 0.2]])
        if case == "states":
            scr = ic.SCR([[0.2, 0.3, 0.5]])
        elif case == "unsupported":
            scr = ic.SCR([[0.0, 0.0], [0.0, 0.0]])
        elif case == "barycenter":
            scr = ic.SCR([[0.5, 0.2], [0.3, 0.2]])
        else:
            spec = ic.MutualInformation(ic.Prior(["x", "y"], [0.5, 0.5]))
        with pytest.raises(ic.InvalidInputError, match=message) as ref:
            _policy_route(spec, scr, prior)
        with pytest.raises(ic.InvalidInputError) as got:
            ic.kappa(spec, scr, prior)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


class TestBlackwell:
    def test_reflexive(self, binary_prior):
        p = ic.SimpleInfoPolicy(
            binary_prior, [[0.2, 0.8], [0.8, 0.2]], [0.5, 0.5]
        )
        res = ic.blackwell_geq(p, p)
        assert res.holds
        assert res.witness is not None

    def test_extremes_of_the_order(self, binary_prior):
        full = ic.SimpleInfoPolicy(
            binary_prior, [[1, 0], [0, 1]], [0.5, 0.5]
        )
        none = ic.SimpleInfoPolicy.uninformative(binary_prior)
        assert ic.blackwell_geq(full, none).holds
        down = ic.blackwell_geq(none, full)
        assert not down.holds
        assert down.infeasibility > 1e-3
        assert down.certificate is not None

    def test_witness_satisfies_the_split_equations(self, binary_prior):
        p = ic.SimpleInfoPolicy(
            binary_prior, [[0.1, 0.9], [0.9, 0.1]], [0.5, 0.5]
        )
        q = ic.SimpleInfoPolicy(
            binary_prior, [[0.3, 0.7], [0.7, 0.3]], [0.5, 0.5]
        )
        res = ic.blackwell_geq(p, q)
        assert res.holds
        w = res.witness
        assert w.sum(axis=1) == pytest.approx(np.asarray(q.weights), abs=1e-8)
        assert w.sum(axis=0) == pytest.approx(np.asarray(p.weights), abs=1e-8)
        mixed = w @ p.belief_matrix()
        target = q.weights[:, None] * q.belief_matrix()
        assert np.abs(mixed - target).max() < 1e-8

    def test_prior_mismatch(self, binary_prior):
        other = ic.Prior(["x", "y"], [0.3, 0.7])
        with pytest.raises(ic.InvalidInputError):
            ic.blackwell_geq(
                ic.SimpleInfoPolicy.uninformative(binary_prior),
                ic.SimpleInfoPolicy.uninformative(other),
            )


def _split_equations(p, q, row_sums):
    """The split equations of the informativeness LP, built row by row: q's
    row sums when asked, p's column sums, then mean preservation per q
    belief and state. Returns the matrix over the split variables and the
    right-hand side."""
    nq, npp, ns = q.n_beliefs, p.n_beliefs, p.prior.n_states
    mu_p, mu_q = p.belief_matrix(), q.belief_matrix()
    n_var = nq * npp
    rows, rhs = [], []
    if row_sums:
        for i in range(nq):
            row = np.zeros(n_var)
            row[[i * npp + j for j in range(npp)]] = 1.0
            rows.append(row)
            rhs.append(q.weights[i])
    for j in range(npp):
        row = np.zeros(n_var)
        row[[i * npp + j for i in range(nq)]] = 1.0
        rows.append(row)
        rhs.append(p.weights[j])
    for i in range(nq):
        for w in range(ns):
            row = np.zeros(n_var)
            for j in range(npp):
                row[i * npp + j] = mu_p[j, w]
            rows.append(row)
            rhs.append(q.weights[i] * mu_q[i, w])
    return np.vstack(rows), np.asarray(rhs)


def _phase_one_blackwell_lp(p, q):
    """Reference: the phase-one informativeness LP of ``blackwell_geq``,
    without q's row sums and with one shortfall per equation. Returns c, A,
    b and the number of split variables."""
    a_eq, b = _split_equations(p, q, row_sums=False)
    n_eq, n_var = a_eq.shape
    a = np.hstack([a_eq, np.eye(n_eq)])
    c = np.concatenate([np.zeros(n_var), np.ones(n_eq)])
    return c, a, b, n_var


def _elastic_verdict(p, q):
    """Whether the elastic form of the informativeness LP, every split
    equation (q's row sums too) with a surplus and a deficit, reaches zero
    violation within 1e-9 under HiGHS: the same question asked of a larger
    LP."""
    a_eq, b = _split_equations(p, q, row_sums=True)
    n_eq, n_var = a_eq.shape
    a = np.hstack([a_eq, np.eye(n_eq), -np.eye(n_eq)])
    c = np.concatenate([np.zeros(n_var), np.ones(2 * n_eq)])
    return _highs(c, a, b) <= 1e-9


def _random_policy(rng, prior, n_beliefs):
    return ic.reveal(random_scr(rng, n_beliefs, prior.n_states), prior).policy()


def _highs(c, a, b):
    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun


class TestSimplex:
    @pytest.mark.parametrize("seed", range(12))
    def test_elastic_blackwell_lp_matches_highs(self, seed, monkeypatch):
        rng = np.random.default_rng([seed, 7])
        prior = random_prior(rng, int(rng.integers(2, 5)))
        p = _random_policy(rng, prior, int(rng.integers(1, 6)))
        q = _random_policy(rng, prior, int(rng.integers(1, 6)))
        if seed % 2:
            q = ic.mix_policies(p, ic.SimpleInfoPolicy.uninformative(prior),
                                float(rng.uniform(0.2, 0.8)))
        c, a, b, n_var = _phase_one_blackwell_lp(p, q)
        seen, simplex = [], revealed.simplex

        def recording_simplex(*args, **kwargs):
            seen.append(args)
            return simplex(*args, **kwargs)

        monkeypatch.setattr(revealed, "simplex", recording_simplex)
        res = ic.blackwell_geq(p, q)
        # the constraints built by broadcasting are the row-by-row ones
        (c_got, a_got, b_got, _, _), = seen
        assert np.array_equal(c_got, c)
        assert np.array_equal(a_got, a)
        assert np.array_equal(b_got, b)
        ref = _highs(c, a, b)
        assert res.infeasibility == pytest.approx(ref, abs=1e-9)
        assert res.holds == (ref <= 1e-9)
        # dropping q's row sums and the deficits keeps the decision
        assert res.holds == _elastic_verdict(p, q)
        if res.holds:
            assert res.witness.sum() == pytest.approx(1.0, abs=1e-9)
        else:
            y = res.certificate
            assert (a[:, :n_var].T @ y).max() <= 1e-12
            assert b @ y == pytest.approx(res.infeasibility, abs=1e-12)
            assert y.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_lattice_lp_matches_highs(self, seed):
        rng = np.random.default_rng([seed, 8])
        n_s = seed % 3 + 1
        prior = random_prior(rng, n_s)
        beliefs = solver._simplex_lattice(n_s, int(rng.integers(1, 40)))
        net = rng.normal(size=len(beliefs))
        vertices = [np.flatnonzero(beliefs[:, k] == 1.0)[0] for k in range(n_s)]
        x, y = revealed.simplex(-net, beliefs.T, prior.weights, vertices, "oracle")
        ref = _highs(-net, beliefs.T, prior.weights)
        assert -net @ x == pytest.approx(ref, abs=1e-9 * max(1.0, abs(ref)))
        assert np.abs(beliefs.T @ x - prior.weights).max() <= 1e-12
        assert x.min() >= 0.0
        assert (-net - beliefs @ y).min() >= -1e-12 * np.abs(net).max()

    def test_beale_cycling_example_reaches_its_optimum(self):
        # Beale (1955) in equality form, x1..x3 the slack basis; Dantzig's
        # rule with lowest-index ties cycles on it
        c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        a = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        x, y = revealed.simplex(c, a, b, [0, 1, 2], "test")
        assert c @ x == pytest.approx(-1.25, abs=1e-12)
        assert b @ y == pytest.approx(-1.25, abs=1e-12)
        assert x == pytest.approx([0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_degenerate_pairs_hold(self):
        rng = np.random.default_rng(11)
        prior = random_prior(rng, 3)
        p = _random_policy(rng, prior, 4)
        rows = p.belief_matrix()
        twin = ic.SimpleInfoPolicy(prior, np.vstack([rows[:1], rows]),
                                   [p.weights[0] / 2, p.weights[0] / 2, *p.weights[1:]])
        none = ic.SimpleInfoPolicy.uninformative(prior)
        for pair in [(p, p), (twin, p), (p, twin), (twin, twin), (p, none),
                     (none, none)]:
            res = ic.blackwell_geq(*pair)
            assert res.holds
            assert res.infeasibility <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_separates_a_non_dominating_pair(self, seed):
        rng = np.random.default_rng([seed, 9])
        prior = random_prior(rng, int(rng.integers(2, 5)))
        p = _random_policy(rng, prior, int(rng.integers(2, 6)))
        none = ic.SimpleInfoPolicy.uninformative(prior)
        res = ic.blackwell_geq(none, p)
        assert not res.holds
        assert not _elastic_verdict(none, p)
        c, a, b, n_var = _phase_one_blackwell_lp(none, p)
        y = res.certificate
        # no split prices above zero, no price exceeds a shortfall's, and
        # the prices value b at the infeasibility: the dual of the phase-one
        # LP, a Farkas vector
        assert (a[:, :n_var].T @ y).max() <= 1e-12
        assert y.max() <= 1.0 + 1e-12
        assert b @ y == pytest.approx(res.infeasibility, abs=1e-12)

    def test_start_basis_must_be_the_identity(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        c, b = np.array([0.0, 0.0, -1.0]), np.array([1.0, 1.0])
        x, _ = revealed.simplex(c, a, b, [0, 1], "test")
        assert x == pytest.approx([0.0, 0.5, 0.5], abs=1e-15)
        # the right columns in the wrong order, then a column not a unit vector
        for basis in ([1, 0], [0, 2]):
            with pytest.raises(ValueError, match="test LP: the starting basis"):
                revealed.simplex(c, a, b, basis, "test")

    @pytest.mark.parametrize("entries, b, y", [
        # ratios 1 - 1e-13 and 1 tie within 1e-12 max |b|: the larger entry
        # leaves, not the smaller ratio
        ((1.0, 2.0), (1.0 - 1e-13, 2.0), (0.0, -0.5)),
        # equal entries in a tie: the lower index leaves, not the smaller ratio
        ((1.0, 1.0), (1.0 + 1e-13, 1.0), (-1.0, 0.0)),
        # ratios 1 and 1 + 5e-10 do not tie: the smaller leaves
        ((1.0, 2.0), (1.0, 2.0 + 1e-9), (-1.0, 0.0)),
    ], ids=["larger-entry-in-a-tie", "lower-index-in-a-tie", "no-tie"])
    def test_harris_ratio_test_picks_the_leaving_row(self, entries, b, y):
        # one pivot brings column 2 in; the row it leaves from decides the
        # duals of the optimal basis, y = -e_i / entries[i]
        c = np.array([0.0, 0.0, -1.0])
        a = np.array([[1.0, 0.0, entries[0]], [0.0, 1.0, entries[1]]])
        _, got = revealed.simplex(c, a, np.array(b), [0, 1], "test")
        assert got == pytest.approx(y, abs=1e-15)

    def test_column_without_a_pivot_raises(self):
        c = np.array([0.0, 0.0, -1.0])
        a = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(RuntimeError,
                           match="test LP failed: no pivot in column 2"):
            revealed.simplex(c, a, np.array([1.0, 1.0]), [0, 1], "test")

    @pytest.mark.parametrize("c, b", [([0.0, 0.0, -math.inf], [1.0, 1.0]),
                                      ([0.0, 0.0, -1.0], [math.inf, 1.0])])
    def test_non_finite_cost_or_right_hand_side_raises(self, c, b):
        # an infinite cost made a wrong optimum and a nan one no end of
        # refreshed tableaus
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(RuntimeError, match="test LP failed: .* not finite"):
            revealed.simplex(np.array(c), a, np.array(b), [0, 1], "test")

    def test_pivot_bound_raises(self, monkeypatch):
        monkeypatch.setattr(revealed, "_PIVOTS_PER_DIM", 0)
        c = np.array([0.0, 0.0, -1.0])
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
        with pytest.raises(RuntimeError,
                           match="test LP failed: no optimum in 0 pivots"):
            revealed.simplex(c, a, np.array([1.0, 1.0]), [0, 1], "test")

    def test_failed_certificate_raises(self, monkeypatch):
        # a negative primal tolerance fails every certificate
        monkeypatch.setattr(revealed, "_PRIMAL_RTOL", -1.0)
        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        none = ic.SimpleInfoPolicy.uninformative(prior)
        with pytest.raises(RuntimeError,
                           match="informativeness LP failed: certificate missed"):
            ic.blackwell_geq(none, none)


class TestMixPolicies:
    def test_beta_endpoints_are_identities(self, binary_prior):
        p = ic.SimpleInfoPolicy(
            binary_prior, [[0.2, 0.8], [0.8, 0.2]], [0.5, 0.5]
        )
        q = ic.SimpleInfoPolicy.uninformative(binary_prior)
        full = ic.mix_policies(p, q, 1.0)
        assert full.n_beliefs == p.n_beliefs
        nothing = ic.mix_policies(p, q, 0.0)
        assert nothing.n_beliefs == 1

    def test_duplicate_beliefs_merge(self, binary_prior):
        q = ic.SimpleInfoPolicy.uninformative(binary_prior)
        mixed = ic.mix_policies(q, q, 0.37)
        assert mixed.n_beliefs == 1
        assert mixed.weights[0] == pytest.approx(1.0, abs=1e-15)


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_reveal_is_bayes_plausible(seed, n_a, n_s):
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, n_s)
    rp = ic.reveal(random_scr(rng, n_a, n_s), prior)
    policy = rp.policy()
    bary = policy.weights @ policy.belief_matrix()
    assert np.abs(bary - prior.weights).max() < 1e-9


@pytest.mark.parametrize("seed", range(50))
def test_indirect_cost_is_convex_along_mixtures(seed):
    rng = np.random.default_rng(seed)
    n_a, n_s = rng.integers(2, 5), rng.integers(2, 5)
    prior = random_prior(rng, n_s)
    spec = ic.MutualInformation(prior, 1.0)
    s, t = random_scr(rng, n_a, n_s), random_scr(rng, n_a, n_s)
    beta = float(rng.uniform(0.05, 0.95))
    mixed = ic.SCR(beta * s.probs + (1 - beta) * t.probs)
    lhs = ic.kappa(spec, mixed, prior)
    rhs = beta * ic.kappa(spec, s, prior) + (1 - beta) * ic.kappa(spec, t, prior)
    assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("seed", range(30))
def test_mixture_policy_dominates_revealed_policy_of_mixture(seed):
    rng = np.random.default_rng(seed)
    n_a, n_s = rng.integers(2, 5), rng.integers(2, 4)
    prior = random_prior(rng, n_s)
    s, t = random_scr(rng, n_a, n_s), random_scr(rng, n_a, n_s)
    beta = float(rng.uniform(0.1, 0.9))
    upper = ic.mix_policies(
        ic.reveal(s, prior).policy(), ic.reveal(t, prior).policy(), beta
    )
    mixed = ic.SCR(beta * s.probs + (1 - beta) * t.probs)
    lower = ic.reveal(mixed, prior).policy()
    assert ic.blackwell_geq(upper, lower).holds


@pytest.mark.parametrize("seed", range(20))
def test_strict_information_drop_when_posteriors_differ(seed):
    # when a shared action's revealed posteriors differ, the mixture of
    # policies strictly dominates: the two policies cannot coincide and a
    # strictly monotone cost separates them
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 3)
    s, t = random_scr(rng, 3, 3), random_scr(rng, 3, 3)
    rp_s, rp_t = ic.reveal(s, prior), ic.reveal(t, prior)
    shared_diff = any(
        a in rp_t.included
        and np.abs(rp_s.posteriors[a].weights - rp_t.posteriors[a].weights).max() > 1e-6
        for a in rp_s.included
    )
    if not shared_diff:
        pytest.skip("degenerate draw: all shared posteriors coincide")
    beta = 0.5
    upper = ic.mix_policies(rp_s.policy(), rp_t.policy(), beta)
    mixed = ic.SCR(beta * s.probs + (1 - beta) * t.probs)
    spec = ic.MutualInformation(prior, 1.0)
    margin = (
        beta * ic.kappa(spec, s, prior) + (1 - beta) * ic.kappa(spec, t, prior)
        - ic.kappa(spec, mixed, prior)
    )
    assert ic.blackwell_geq(upper, ic.reveal(mixed, prior).policy()).holds
    assert margin > 0.0


@pytest.mark.parametrize("seed", range(10))
def test_reveal_is_stable_under_tiny_perturbations(seed):
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, 3)
    base = random_scr(rng, 3, 3)
    probs = 0.03 + 0.91 * base.probs  # marginals comfortably above 0.01
    probs = probs / probs.sum(axis=0)
    s = ic.SCR(probs)
    bump = rng.normal(size=probs.shape)
    bump -= bump.mean(axis=0)
    bump *= 1e-8 / np.abs(bump).max()
    t = ic.SCR(probs + bump)
    rp_s, rp_t = ic.reveal(s, prior), ic.reveal(t, prior)
    for a in rp_s.included:
        gap = np.abs(rp_s.posteriors[a].weights - rp_t.posteriors[a].weights).max()
        assert gap < 1e-5
