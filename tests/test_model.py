import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infochoice as ic
from infochoice.model import require_valid


class TestConstruction:
    def test_prior_renormalizes_tiny_roundoff(self):
        p = ic.Prior(["x", "y", "z"], [1 / 3, 1 / 3, 1 / 3])
        assert p.weights.sum() == 1.0

    def test_prior_rejects_bad_sum(self):
        with pytest.raises(ic.InvalidInputError):
            ic.Prior(["x", "y"], [0.6, 0.6])

    def test_prior_allows_zero_weight_for_reporting(self):
        p = ic.Prior(["x", "y", "z"], [0.5, 0.5, 0.0])
        assert not p.full_support

    def test_scr_clamps_roundoff_negatives(self):
        s = ic.SCR([[1.0 + 5e-13, -5e-13], [0.0, 1.0]])
        assert s.probs.min() == 0.0
        assert s.probs.max() == 1.0

    def test_scr_rejects_genuine_negatives(self):
        with pytest.raises(ic.InvalidInputError):
            ic.SCR([[-1e-6, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("build, message", [
        (lambda: ic.SCR([[1.7, 0.5], [0.0, 0.5]]), "scr probs: entry 1.700e+00"),
        (lambda: ic.Prior(["x", "y"], [5, 0]), "prior weights: entry 5.000e+00"),
        (lambda: ic.Belief([1.0 + 1e-9, 0.0]), "belief weights: entry 1.000e+00"),
        (lambda: ic.SimpleInfoPolicy(ic.Prior(["x", "y"], [0.5, 0.5]),
                                     [[0.5, 0.5]], [3.0]),
         "policy weights: entry 3.000e+00"),
    ], ids=["scr", "prior", "belief", "policy-weights"])
    def test_entries_above_one_are_refused_naming_the_object(self, build, message):
        # an overshoot beyond the roundoff tolerance is an error, not clamped
        with pytest.raises(ic.InvalidInputError) as exc:
            build()
        assert str(exc.value).startswith(message + " above 1 + 1e-12")

    def test_sum_messages_print_plain_floats(self, binary_prior):
        with pytest.raises(ic.InvalidInputError) as exc:
            ic.Prior(["x", "y"], [0.6, 0.5])
        assert str(exc.value) == "prior weights: sum 1.1 != 1"
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        problems = ic.validate(binary_prior, menu, ic.SCR([[0.6, 0.5], [0.5, 0.5]]))
        assert problems == ("state x: action sum 1.1 != 1",)

    def test_menu_rejects_nonfinite(self):
        with pytest.raises(ic.InvalidInputError):
            ic.Menu(["a"], [[np.inf, 0.0]])

    def test_policy_rejects_off_prior_barycenter(self):
        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        with pytest.raises(ic.InvalidInputError):
            ic.SimpleInfoPolicy(prior, [[0.9, 0.1]], [1.0])

    def test_records_compare_and_hash_without_raising(self):
        # priors compare and hash by value, and so do the cost specs built
        # on equal priors; records that hold arrays compare by identity
        priors = [ic.Prior(["x", "y"], [0.5, 0.5]) for _ in range(2)]
        assert priors[0] == priors[1] and hash(priors[0]) == hash(priors[1])
        assert priors[0] != ic.Prior(["x", "y"], [0.4, 0.6])
        for make in (ic.KLDivergence, lambda p: ic.MutualInformation(p, 2.0),
                     lambda p: ic.PosteriorSeparable(ic.ChiSquareDivergence(p)),
                     lambda p: ic.Transformed(ic.KLDivergence(p), ic.PowerPsi(2.0))):
            a, b = (make(p) for p in priors)
            assert a == b and hash(a) == hash(b)
        # and so do solver options, which hold numbers only
        assert ic.SolveOptions(tol=1e-9) == ic.SolveOptions(tol=1e-9) != ic.SolveOptions()
        assert hash(ic.SolveOptions()) == hash(ic.SolveOptions())

        def records(prior):
            menu = ic.Menu(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
            spec = ic.MutualInformation(prior)
            res = ic.solve(menu, prior, spec)
            policy = ic.reveal(res.scr, prior).policy()
            return [menu, res.scr, policy, ic.Belief([0.5, 0.5]), res, res.certificate,
                    ic.recover_utility(res.scr, prior, spec),
                    ic.unique_check(res.scr, prior),
                    ic.predict_submenus(res.scr, menu, prior, spec),
                    ic.blackwell_geq(policy, policy), ic.grid_oracle(menu, prior, spec, 10)]

        for a, b in zip(records(priors[0]), records(priors[1])):
            assert a == a and a != b, type(a).__name__
            assert isinstance(hash(a), int)

    def test_arrays_are_immutable(self, binary_prior):
        with pytest.raises(ValueError):
            binary_prior.weights[0] = 0.3


class TestValidate:
    def test_symmetric_pair_is_valid(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        scr = ic.SCR([[0.5, 0.5], [0.5, 0.5]])
        assert ic.validate(binary_prior, menu, scr) == ()

    def test_column_sum_violation_is_reported_with_state(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        scr = ic.SCR([[0.5, 0.5], [0.4, 0.5]])
        problems = ic.validate(binary_prior, menu, scr)
        assert problems
        assert any("state x" in p and "0.9" in p for p in problems)

    def test_zero_weight_prior_is_reported(self):
        prior = ic.Prior(["x", "y", "z"], [0.5, 0.5, 0.0])
        menu = ic.Menu(["a"], [[0.0, 0.0, 0.0]])
        problems = ic.validate(prior, menu)
        assert any("full support" in p for p in problems)

    def test_require_valid_raises(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        scr = ic.SCR([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ic.InvalidInputError):
            require_valid(binary_prior, menu, scr)


# The entry points that check a problem's inputs, each with the arguments
# it takes: the prior always, and some of the menu, the rule and the cost.
_ENTRY_POINTS = {
    "reveal": ({"scr"}, lambda p, m, s, c: ic.reveal(s, p)),
    "unique_check": ({"scr"}, lambda p, m, s, c: ic.unique_check(s, p)),
    "kappa": ({"scr", "spec"}, lambda p, m, s, c: ic.kappa(c, s, p)),
    "recover_utility": ({"scr", "spec"}, lambda p, m, s, c: ic.recover_utility(s, p, c)),
    "rationalize": ({"scr", "spec"}, lambda p, m, s, c: ic.rationalize(s, p, c)),
    "certify": ({"menu", "scr", "spec"}, lambda p, m, s, c: ic.certify(s, m, p, c)),
    "find_equivalent": ({"menu", "scr", "spec"},
                        lambda p, m, s, c: ic.find_equivalent(s, m, p, c)),
    "predict_submenus": ({"menu", "scr", "spec"},
                         lambda p, m, s, c: ic.predict_submenus(s, m, p, c)),
    "solve": ({"menu", "spec"}, lambda p, m, s, c: ic.solve(m, p, c)),
    "solve-mi-cost": ({"menu", "spec"}, lambda p, m, s, c: ic.solve(
        m, p, ic.MutualInformation(c.prior))),
    "solve_ps": ({"menu", "spec"}, lambda p, m, s, c: ic.solve_ps(m, p, c)),
    "grid_oracle": ({"menu", "spec"}, lambda p, m, s, c: ic.grid_oracle(m, p, c)),
    "solve_mi": ({"menu"}, lambda p, m, s, c: ic.solve_mi(m, p, 1.0)),
    "cost_eval": ({"spec"}, lambda p, m, s, c: ic.cost_eval(
        c, ic.SimpleInfoPolicy.uninformative(p))),
    "cost constructor": (set(), lambda p, m, s, c: ic.ChiSquareDivergence(p)),
}

# Each fault, the argument that carries it, and the one message it gets.
_FAULTS = {
    "zero-weight prior": ("prior", "prior not full support (zero weight on y)"),
    "menu state count": ("menu", "menu has 3 state columns, prior has 2 states"),
    "rule state count": ("scr", "scr shape (2, 3) does not match 2 actions x 2 states"),
    "rule action count": ("scr", "scr shape (3, 2) does not match 2 actions x 2 states"),
    "column sum": ("scr", "state x: action sum 0.75 != 1"),
    "cost on another prior": ("spec", "prior does not match the cost's prior"),
}


def _faulty_inputs(fault):
    """A valid 2 x 2 chi-square problem with ``fault`` put in."""
    prior = ic.Prior(["x", "y"], [0.4, 0.6])
    menu = ic.Menu(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    scr = ic.SCR([[0.7, 0.2], [0.3, 0.8]])
    spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
    if fault == "zero-weight prior":
        prior = ic.Prior(["x", "y"], [1.0, 0.0])
    elif fault == "menu state count":
        menu = ic.Menu(["a", "b"], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    elif fault == "rule state count":
        scr = ic.SCR([[0.7, 0.2, 0.5], [0.3, 0.8, 0.5]])
    elif fault == "rule action count":
        scr = ic.SCR([[0.6, 0.2], [0.3, 0.4], [0.1, 0.4]])
    elif fault == "column sum":
        scr = ic.SCR([[0.5, 0.2], [0.25, 0.8]])
    else:
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(
            ic.Prior(["x", "y"], [0.5, 0.5])))
    return prior, menu, scr, spec


def _cells():
    for fault, (argument, message) in _FAULTS.items():
        for name, (takes, call) in _ENTRY_POINTS.items():
            # an action count needs a menu to count against
            needs = {argument} | ({"menu"} if fault == "rule action count" else set())
            if argument == "prior" or needs <= takes:
                yield pytest.param(fault, call, message, id=f"{fault}-{name}")


class TestOneGate:
    @pytest.mark.parametrize("fault, call, message", list(_cells()))
    def test_every_entry_point_gives_the_fault_its_one_message(self, fault, call,
                                                               message):
        with pytest.raises(ic.InvalidInputError) as exc:
            call(*_faulty_inputs(fault))
        assert str(exc.value) == message

    def test_faults_are_reported_in_order(self):
        prior = ic.Prior(["x", "y"], [1.0, 0.0])
        menu = ic.Menu(["a"], [[0.0, 0.0, 0.0]])
        assert ic.validate(prior, menu, ic.SCR([[0.5, 0.5], [0.5, 0.5]])) == (
            "prior not full support (zero weight on y)",
            "menu has 3 state columns, prior has 2 states",
            "scr shape (2, 2) does not match 1 actions x 2 states",
        )

    def test_kappa_prices_what_rule_value_prices_below_the_cutoff(self):
        # four actions under the support cutoff carry 7.6e-9 of mass, more
        # than the 1e-9 a policy's barycenter may miss the prior by
        from infochoice.inverse import rule_value
        from infochoice.revealed import revealed_posteriors

        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        tiny = 1.9e-9
        scr = ic.SCR([[0.75 - 2 * tiny, 0.25], [0.25 - 2 * tiny, 0.75]]
                     + [[tiny, 0.0]] * 4)
        spec = ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))
        rp = revealed_posteriors(scr.probs, prior)
        assert rp.supported.tolist() == [True, True, False, False, False, False]
        zero = np.zeros(scr.probs.shape)
        assert ic.kappa(spec, scr, prior) == -rule_value(zero, rp, spec)
        assert ic.kappa(spec, scr, prior) > 0.0


class TestSubmenu:
    def test_selects_rows_in_original_order(self):
        menu = ic.Menu(["a", "b", "c"], [[1, 2], [3, 4], [5, 6]])
        sub = ic.submenu(menu, ["c", "a"])
        assert sub.actions == ("a", "c")
        assert np.array_equal(sub.utilities, [[1, 2], [5, 6]])

    def test_full_subset_is_identity(self):
        menu = ic.Menu(["a", "b"], [[1, 2], [3, 4]])
        sub = ic.submenu(menu, menu.actions)
        assert sub.actions == menu.actions
        assert np.array_equal(sub.utilities, menu.utilities)

    def test_empty_subset_rejected(self):
        menu = ic.Menu(["a", "b"], [[1, 2], [3, 4]])
        with pytest.raises(ic.InvalidInputError, match="empty submenu"):
            ic.submenu(menu, [])

    def test_unknown_label_rejected(self):
        menu = ic.Menu(["a", "b"], [[1, 2], [3, 4]])
        with pytest.raises(ic.InvalidInputError, match="unknown action"):
            ic.submenu(menu, ["zz"])


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10_000))
def test_every_state_column_is_a_point_in_the_action_simplex(n_a, n_s, seed):
    rng = np.random.default_rng(seed)
    scr = ic.SCR(rng.dirichlet(np.ones(n_a), size=n_s).T)
    cols = scr.probs.sum(axis=0)
    assert scr.probs.min() >= 0.0
    assert np.abs(cols - 1.0).max() < 1e-10


@given(st.integers(2, 4), st.integers(0, 10_000))
def test_support_ignores_vanishing_rows(n_a, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_a), size=3).T
    probs[0] = 0.0
    probs = probs / probs.sum(axis=0)
    rp = ic.reveal(ic.SCR(probs), ic.Prior(["x", "y", "z"], [0.2, 0.3, 0.5]))
    assert 0 in rp.excluded and 0 not in rp.included
    assert set(rp.included) <= set(range(n_a))
