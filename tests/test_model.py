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
        report = ic.validate(binary_prior, menu, ic.SCR([[0.6, 0.5], [0.5, 0.5]]))
        assert report.problems == ("state x: action sum 1.1 != 1",)

    def test_menu_rejects_nonfinite(self):
        with pytest.raises(ic.InvalidInputError):
            ic.Menu(["a"], [[np.inf, 0.0]])

    def test_policy_rejects_off_prior_barycenter(self):
        prior = ic.Prior(["x", "y"], [0.5, 0.5])
        with pytest.raises(ic.InvalidInputError):
            ic.SimpleInfoPolicy(prior, [[0.9, 0.1]], [1.0])

    def test_arrays_are_immutable(self, binary_prior):
        with pytest.raises(ValueError):
            binary_prior.weights[0] = 0.3


class TestValidate:
    def test_symmetric_pair_is_valid(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        scr = ic.SCR([[0.5, 0.5], [0.5, 0.5]])
        assert ic.validate(binary_prior, menu, scr).ok

    def test_column_sum_violation_is_reported_with_state(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        scr = ic.SCR([[0.5, 0.5], [0.4, 0.5]])
        report = ic.validate(binary_prior, menu, scr)
        assert not report.ok
        assert any("state x" in p and "0.9" in p for p in report.problems)

    def test_zero_weight_prior_is_reported(self):
        prior = ic.Prior(["x", "y", "z"], [0.5, 0.5, 0.0])
        menu = ic.Menu(["a"], [[0.0, 0.0, 0.0]])
        report = ic.validate(prior, menu)
        assert any("full support" in p for p in report.problems)

    def test_require_valid_raises(self, binary_prior):
        menu = ic.Menu(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        scr = ic.SCR([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ic.InvalidInputError):
            require_valid(binary_prior, menu, scr)


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
