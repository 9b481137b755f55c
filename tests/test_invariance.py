"""Invariances the theory guarantees, on the forward solvers, certify and
the cross-menu forecasts.

Adding a state-dependent, action-independent term to the utility, scaling
utility and cost together, and relabelling states (with the prior) or
actions leave the optimal rule unchanged up to the same relabelling, and
the certificate's residual moves accordingly. The two solvers agree on
mutual-information problems. Forecasts from a solved grand rule map onto
each other the same way.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infochoice as ic
from conftest import random_menu, random_prior
from infochoice import solver
from infochoice.model import OPTIMAL_TOL

#: the constant-weight solvers return the optimum to rounding. The weight
#: root of a nonlinear psi does too where K(x(w)) is smooth; where it
#: jumps, the rule mixes two optimal rules at a share certified to a gap of
#: 1e-8, and two such rules can sit 1.5e-8 apart (seed 4347)
RULE_TOL = 1e-8
ROOT_RULE_TOL = 1e-7


def _rule_tol(kind):
    return ROOT_RULE_TOL if kind == "kl2" else RULE_TOL
CERT_TOL = 1e-10


def _value_tol(menu, c=1.0):
    """A rule whose duality gap is r is within r of the optimal value; two
    solves at 1e-8, in units of 1 and c, with n_actions of headroom."""
    return (1.0 + c) * menu.n_actions * 1e-8


def _spec(kind, prior, scale=1.0):
    if kind == "mi":
        return ic.MutualInformation(prior, scale)
    if kind == "chi":
        chi = ic.ChiSquareDivergence(prior)
        return ic.PosteriorSeparable(chi) if scale == 1.0 else \
            ic.Transformed(chi, ic.AffinePsi(scale))
    return ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0))


def _solve(kind, menu, prior, spec):
    if kind == "mi":
        return ic.solve_mi(menu, prior, spec.scale)
    return ic.solve_ps(menu, prior, spec)


def _instance(seed):
    rng = np.random.default_rng(seed)
    n_a, n_s = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    return rng, random_menu(rng, n_a, n_s), random_prior(rng, n_s)


def _residual(scr, menu, prior, spec):
    return ic.certify(scr, menu, prior, spec).residual


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("kind", ["mi", "chi", "kl2"])
@given(seed=seeds)
def test_state_term_leaves_the_rule_unchanged(kind, seed):
    rng, menu, prior = _instance(seed)
    spec = _spec(kind, prior)
    shifted = ic.Menu(menu.actions,
                      menu.utilities + rng.normal(0.0, 3.0, prior.n_states)[None, :])
    base = _solve(kind, menu, prior, spec)
    moved = _solve(kind, shifted, prior, spec)
    assert np.abs(moved.scr.probs - base.scr.probs).max() < _rule_tol(kind)
    term = float(prior.weights @ (shifted.utilities[0] - menu.utilities[0]))
    assert moved.value == pytest.approx(base.value + term, abs=_value_tol(menu))
    # the term moves the multiplier only
    assert _residual(base.scr, shifted, prior, spec) == pytest.approx(
        base.residual, abs=CERT_TOL)


@pytest.mark.parametrize("kind", ["mi", "chi"])
@given(seed=seeds)
def test_joint_rescaling_leaves_the_rule_unchanged(kind, seed):
    rng, menu, prior = _instance(seed)
    c = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    scaled = ic.Menu(menu.actions, c * menu.utilities)
    base = _solve(kind, menu, prior, _spec(kind, prior))
    moved = _solve(kind, scaled, prior, _spec(kind, prior, c))
    assert np.abs(moved.scr.probs - base.scr.probs).max() < RULE_TOL
    assert moved.value == pytest.approx(c * base.value, abs=_value_tol(menu, c))
    assert _residual(base.scr, scaled, prior, _spec(kind, prior, c)) == pytest.approx(
        c * base.residual, abs=CERT_TOL)


@pytest.mark.parametrize("kind", ["mi", "chi", "kl2"])
@given(seed=seeds)
def test_relabelling_permutes_the_rule(kind, seed):
    rng, menu, prior = _instance(seed)
    rows = rng.permutation(menu.n_actions)
    cols = rng.permutation(prior.n_states)
    relabelled_prior = ic.Prior([prior.states[j] for j in cols], prior.weights[cols])
    relabelled = ic.Menu([menu.actions[a] for a in rows], menu.utilities[rows][:, cols])
    base = _solve(kind, menu, prior, _spec(kind, prior))
    spec = _spec(kind, relabelled_prior)
    moved = _solve(kind, relabelled, relabelled_prior, spec)
    expected = base.scr.probs[rows][:, cols]
    assert np.abs(moved.scr.probs - expected).max() < _rule_tol(kind)
    assert moved.value == pytest.approx(base.value, abs=_value_tol(menu))
    assert _residual(ic.SCR(expected), relabelled, relabelled_prior, spec) == \
        pytest.approx(base.residual, abs=CERT_TOL)


@given(seed=seeds)
def test_mi_newton_and_dual_newton_agree_on_mutual_information(seed):
    rng, menu, prior = _instance(seed)
    scale = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
    spec = ic.MutualInformation(prior, scale)
    mi = ic.solve_mi(menu, prior, scale)
    dual = solver._dual_newton(menu, prior, spec, scale, None, OPTIMAL_TOL, 100_000)
    assert np.abs(mi.scr.probs - dual.scr.probs).max() < RULE_TOL
    assert mi.value == pytest.approx(dual.value, abs=1e-8)
    for res in (mi, dual):
        assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"


def _forecast(menu, prior, spec):
    """The forecasts from the grand rule ``solve`` gives, by action set, or
    None where that rule has an exact zero and no utility is recovered."""
    grand = ic.solve(menu, prior, spec).scr
    try:
        forecast = ic.predict_submenus(grand, menu, prior, spec)
    except ic.InvalidInputError:
        return None
    return {frozenset(p.actions): p for p in forecast.predictions}


def _anchored(seed):
    """2-3 actions on 2-4 states, each action with a home-state bonus so
    that most grand rules are interior (chi-square's half of the time)."""
    rng = np.random.default_rng(seed)
    n_a = int(rng.integers(2, 4))
    n_s = int(rng.integers(n_a, 5))
    u = rng.normal(0.0, 0.2, size=(n_a, n_s))
    u[np.arange(n_a), rng.permutation(n_s)[:n_a]] += 2.0
    return rng, ic.Menu([f"a{a}" for a in range(n_a)], u), random_prior(rng, n_s)


def _same_forecasts(base, moved, cols=None, c=1.0, term=0.0):
    """Every forecast of ``moved`` is the one of ``base``, its states
    relabelled by ``cols``, within RULE_TOL, its value c times plus
    ``term``, with the same verdict and unique flag."""
    assert (base is None) == (moved is None)
    if base is None:
        return
    assert base.keys() == moved.keys()
    for key, b in base.items():
        m = moved[key]
        # a submenu's rows follow the order of its labels in the menu
        want = (b.scr.probs if cols is None else b.scr.probs[:, cols])[
            [b.actions.index(a) for a in m.actions]]
        assert np.abs(m.scr.probs - want).max() < RULE_TOL, key
        assert m.value == pytest.approx(c * b.value + term, abs=_value_tol(m.scr, c))
        assert (m.verdict, m.unique_capable) == (b.verdict, b.unique_capable)


@pytest.mark.parametrize("kind", ["mi", "chi"])
@given(seed=seeds)
def test_forecasts_ignore_a_state_term(kind, seed):
    rng, menu, prior = _anchored(seed)
    spec = _spec(kind, prior)
    t = rng.normal(0.0, 3.0, prior.n_states)
    shifted = ic.Menu(menu.actions, menu.utilities + t[None, :])
    # the recovered utility is pinned down only up to a state term, so the
    # forecasts' values are the same too
    _same_forecasts(_forecast(menu, prior, spec), _forecast(shifted, prior, spec))


@pytest.mark.parametrize("kind", ["mi", "chi"])
@given(seed=seeds)
def test_forecasts_follow_joint_rescaling(kind, seed):
    rng, menu, prior = _anchored(seed)
    c = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    scaled = ic.Menu(menu.actions, c * menu.utilities)
    _same_forecasts(_forecast(menu, prior, _spec(kind, prior)),
                    _forecast(scaled, prior, _spec(kind, prior, c)), c=c)


@pytest.mark.parametrize("kind", ["mi", "chi"])
@given(seed=seeds)
def test_forecasts_follow_relabelling(kind, seed):
    rng, menu, prior = _anchored(seed)
    rows = rng.permutation(menu.n_actions)
    cols = rng.permutation(prior.n_states)
    relabelled_prior = ic.Prior([prior.states[j] for j in cols], prior.weights[cols])
    relabelled = ic.Menu([menu.actions[a] for a in rows], menu.utilities[rows][:, cols])
    _same_forecasts(_forecast(menu, prior, _spec(kind, prior)),
                    _forecast(relabelled, relabelled_prior, _spec(kind, relabelled_prior)),
                    cols=cols)
