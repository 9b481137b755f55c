"""Invariances the theory guarantees, on the forward solvers and certify.

Adding a state-dependent, action-independent term to the utility, scaling
utility and cost together, and relabelling states (with the prior) or
actions leave the optimal rule unchanged up to the same relabelling, and
the certificate's residual moves accordingly. The two solvers agree on
mutual-information problems.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infochoice as ic
from conftest import random_menu, random_prior

#: solves stop once the first-order residual, whose slack part is
#: max gamma_a * s_a, is below 1e-8. That bounds the value gap; along a flat
#: direction, such as an action whose probability is still draining toward
#: zero, a value gap d leaves room for a rule gap of order sqrt(d).
RULE_TOL = 1e-4
CERT_TOL = 1e-10


def _value_tol(menu, c=1.0):
    """Concavity puts a rule whose slack is r within n_actions * r of the
    optimal value; two solves at residual 1e-8, in units of 1 and c."""
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
    assert np.abs(moved.scr.probs - base.scr.probs).max() < RULE_TOL
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
    assert np.abs(moved.scr.probs - expected).max() < RULE_TOL
    assert moved.value == pytest.approx(base.value, abs=_value_tol(menu))
    assert _residual(ic.SCR(expected), relabelled, relabelled_prior, spec) == \
        pytest.approx(base.residual, abs=CERT_TOL)


@given(seed=seeds)
def test_fixed_point_and_mirror_ascent_agree_on_mutual_information(seed):
    rng, menu, prior = _instance(seed)
    scale = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
    spec = ic.MutualInformation(prior, scale)
    fixed = ic.solve_mi(menu, prior, scale)
    mirror = ic.solve_ps(menu, prior, spec)
    assert np.abs(fixed.scr.probs - mirror.scr.probs).max() < RULE_TOL
    assert fixed.value == pytest.approx(mirror.value, abs=1e-8)
    for res in (fixed, mirror):
        assert ic.certify(res.scr, menu, prior, spec).verdict == "optimal"
