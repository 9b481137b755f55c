"""What the audit path's results keep alive.

A caller that holds many results (the benchmark keeps every output until
its checks run) pays for every instance dict and every array they pin, so
the result types use slots, a witness does not view the whole LP
solution, the oracle's cached lattice is shared read-only, and one audit
case's outputs keep no more than they did when policies were tuples of
separately validated beliefs.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import infochoice as ic
from conftest import random_interior_scr, random_prior
from infochoice import solver


@pytest.fixture
def case():
    rng = np.random.default_rng(5)
    prior = random_prior(rng, 3)
    scr = random_interior_scr(rng, 4, 3)
    spec = ic.MutualInformation(prior, 0.5)
    menu = ic.rationalize(scr, prior, spec)
    return prior, scr, spec, menu


def test_audit_results_have_no_instance_dict(case):
    prior, scr, spec, menu = case
    rp = ic.reveal(scr, prior)
    policy = rp.policy()
    garbled = ic.mix_policies(policy, ic.SimpleInfoPolicy.uninformative(prior), 0.5)
    results = [
        prior, scr, menu, rp, policy, garbled, *policy.beliefs, *garbled.beliefs,
        ic.certify(scr, menu, prior, spec),
        ic.recover_utility(scr, prior, spec),
        ic.unique_check(scr, prior),
        ic.blackwell_geq(policy, garbled),
        ic.blackwell_geq(garbled, policy),
        ic.grid_oracle(menu, prior, spec),
    ]
    for obj in results:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_blackwell_witness_owns_its_data(case):
    prior, scr, _, _ = case
    policy = ic.reveal(scr, prior).policy()
    garbled = ic.mix_policies(policy, ic.SimpleInfoPolicy.uninformative(prior), 0.5)
    res = ic.blackwell_geq(policy, garbled)
    assert res.holds
    assert res.witness.base is None
    assert not res.witness.flags.writeable


@pytest.mark.parametrize("n_states,resolution", [(1, 5), (2, 400), (3, 100)])
def test_cached_lattice_is_read_only(n_states, resolution):
    beliefs, columns, vertices = solver._lattice(n_states, resolution)
    assert np.array_equal(beliefs, solver._simplex_lattice(n_states, resolution))
    assert np.array_equal(beliefs[vertices], np.eye(n_states))
    assert np.array_equal(columns, beliefs.T)
    assert columns.flags.c_contiguous
    for arr in (beliefs, columns, vertices):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert solver._lattice(n_states, resolution)[0] is beliefs


def test_repeated_oracle_calls_agree(case):
    prior, _, spec, menu = case
    first = ic.grid_oracle(menu, prior, spec)
    second = ic.grid_oracle(menu, prior, spec)
    assert first.value == second.value
    assert first.assigned_actions == second.assigned_actions
    assert np.array_equal(first.scr.probs, second.scr.probs)
    assert np.array_equal(first.policy.weights, second.policy.weights)
    assert np.array_equal(first.policy.belief_matrix(), second.policy.belief_matrix())


def audit_outputs(prior, spec, scr, menu, perturbed, beta):
    """What one audit case keeps: the outputs of every audit step on it."""
    rp = ic.reveal(scr, prior)
    policy = rp.policy()
    garbled = ic.mix_policies(policy, ic.SimpleInfoPolicy.uninformative(prior), beta)
    unique = ic.unique_check(scr, prior)
    return {
        "reveal": rp,
        "kappa": ic.kappa(spec, scr, prior),
        "certify": ic.certify(scr, menu, prior, spec),
        "certify_perturbed": ic.certify(scr, perturbed, prior, spec),
        "recovered": ic.recover_utility(scr, prior, spec),
        "unique": unique,
        "blackwell": ic.blackwell_geq(policy, garbled),
        "oracle": ic.grid_oracle(menu, prior, spec),
        "twin": None if unique.unique_capable
        else ic.find_equivalent(scr, menu, prior, spec),
    }


def retained_bytes(make):
    """Bytes that the result of ``make()`` keeps allocated, by tracemalloc,
    after a first call has warmed every cache."""
    make()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


#: bytes the outputs of the case below retained when policies were tuples
#: of separately validated beliefs (Python 3.11, numpy 2.4)
PER_BELIEF_POLICY_BYTES = 5168


def test_one_audit_case_retains_no_more_than_per_belief_policies():
    rng = np.random.default_rng(17)
    prior = random_prior(rng, 3)
    scr = random_interior_scr(rng, 4, 3)
    spec = ic.MutualInformation(prior, 0.5)
    menu = ic.rationalize(scr, prior, spec)
    bumped = menu.utilities.copy()
    bumped[0, 0] += 0.1
    perturbed = ic.Menu(menu.actions, bumped)
    size, kept = retained_bytes(
        lambda: audit_outputs(prior, spec, scr, menu, perturbed, 0.5))
    assert kept["twin"] is not None and kept["oracle"].policy.n_beliefs >= 2
    assert size <= PER_BELIEF_POLICY_BYTES
