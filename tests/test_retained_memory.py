"""What the audit path's results keep alive.

A caller that holds many results (the benchmark keeps every output until
its checks run) pays for every instance dict and every array they pin, so
the result types use slots, a witness does not view the whole LP
solution, and the oracle's cached lattice is shared read-only.
"""

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
    beliefs, vertices = solver._lattice(n_states, resolution)
    assert np.array_equal(beliefs, solver._simplex_lattice(n_states, resolution))
    assert np.array_equal(beliefs[vertices], np.eye(n_states))
    for arr in (beliefs, vertices):
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
