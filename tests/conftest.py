import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import infochoice as ic

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "_CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def binary_prior():
    return ic.Prior(["x", "y"], [0.5, 0.5])


@pytest.fixture
def sym2_menu():
    # action "1" pays in state x, action "0" pays in state y
    return ic.Menu(["1", "0"], [[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def sym2_solution(binary_prior, sym2_menu):
    return ic.solve_mi(sym2_menu, binary_prior, 1.0)


def random_prior(rng, n_states):
    w = rng.uniform(0.2, 1.0, size=n_states)
    return ic.Prior([f"s{i}" for i in range(n_states)], w / w.sum())


def random_scr(rng, n_actions, n_states):
    cols = rng.dirichlet(np.ones(n_actions), size=n_states)
    return ic.SCR(cols.T)


def random_interior_scr(rng, n_actions, n_states, floor=0.05):
    cols = rng.dirichlet(np.ones(n_actions), size=n_states)
    cols = floor / n_actions + (1.0 - floor) * cols
    return ic.SCR(cols.T)


def conditionally_full(scr, prior):
    """Every entry of the rule positive and no action excluded by ``reveal``."""
    return scr.probs.min() > 0.0 and not ic.reveal(scr, prior).excluded


def random_menu(rng, n_actions, n_states, scale=1.0):
    return ic.Menu([f"a{i}" for i in range(n_actions)],
                   rng.normal(0.0, scale, size=(n_actions, n_states)))


def anchored_menu(rng, n_actions, n_states, bonus=3.0, noise=0.5):
    """Random menu where each action is clearly best in its own home state,
    so optima keep every action in play."""
    assert n_actions <= n_states
    u = rng.normal(0.0, noise, size=(n_actions, n_states))
    homes = rng.permutation(n_states)[:n_actions]
    for a, h in enumerate(homes):
        u[a, h] += bonus
    return ic.Menu([f"a{i}" for i in range(n_actions)], u)
