"""Acceptance suite: one test per criterion, one printed line per verdict.

Every tolerance is pinned here, not configurable. Oracles are independent
of the code paths they check: closed forms derived by hand, brute-force
lattice concavification, and finite differences.
"""

import math
import time

import numpy as np
import pytest

import infochoice as ic

UNIFORM2 = ic.Prior(["x", "y"], [0.5, 0.5])
SYM2_MENU = ic.Menu(["1", "0"], [[1.0, 0.0], [0.0, 1.0]])
E_RATIO = math.e / (1.0 + math.e)  # hand-solved: s_1(x) = p e / (p e + p) at p = 1/2


_CRITERION_LINES: list[str] = []


def report(number, name, ok, detail):
    line = f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    _CRITERION_LINES.append(line)
    assert ok, line


def anchored(rng, n_a, n_s, bonus=3.0, noise=0.5):
    u = rng.normal(0.0, noise, size=(n_a, n_s))
    homes = rng.permutation(n_s)[:n_a]
    for a, h in enumerate(homes):
        u[a, h] += bonus
    return ic.Menu([f"a{i}" for i in range(n_a)], u)


def random_prior(rng, n_s):
    w = rng.uniform(0.2, 1.0, size=n_s)
    return ic.Prior([f"s{i}" for i in range(n_s)], w / w.sum())


def perturbed(scr, prior):
    """A 0.05 perturbation that stays certifiable: bump a mid-range entry of
    a supported action when one exists, otherwise push mass onto an unused
    action row, otherwise onto the smaller action within a state."""
    probs = scr.probs
    n_a, n_s = probs.shape
    sup = ic.reveal(scr, prior).included
    candidates = [(a, w) for a in sup for w in range(n_s)
                  if 0.05 <= probs[a, w] <= 0.9]
    if candidates:
        a, w = candidates[0]
        out = probs.copy()
        out[a, w] += 0.05
        out[:, w] /= out[:, w].sum()
        return ic.SCR(out)
    unused = [b for b in range(n_a) if b not in sup]
    if unused:
        out = probs.copy()
        out[unused[0]] += 0.05
        return ic.SCR(out / out.sum(axis=0, keepdims=True))
    w = 0
    b = int(probs[:, w].argmin())
    out = probs.copy()
    out[b, w] += 0.05
    out[:, w] /= out[:, w].sum()
    return ic.SCR(out)


def test_criterion_01_sym2_closed_form():
    start = time.perf_counter()
    result = ic.solve_mi(SYM2_MENU, UNIFORM2, 1.0)
    elapsed = time.perf_counter() - start
    gap = abs(result.scr.probs[0, 0] - E_RATIO)
    oracle = ic.grid_oracle(SYM2_MENU, UNIFORM2, ic.MutualInformation(UNIFORM2, 1.0),
                            grid_resolution=400)
    value_gap = abs(oracle.value - result.value)
    ok = gap < 1e-8 and elapsed < 1.0 and value_gap < 1e-3
    report(1, "symmetric binary closed form",
           ok, f"|s-e/(1+e)|={gap:.2e}, oracle gap={value_gap:.2e}, {elapsed:.3f}s")


def test_criterion_02_indirect_cost_surface():
    def closed_form(x, y):
        # hand-derived indirect cost of the rule (s1, s0) = ((x, y), (1-x, 1-y))
        # under the uniform binary prior, with t log(t/r) := 0 at t = 0
        m = 0.5 * (x + y)

        def term(t, r):
            return t * math.log(t / r) if t > 0.0 else 0.0

        return 0.5 * (term(x, m) + term(1 - x, 1 - m)
                      + term(y, m) + term(1 - y, 1 - m))

    spec = ic.MutualInformation(UNIFORM2, 1.0)
    worst = 0.0
    for x in np.linspace(0.0, 1.0, 10):
        for y in np.linspace(0.0, 1.0, 10):
            scr = ic.SCR([[x, y], [1 - x, 1 - y]])
            got = ic.kappa(spec, scr, UNIFORM2)
            worst = max(worst, abs(got - closed_form(float(x), float(y))))
    report(2, "indirect-cost surface on the 10x10 grid", worst < 1e-12,
           f"max |kappa - closed form| = {worst:.2e}")


def test_criterion_03_revealed_policy_laws():
    rng = np.random.default_rng(20240803)
    spec_prior_cache = {}
    bayes_worst = 0.0
    convexity_worst = -np.inf
    dominance_failures = 0
    strict_checked = 0
    strict_failures = 0
    for trial in range(1000):
        n_a = int(rng.integers(2, 5))
        n_s = int(rng.integers(2, 5))
        key = n_s
        if key not in spec_prior_cache:
            prior = random_prior(rng, n_s)
            spec_prior_cache[key] = (prior, ic.MutualInformation(prior, 1.0))
        prior, spec = spec_prior_cache[key]
        s = ic.SCR(rng.dirichlet(np.ones(n_a), size=n_s).T)
        t = ic.SCR(rng.dirichlet(np.ones(n_a), size=n_s).T)
        beta = float(rng.uniform(0.05, 0.95))

        rp_s, rp_t = ic.reveal(s, prior), ic.reveal(t, prior)
        for rp in (rp_s, rp_t):
            policy = rp.policy()
            bary = policy.weights @ policy.belief_matrix()
            bayes_worst = max(bayes_worst, float(np.abs(bary - prior.weights).max()))

        mixed = ic.SCR(beta * s.probs + (1 - beta) * t.probs)
        lhs = ic.kappa(spec, mixed, prior)
        rhs = beta * ic.kappa(spec, s, prior) + (1 - beta) * ic.kappa(spec, t, prior)
        convexity_worst = max(convexity_worst, lhs - rhs)

        upper = ic.mix_policies(rp_s.policy(), rp_t.policy(), beta)
        lower = ic.reveal(mixed, prior).policy()
        if not ic.blackwell_geq(upper, lower).holds:
            dominance_failures += 1

        shared_gap = max(
            (float(np.abs(rp_s.posteriors[a].weights - rp_t.posteriors[a].weights).max())
             for a in rp_s.included if a in rp_t.included),
            default=0.0,
        )
        if shared_gap > 1e-6:
            strict_checked += 1
            # strictness: the dominating mixture policy must differ from the
            # revealed policy of the mixed rule
            differs = upper.n_beliefs != lower.n_beliefs
            if not differs:
                up = upper.belief_matrix()
                low = lower.belief_matrix()
                differs = any(
                    np.abs(up - low[j]).max(axis=1).min() > 1e-9
                    for j in range(low.shape[0])
                )
            if not differs or rhs - lhs <= 0.0:
                strict_failures += 1
    ok = (bayes_worst < 1e-9 and convexity_worst <= 1e-10
          and dominance_failures == 0 and strict_failures == 0)
    report(3, "revealed-policy laws on 1000 random triples", ok,
           f"bayes={bayes_worst:.2e}, convexity slack={convexity_worst:.2e}, "
           f"dominance fails={dominance_failures}, "
           f"strict fails={strict_failures}/{strict_checked}")


def test_criterion_04_first_order_soundness():
    rng = np.random.default_rng(20240804)
    worst_residual = 0.0
    failures = []
    instances = []
    for k in range(100):
        n_a, n_s = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        prior = random_prior(rng, n_s)
        menu = ic.Menu([f"a{i}" for i in range(n_a)],
                       rng.normal(0.0, 1.0, size=(n_a, n_s)))
        instances.append((menu, prior, ic.MutualInformation(prior, 1.0)))
    for k in range(100):
        n_s = int(rng.integers(2, 6))
        n_a = int(rng.integers(2, n_s + 1))
        prior = random_prior(rng, n_s)
        menu = ic.Menu([f"a{i}" for i in range(n_a)],
                       rng.normal(0.0, 1.0, size=(n_a, n_s)))
        instances.append((menu, prior,
                          ic.PosteriorSeparable(ic.ChiSquareDivergence(prior))))
    for idx, (menu, prior, spec) in enumerate(instances):
        result = ic.solve(menu, prior, spec)
        cert = ic.certify(result.scr, menu, prior, spec)
        worst_residual = max(worst_residual, cert.residual)
        if cert.verdict != "optimal" or cert.residual >= 1e-8:
            failures.append((idx, "solution", cert.verdict, cert.residual))
        off = ic.certify(perturbed(result.scr, prior), menu, prior, spec)
        if off.verdict != "not-optimal":
            failures.append((idx, "perturbed", off.verdict, off.residual))
    report(4, "first-order certificates on 200 instances", not failures,
           f"max residual={worst_residual:.2e}, failures={failures[:3]}")


def test_criterion_05_utility_recovery_round_trip():
    rng = np.random.default_rng(20240805)
    accepted = 0
    worst = 0.0
    attempts = 0
    while accepted < 100 and attempts < 2000:
        attempts += 1
        n_a = int(rng.integers(2, 5))
        n_s = int(rng.integers(n_a, 6))
        prior = random_prior(rng, n_s)
        menu = anchored(rng, n_a, n_s, bonus=2.0)
        result = ic.solve_mi(menu, prior, 1.0)
        if result.scr.probs.min() <= 0.0 or ic.reveal(result.scr, prior).excluded:
            continue
        accepted += 1
        spec = ic.MutualInformation(prior, 1.0)
        recovered = ic.recover_utility(result.scr, prior, spec)
        shift = menu.utilities - recovered.base
        worst = max(worst, float((shift.max(axis=0) - shift.min(axis=0)).max()))
    ok = accepted == 100 and worst < 1e-6
    report(5, "utility recovery round trip on 100 interior optima", ok,
           f"max nuisance spread={worst:.2e} over {accepted} instances "
           f"({attempts} draws)")


def test_criterion_06_cross_menu_forecasts():
    prior = ic.Prior(["s0", "s1", "s2"], [1 / 3, 1 / 3, 1 / 3])
    menu = ic.Menu(["a0", "a1", "a2"], np.zeros((3, 3)))
    spec = ic.MutualInformation(prior, 1.0)
    start = time.perf_counter()
    rep = ic.forecast_consistency(menu, prior, spec, trials=60, seed=20240806)
    elapsed = time.perf_counter() - start
    ok = rep.completed >= 50 and rep.max_deviation < 1e-6 and elapsed < 30.0
    report(6, "cross-menu forecasts vs direct solves", ok,
           f"{rep.completed} instances, max dev={rep.max_deviation:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_07_uniqueness():
    rng = np.random.default_rng(20240807)
    capable = 0
    for _ in range(100):
        n_a = int(rng.integers(2, 4))
        n_s = int(rng.integers(n_a, 6))
        prior = random_prior(rng, n_s)
        result = ic.solve_mi(anchored(rng, n_a, n_s), prior, 1.0)
        if ic.unique_check(result.scr, prior).unique_capable:
            capable += 1

    wide_failures = 0
    for _ in range(50):
        n_s = int(rng.integers(2, 4))
        n_a = n_s + int(rng.integers(1, 3))
        prior = random_prior(rng, n_s)
        menu = ic.Menu([f"a{i}" for i in range(n_a)],
                       rng.normal(0.0, 1.0, size=(n_a, n_s)))
        result = ic.solve_mi(menu, prior, 1.0)
        if ic.unique_check(result.scr, prior).unique_capable:
            wide_failures += 1

    # constructed instance: three supported actions on a binary state space,
    # revealed posteriors necessarily affinely dependent
    posts = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    weights = np.array([0.25, 0.5, 0.25])
    scr = ic.SCR(weights[:, None] * posts / UNIFORM2.weights[None, :])
    spec = ic.MutualInformation(UNIFORM2, 1.0)
    menu = ic.rationalize(scr, UNIFORM2, spec, actions=("a", "b", "c"))
    twin = ic.find_equivalent(scr, menu, UNIFORM2, spec)
    twin_ok = twin is not None and np.abs(twin.probs - scr.probs).max() > 1e-6
    if twin_ok:
        def value(rule):
            benefit = float(UNIFORM2.weights
                            @ (menu.utilities * rule.probs).sum(axis=0))
            return benefit - ic.kappa(spec, rule, UNIFORM2)

        twin_gap = abs(value(twin) - value(scr))
        twin_ok = twin_gap < 1e-10
    else:
        twin_gap = np.inf

    ok = capable >= 95 and wide_failures == 0 and twin_ok
    report(7, "uniqueness rank test and equal-value twin", ok,
           f"unique-capable {capable}/100, wide-menu false positives "
           f"{wide_failures}/50, twin value gap={twin_gap:.2e}")


def test_criterion_08_gradient_finite_differences():
    rng = np.random.default_rng(20240808)
    worst = 0.0
    checks = 0
    while checks < 100:
        n_s = int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        policy = ic.reveal(
            ic.SCR(rng.dirichlet(np.ones(3), size=n_s).T), prior
        ).policy()
        specs = [
            ic.MutualInformation(prior, float(rng.uniform(0.5, 2.0))),
            ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)),
            ic.Transformed(ic.KLDivergence(prior), ic.PowerPsi(2.0)),
        ]
        mu = 0.1 + 0.9 * rng.dirichlet(np.ones(n_s))
        belief = ic.Belief(mu / mu.sum()).weights
        direction = rng.normal(size=n_s)
        direction -= direction.mean()
        direction /= np.abs(direction).max()
        for spec in specs:
            checks += 1
            div, weight = ic.derivative_basis(spec, policy.belief_matrix(),
                                                 policy.weights)
            analytic = float(weight * div.gradient(belief) @ direction)

            def one_sided(eps):
                shifted = ic.Belief(belief + eps * direction).weights
                return (weight * div.value(shifted) - weight * div.value(belief)) / eps

            d1, d2, d3 = one_sided(1e-4), one_sided(1e-5), one_sided(1e-6)
            r12 = (10 * d2 - d1) / 9
            r23 = (10 * d3 - d2) / 9
            richardson = (100 * r23 - r12) / 99
            worst = max(worst, abs(richardson - analytic) / max(1.0, abs(analytic)))
    report(8, "gradients vs one-sided Richardson differences", worst < 1e-6,
           f"max relative error={worst:.2e} over {checks} checks")


def test_criterion_09_initialization_independence():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    failures = 0
    for _ in range(100):
        n_a, n_s = 3, 3
        prior = random_prior(rng, n_s)
        menu = ic.Menu([f"a{i}" for i in range(n_a)],
                       rng.normal(0.0, 1.0, size=(n_a, n_s)))
        baseline = None
        for _ in range(10):
            init = rng.dirichlet(np.ones(n_a))
            result = ic.solve(menu, prior, ic.MutualInformation(prior, 1.0),
                              init_marginals=init)
            if baseline is None:
                baseline = result.scr.probs
            else:
                spread = float(np.abs(result.scr.probs - baseline).max())
                worst = max(worst, spread)
                if spread >= 1e-6:
                    failures += 1
    report(9, "solution spread across 10 initializations x 100 utilities",
           failures == 0, f"max spread={worst:.2e}, failures={failures}")


def test_criterion_10_unbounded_slope_exclusions():
    rng = np.random.default_rng(20240810)
    rejected = 0
    trials = 50
    for _ in range(trials):
        n_a, n_s = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        probs = rng.dirichlet(np.ones(n_a), size=n_s).T
        probs[0, 0] = 0.0
        probs = probs / probs.sum(axis=0, keepdims=True)
        scr = ic.SCR(probs)
        spec = ic.MutualInformation(prior, 1.0)
        try:
            ic.rationalize(scr, prior, spec)
        except ic.InvalidInputError as exc:
            if "not rationalizable" in str(exc):
                rejected += 1

    # re-draw criterion 4's mutual-information instances from its seed and
    # confirm no solver output ever uses an action while skipping a state
    rng4 = np.random.default_rng(20240804)
    vanishing = 0
    mi_outputs = 0
    for _ in range(100):
        n_a, n_s = int(rng4.integers(2, 6)), int(rng4.integers(2, 6))
        prior = random_prior(rng4, n_s)
        menu = ic.Menu([f"a{i}" for i in range(n_a)],
                       rng4.normal(0.0, 1.0, size=(n_a, n_s)))
        result = ic.solve_mi(menu, prior, 1.0)
        mi_outputs += 1
        for a in ic.reveal(result.scr, prior).included:
            if result.scr.probs[a].min() <= 0.0:
                vanishing += 1
                break
    ok = rejected == trials and vanishing == 0 and mi_outputs == 100
    report(10, "unbounded-slope exclusions", ok,
           f"rationalize rejected {rejected}/{trials}, "
           f"vanishing solver outputs {vanishing}/{mi_outputs}")
