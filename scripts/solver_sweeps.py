#!/usr/bin/env python3
"""Seeded solver sweeps, summarized per family and cost.

Four families of menus, each solved through ``infochoice.solve``:

- ``size``: the 40-menu size sweep, n x n menus for n in 3, 5, 10 and 20
  and seeds 0-9, drawn from ``default_rng([seed, n])``: the raw
  Dirichlet(1) draw as the prior, then N(0, 1) utilities; default options.
- ``stall``: the 130 menus ``default_rng([99, k, 2])``, k = 0-129, of 2-8
  actions and states, a Dirichlet(1) prior for even k and Dirichlet(0.3)
  for odd k, floored at 1e-6 and renormalized, N(0, 1) utilities, the last
  action a copy of the first where 3 divides k; ``max_iter=400``.
- ``broad``: the 210 menus ``default_rng([i, k, 1])``, i = 0-6 and k =
  0-29, built as the stall set, at the constant weight 10^(2i - 4),
  psi(K) = 10^(2i - 4) K; ``max_iter=400``.
- ``scale``: the 200 menus ``default_rng([52, k])``, k = 0-199, of 2-7
  actions and states, a Dirichlet(0.3) prior floored at 1e-6 and
  renormalized, N(0, 1) utilities, the last action a copy of the first
  where 3 divides k; ``max_iter=400``.

The size sweep runs chi-square under psi(K) = K^2 and e^K and KL under
K^2, the stall set chi-square under K^2 and e^K, the broad sweep
chi-square and KL, and the scale set KL, mutual information, at each
weight 10^e, e = -4, -2, ..., 12. For each, one line gives the certified
count, the ``SolverError``s by message, the total and the largest step
count of the certified solves, the inner Newton solves per root (1 at a
constant weight), how many of those returned the uninformative rule (one
action in every state), and a SHA-1 over the certified rules' bytes in
sweep order.
Inner solves are counted by wrapping the solver module's two constant-weight
Newton methods; closed-form free-information solves are not counted.

    python scripts/solver_sweeps.py            # all families, about 10 s
    python scripts/solver_sweeps.py --quick    # n <= 10, k < 30, i in 0, 2, 4,
                                               # e in -4, 0, 4, 8

The exit status is 1 when some solve raised ``SolverError``, else 0.
"""

import argparse
import collections
import hashlib
import sys
import time

import numpy as np

import infochoice as ic
from infochoice import solver

#: the exponents e of the scale set's weights 10^e, and those ``--quick`` runs
SCALES, QUICK_SCALES = range(-4, 13, 2), (-4, 0, 4, 8)

#: each cost's divergence and psi; an affine psi comes with its menu
COSTS = {
    "chi K^2": (ic.ChiSquareDivergence, lambda: ic.PowerPsi(2.0)),
    "chi e^K": (ic.ChiSquareDivergence, lambda: ic.ExpPsi(1.0)),
    "kl K^2": (ic.KLDivergence, lambda: ic.PowerPsi(2.0)),
    "chi": (ic.ChiSquareDivergence, None),
    "kl": (ic.KLDivergence, None),
    **{f"kl 1e{e}": (ic.KLDivergence, lambda e=e: ic.AffinePsi(10.0 ** e)) for e in SCALES},
}


def size_sweep(quick):
    for n in (3, 5, 10) if quick else (3, 5, 10, 20):
        for seed in range(10):
            rng = np.random.default_rng([seed, n])
            prior = ic.Prior([f"s{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
            u = rng.normal(size=(n, n))
            yield ic.Menu([f"a{i}" for i in range(n)], u), prior, None


def seeded_menu(entropy, most=8, alpha=None):
    """2 to ``most`` actions and states from ``default_rng(entropy)``, a
    Dirichlet(alpha) prior, by default Dirichlet(1) for even entropy[1] and
    Dirichlet(0.3) for odd, floored at 1e-6, N(0, 1) utilities with a
    duplicate action where 3 divides entropy[1]."""
    rng = np.random.default_rng(entropy)
    n_a, n_s = int(rng.integers(2, most + 1)), int(rng.integers(2, most + 1))
    alpha = alpha or (0.3 if entropy[1] % 2 else 1.0)
    w = np.maximum(rng.dirichlet(alpha * np.ones(n_s)), 1e-6)
    prior = ic.Prior([f"s{i}" for i in range(n_s)], w / w.sum())
    u = rng.normal(size=(n_a, n_s))
    if entropy[1] % 3 == 0:
        u[-1] = u[0]
    return ic.Menu([f"a{a}" for a in range(n_a)], u), prior


def stall_set(quick):
    for k in range(30 if quick else 130):
        yield *seeded_menu([99, k, 2]), None


def broad_sweep(quick):
    for i in (0, 2, 4) if quick else range(7):
        for k in range(30):
            yield *seeded_menu([i, k, 1]), ic.AffinePsi(10.0 ** (2 * i - 4))


def scale_set(quick):
    for k in range(30 if quick else 200):
        yield *seeded_menu([52, k], most=7, alpha=0.3), None


FAMILIES = {
    "size": (size_sweep, ("chi K^2", "chi e^K", "kl K^2"), ic.SolveOptions()),
    "stall": (stall_set, ("chi K^2", "chi e^K"), ic.SolveOptions(max_iter=400)),
    "broad": (broad_sweep, ("chi", "kl"), ic.SolveOptions(max_iter=400)),
    "scale": (scale_set, tuple(f"kl 1e{e}" for e in SCALES), ic.SolveOptions(max_iter=400)),
}


class InnerCounter:
    """Wraps the constant-weight Newton methods of ``solver`` to count the
    calls and the calls that return the uninformative rule."""

    def __init__(self):
        self.calls = self.uninformative = 0

    def wrap(self, newton):
        def counted(*args, **kwargs):
            self.calls += 1
            result = newton(*args, **kwargs)
            self.uninformative += bool((result.scr.probs == 1.0).all(axis=1).any())
            return result
        return counted


def run(family, cost, quick):
    menus, _, opts = FAMILIES[family]
    div, psi = COSTS[cost]
    counter = InnerCounter()
    saved = solver._mi_newton, solver._dual_newton
    solver._mi_newton, solver._dual_newton = map(counter.wrap, saved)
    errors, steps, digest = collections.Counter(), [], hashlib.sha1()
    start = time.perf_counter()
    try:
        for menu, prior, affine in menus(quick):
            try:
                res = ic.solve(menu, prior, ic.Transformed(div(prior), affine or psi()), opts)
            except ic.SolverError as exc:
                errors[str(exc).split(" (last residual")[0]] += 1
                continue
            steps.append(res.iterations)
            digest.update(res.scr.probs.tobytes())
    finally:
        solver._mi_newton, solver._dual_newton = saved
    roots = len(steps) + sum(errors.values())
    print(f"{family:5s} {cost:7s}: certified {len(steps)}/{roots}, "
          f"steps {sum(steps)} (largest {max(steps, default=0)}), "
          f"inner solves per root {counter.calls / roots:.2f}, "
          f"uninformative inner solves {counter.uninformative}, "
          f"sha1 {digest.hexdigest()[:16]}, {time.perf_counter() - start:.1f} s")
    for message, count in sorted(errors.items()):
        print(f"    SolverError x{count}: {message}")
    return not errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="only n <= 10 of the size sweep, k < 30 of the stall set, "
                             "i in 0, 2 and 4 of the broad sweep, and k < 30 at e in "
                             "-4, 0, 4 and 8 of the scale set")
    args = parser.parse_args()
    skipped = {f"kl 1e{e}" for e in SCALES if e not in QUICK_SCALES} if args.quick else ()
    ok = True
    for family, (_, costs, _) in FAMILIES.items():
        for cost in costs:
            if cost not in skipped:
                ok &= run(family, cost, args.quick)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
