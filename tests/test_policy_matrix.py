"""Policies built from belief matrices.

A ``SimpleInfoPolicy`` validates its belief matrix once and keeps it; the
package's own policies (``reveal().policy()``, ``uninformative``,
``mix_policies``, ``grid_oracle``) are built from matrices. These tests pin
that rewrite to the per-belief construction it replaced: the same matrix,
weights and error messages as checking and normalizing each row with
``Belief``, the same mixtures as the pairwise merge loop, and the same
``find_equivalent`` and ``recover_utility`` results as the composition of
public checks they used to run. A problem file reads back, bit for bit,
the policies it was written from.
"""

import json

import numpy as np
import pytest

import infochoice as ic
from conftest import random_interior_scr, random_prior
from infochoice.inverse import rule_gradients, rule_value
from infochoice.jsonio import Problem, canonical_dumps, parse_problem, problem_to_json
from infochoice.model import InvalidInputError, require_valid
from infochoice.revealed import revealed_posteriors


def merge_loop(p, q, beta):
    """The pairwise merge ``mix_policies`` ran before it read matrices:
    each belief joins the first kept belief within 1e-12, else is kept."""
    merged = []
    for pol, scale in ((p, beta), (q, 1.0 - beta)):
        if scale == 0.0:
            continue
        for b, w in zip(pol.beliefs, pol.weights):
            w = scale * float(w)
            for k, (mb, mw) in enumerate(merged):
                if np.abs(b.weights - mb.weights).max() <= 1e-12:
                    merged[k] = (mb, mw + w)
                    break
            else:
                merged.append((b, w))
    return ic.SimpleInfoPolicy(p.prior, np.stack([b.weights for b, _ in merged]),
                               np.array([w for _, w in merged]))


def assert_same_policy(got, want):
    assert np.array_equal(got.belief_matrix(), want.belief_matrix())
    assert np.array_equal(got.weights, want.weights)


def near_duplicates(prior, base, gaps, weight):
    """A policy with ``base`` and copies of it moved by each gap along
    (1, -1, 0, ...), plus the one belief that restores the barycenter."""
    rows = [np.array(base, dtype=float)]
    for gap in gaps:
        row = rows[0].copy()
        row[0] += gap
        row[1] -= gap
        rows.append(row)
    weights = np.full(len(rows), weight)
    rest = (prior.weights - weights @ np.array(rows)) / (1.0 - weights.sum())
    return ic.SimpleInfoPolicy(prior, np.vstack([rows, rest]),
                               np.append(weights, 1.0 - weights.sum()))


class TestMixPoliciesMatchesTheMergeLoop:
    @pytest.fixture
    def prior(self):
        return ic.Prior(["x", "y", "z"], [0.3, 0.3, 0.4])

    @pytest.mark.parametrize("gaps", [
        [0.0], [5e-13], [2e-12], [0.0, 5e-13], [5e-13, 8e-13],
        # chained: the third is within 1e-12 of the second only, which is
        # merged away, so it stays a belief of its own
        [8e-13, 1.6e-12], [2e-12, 2e-12 + 5e-13],
    ])
    @pytest.mark.parametrize("beta", [0.0, 0.35, 1.0])
    def test_duplicates_within_one_policy(self, prior, gaps, beta):
        p = near_duplicates(prior, [0.2, 0.5, 0.3], gaps, 0.15)
        q = ic.SimpleInfoPolicy.uninformative(prior)
        assert_same_policy(ic.mix_policies(p, q, beta), merge_loop(p, q, beta))
        assert_same_policy(ic.mix_policies(q, p, beta), merge_loop(q, p, beta))

    @pytest.mark.parametrize("gap", [0.0, 5e-13, 2e-12])
    @pytest.mark.parametrize("beta", [0.0, 0.6, 1.0])
    def test_three_way_merge_across_policies(self, prior, gap, beta):
        p = near_duplicates(prior, [0.2, 0.5, 0.3], [gap], 0.2)
        q = near_duplicates(prior, [0.2 + gap / 2, 0.5 - gap / 2, 0.3], [0.0], 0.1)
        got = ic.mix_policies(p, q, beta)
        assert_same_policy(got, merge_loop(p, q, beta))
        if 0.0 < beta < 1.0 and gap < 1e-12:
            # p's two copies and q's two copies all join p's first belief
            assert got.n_beliefs == 3

    def test_mixture_of_a_policy_with_itself_is_itself(self, prior):
        rng = np.random.default_rng(3)
        scr = random_interior_scr(rng, 4, 3)
        p = ic.reveal(scr, ic.Prior(["x", "y", "z"], [0.3, 0.3, 0.4])).policy()
        got = ic.mix_policies(p, p, 0.4)
        assert_same_policy(got, merge_loop(p, p, 0.4))
        assert np.array_equal(got.belief_matrix(), p.belief_matrix())

    @pytest.mark.parametrize("seed", range(20))
    def test_revealed_policies_and_garblings(self, seed):
        rng = np.random.default_rng(seed)
        n_s = int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        p = ic.reveal(random_interior_scr(rng, int(rng.integers(2, 6)), n_s),
                      prior).policy()
        q = ic.SimpleInfoPolicy.uninformative(prior)
        beta = float(rng.uniform())
        first = ic.mix_policies(p, q, beta)
        assert_same_policy(first, merge_loop(p, q, beta))
        # mixing again merges every belief of the garbling into p's
        assert_same_policy(ic.mix_policies(p, first, beta),
                           merge_loop(p, first, beta))


def belief_by_belief(prior, rows, weights):
    """The policy built as it was before it read matrices: each row checked
    and normalized by ``Belief``, then the rows stacked."""
    return ic.SimpleInfoPolicy(prior, np.array([ic.Belief(r).weights for r in rows]),
                               weights)


class TestMatrixAndBeliefConstruction:
    @pytest.fixture
    def prior(self):
        return ic.Prior(["x", "y", "z"], [0.25, 0.35, 0.4])

    def balanced(self, prior, rows):
        """Weights that put the barycenter of three independent rows on the
        prior."""
        rows = np.asarray(rows, dtype=float)
        return np.linalg.solve(rows.T, prior.weights)

    @pytest.mark.parametrize("seed", range(10))
    def test_same_matrix_and_weights(self, prior, seed):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(3), size=3)
        matrix = np.stack([ic.Belief(row).weights for row in rows])
        weights = rng.dirichlet(np.ones(3))
        target = weights @ matrix
        prior = ic.Prior(["x", "y", "z"], target / target.sum())
        from_beliefs = belief_by_belief(prior, rows, weights)
        from_matrix = ic.SimpleInfoPolicy(prior, matrix, weights)
        assert_same_policy(from_matrix, from_beliefs)
        assert from_matrix.belief_matrix() is not matrix

    def test_rows_off_one_are_renormalized_as_beliefs_are(self, prior):
        rows = np.array([[0.5, 0.3, 0.2 + 4e-13],
                         [0.1, 0.6 - 3e-13, 0.3],
                         [0.2, 0.2, 0.6]])
        weights = self.balanced(prior, rows)
        from_matrix = ic.SimpleInfoPolicy(prior, rows, weights)
        from_beliefs = belief_by_belief(prior, rows, weights)
        assert_same_policy(from_matrix, from_beliefs)
        assert np.abs(from_matrix.belief_matrix().sum(axis=1) - 1.0).max() < 1e-15

    def test_slight_undershoot_is_clamped_as_beliefs_are(self, prior):
        rows = np.array([[0.5, 0.5 + 5e-13, -5e-13], [0.0, 0.3, 0.7], [0.2, 0.2, 0.6]])
        weights = self.balanced(prior, np.clip(rows, 0.0, 1.0))
        from_matrix = ic.SimpleInfoPolicy(prior, rows, weights)
        from_beliefs = belief_by_belief(prior, rows, weights)
        assert_same_policy(from_matrix, from_beliefs)
        assert from_matrix.belief_matrix().min() == 0.0

    def test_the_caller_matrix_is_not_frozen(self, prior):
        rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        ic.SimpleInfoPolicy(prior, rows, self.balanced(prior, rows))
        assert rows.flags.writeable

    @pytest.mark.parametrize("rows, weights", [
        ([[0.5, 0.5, 0.0], [0.2, -1e-9, 0.8]], [0.5, 0.5]),
        ([[0.5, 0.5, 0.0], [0.2, -1e-9, 0.8], [0.2, -1e-6, 0.8]], [0.3, 0.3, 0.4]),
        ([[0.5, 0.5, 0.0], [0.2, np.nan, 0.8]], [0.5, 0.5]),
        ([[0.5, 0.5, 0.0], [0.2, np.inf, 0.8]], [0.5, 0.5]),
        ([[0.5, 0.5, 0.0], [0.2, 0.3, 0.6]], [0.5, 0.5]),
        ([[0.5, 0.5, 0.0], [0.2, 0.3, 0.6], [0.1, 0.1, 0.1]], [0.3, 0.3, 0.4]),
    ], ids=["negative", "negative-second-row-first", "nan", "inf", "row-sum",
            "row-sums"])
    def test_row_faults_raise_what_the_belief_raises(self, prior, rows, weights):
        with pytest.raises(InvalidInputError) as want:
            belief_by_belief(prior, rows, weights)
        with pytest.raises(InvalidInputError) as got:
            ic.SimpleInfoPolicy(prior, np.array(rows), weights)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("rows, weights, message", [
        ([], [], None),
        ([[0.5, 0.5]], [1.0], None),
        ([[0.25, 0.35, 0.4]], [1.0, 0.0], None),
        ([[0.25, 0.35, 0.4]], [0.5], None),
        ([[0.25, 0.35, 0.4]], [np.nan], None),
        ([[0.25, 0.35, 0.4], [0.5, 0.5, 0.0]], [1.0, 0.0], None),
        ([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], [0.5, 0.5], None),
        # an array that is not a matrix has no faulty row to name
        ([0.25, 0.35, 0.4], [1.0], "policy: expected a belief matrix"),
        ([[[0.25, 0.35, 0.4]]], [1.0], "policy: expected a belief matrix"),
    ], ids=["empty", "dimension", "weight-count", "weight-sum", "weight-nan",
            "ok-with-zero-weight", "barycenter", "vector", "three-dimensional"])
    def test_policy_faults_raise_the_same_message(self, prior, rows, weights, message):
        matrix = np.array(rows) if rows else np.zeros((0, 3))
        try:
            want = belief_by_belief(prior, rows, weights)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as got:
                ic.SimpleInfoPolicy(prior, matrix, weights)
            assert str(got.value) == (message or str(exc))
        else:
            assert_same_policy(ic.SimpleInfoPolicy(prior, matrix, weights), want)


def test_file_rows_are_read_as_a_policy_reads_them():
    """A problem file's belief rows give the policy that the same matrix
    gives in process, bit for bit, so ``blackwell`` on a file decides what
    ``blackwell_geq`` decides on the matrices, witness and certificate
    included."""
    rows = [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7], [0.6, 0.3, 0.1 - 4e-13]]
    weights = [0.3, 0.3, 0.4]
    # a garbling of p: its first and last beliefs merged
    merged = ((0.3 * np.array(rows[0]) + 0.4 * np.array(rows[2])) / 0.7).tolist()
    policies = {"p": {"beliefs": rows, "weights": weights},
                "q": {"beliefs": [merged, rows[1]], "weights": [0.7, 0.3]}}
    prior = ic.Prior(["x", "y", "z"], weights @ np.array(rows))
    data = {"states": list(prior.states), "prior": prior.weights.tolist(),
            "actions": ["a"], "utilities": [[0.0, 0.0, 0.0]], "policies": policies}
    got = parse_problem(data).policies
    want = {name: ic.SimpleInfoPolicy(prior, np.array(pol["beliefs"]), pol["weights"])
            for name, pol in policies.items()}
    for name in policies:
        assert_same_policy(got[name], want[name])
    for a, b in (("p", "q"), ("q", "p")):
        from_file = ic.blackwell_geq(got[a], got[b])
        in_process = ic.blackwell_geq(want[a], want[b])
        assert from_file.holds == in_process.holds == (a == "p")
        assert from_file.infeasibility == in_process.infeasibility
        for field in ("witness", "certificate"):
            x, y = getattr(from_file, field), getattr(in_process, field)
            assert (x is None and y is None) or np.array_equal(x, y)


def test_problem_files_round_trip_exactly():
    """serialize-parse-serialize is a fixed point: a random prior and the
    policy a rule reveals come back bit for bit, and a prior rebuilt from
    its own weights keeps them."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_s = int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        assert np.array_equal(ic.Prior(prior.states, prior.weights).weights,
                              prior.weights)
        policy = ic.reveal(random_interior_scr(rng, 3, n_s), prior).policy()
        problem = Problem(prior, ic.Menu(["a"], np.zeros((1, n_s))), None, None,
                          {"p": policy}, ic.SolveOptions())
        text = canonical_dumps(problem_to_json(problem))
        again = problem_to_json(parse_problem(json.loads(text)))
        assert canonical_dumps(again) == text


def package_policies():
    rng = np.random.default_rng(11)
    prior = random_prior(rng, 3)
    scr = random_interior_scr(rng, 4, 3)
    spec = ic.MutualInformation(prior, 0.5)
    revealed = ic.reveal(scr, prior).policy()
    blank = ic.SimpleInfoPolicy.uninformative(prior)
    return {
        "revealed": revealed,
        "uninformative": blank,
        "mixture": ic.mix_policies(revealed, blank, 0.4),
        "oracle": ic.grid_oracle(ic.rationalize(scr, prior, spec), prior, spec).policy,
    }


@pytest.mark.parametrize("name", ["revealed", "uninformative", "mixture", "oracle"])
def test_package_policies_keep_one_read_only_matrix(name):
    policy = package_policies()[name]
    matrix = policy.belief_matrix()
    assert not matrix.flags.writeable
    assert matrix is policy.belief_matrix()
    assert np.array_equal(matrix, np.stack([b.weights for b in policy.beliefs]))
    assert policy.n_beliefs == len(policy.beliefs) == len(matrix)
    assert all(b.weights.base is matrix for b in policy.beliefs)


def test_revealed_policy_rows_are_the_revealed_posteriors():
    rng = np.random.default_rng(2)
    prior = random_prior(rng, 3)
    probs = random_interior_scr(rng, 4, 3).probs.copy()
    probs[1] = 0.0
    scr = ic.SCR(probs / probs.sum(axis=0))
    rp = ic.reveal(scr, prior)
    rows = np.stack([rp.posteriors[a].weights for a in rp.included])
    assert np.array_equal(rp.policy().belief_matrix(), rows)


# ---------------------------------------------------------------------------
# find_equivalent and recover_utility against the checks they used to compose


def find_equivalent_by_composition(scr, menu, prior, spec):
    """``find_equivalent`` as ``certify``, ``unique_check``, ``rule_value``
    and the supported revealed posteriors, each computed on its own."""
    if not isinstance(spec, (ic.MutualInformation, ic.PosteriorSeparable)):
        raise ic.UnsupportedCostError(
            "equal-value construction needs a cost affine in the policy weights")
    cert = ic.certify(scr, menu, prior, spec)
    if cert.verdict != "optimal":
        raise InvalidInputError(
            f"input rule is not certified optimal (verdict {cert.verdict})")
    if ic.unique_check(scr, prior).unique_capable:
        return None
    u = menu.utilities
    base_value = rule_value(u, revealed_posteriors(scr.probs, prior), spec)
    rp = revealed_posteriors(scr.probs, prior)
    included, post = list(rp.included), rp.belief_matrix()
    hom = np.vstack([post.T, np.ones(len(included))])
    _, svals, vt = np.linalg.svd(hom)
    if len(included) - int(np.sum(svals > max(svals[0], 1.0) * 1e-10)) > 0:
        nu = vt[-1]
        if nu[np.abs(nu).argmax()] < 0.0:
            nu = -nu
        marg = rp.marginals[included]
        eps = 0.5 * (marg[nu != 0.0] / np.abs(nu[nu != 0.0])).min()
        for sign in (1.0, -1.0):
            candidate = scr.probs.copy()
            candidate[included] = ((marg + sign * eps * nu) / marg)[:, None] \
                * scr.probs[included]
            alt = ic.SCR(candidate)
            if np.abs(alt.probs - scr.probs).max() <= 1e-12:
                continue
            twin = revealed_posteriors(alt.probs, prior)
            if abs(rule_value(u, twin, spec) - base_value) <= 1e-10:
                return alt
    return None


def recover_by_composition(scr, prior, spec):
    """``recover_utility`` with its checks made by ``require_valid`` on a
    zero-utility menu and the cost; returns the recovered base."""
    blank = ic.Menu([str(a) for a in range(scr.n_actions)],
                    np.zeros((scr.n_actions, prior.n_states)))
    require_valid(prior, blank, scr, spec)
    if scr.probs.min() <= 0.0 or ic.reveal(scr, prior).excluded:
        raise InvalidInputError("utility recovery needs conditionally full support "
                                "(every action used in every state)")
    return rule_gradients(spec, revealed_posteriors(scr.probs, prior))[0]


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInputError as exc:
        return type(exc).__name__, str(exc)


def audit_like_cases():
    """Rules rationalized under MI and chi-square, interior and with an
    excluded action, with more actions than states and fewer, each with its
    rationalizing utility (plus a state term) and a perturbed one."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n_a, n_s = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        prior = random_prior(rng, n_s)
        spec = (ic.MutualInformation(prior, float(rng.uniform(0.1, 2.0)))
                if rng.uniform() < 0.5
                else ic.PosteriorSeparable(ic.ChiSquareDivergence(prior)))
        probs = random_interior_scr(rng, n_a, n_s).probs.copy()
        if rng.uniform() < 0.3:
            probs[int(rng.integers(n_a))] = 0.0
            probs /= probs.sum(axis=0)
        if rng.uniform() < 0.3 and n_a >= 3:
            # two actions with one posterior: a twin exists even when n_a <= n_s
            probs[1] = 0.6 * probs[0]
            probs[0] *= 0.4
            probs /= probs.sum(axis=0)
        scr = ic.SCR(probs)
        base = ic.rationalize(scr, prior, spec).utilities
        u = base + rng.normal(size=n_s)[None, :]
        bumped = u.copy()
        bumped[0, 0] += 0.1
        for utilities in (u, bumped):
            yield scr, ic.Menu([f"a{i}" for i in range(n_a)], utilities), prior, spec


def test_find_equivalent_matches_the_composition():
    twins = 0
    for scr, menu, prior, spec in audit_like_cases():
        got = outcome(ic.find_equivalent, scr, menu, prior, spec)
        want = outcome(find_equivalent_by_composition, scr, menu, prior, spec)
        if isinstance(want, ic.SCR):
            twins += 1
            assert np.array_equal(got.probs, want.probs)
        else:
            assert got == want
    assert twins >= 10


def test_find_equivalent_refuses_as_before():
    rng = np.random.default_rng(9)
    prior = random_prior(rng, 3)
    other = random_prior(rng, 3)
    scr = random_interior_scr(rng, 4, 3)
    spec = ic.MutualInformation(prior, 1.0)
    menu = ic.rationalize(scr, prior, spec)
    bad_sums = ic.SCR(scr.probs * 1.01)
    wrong_states = random_interior_scr(rng, 4, 2)
    custom = ic.PosteriorSeparable(ic.CustomDivergence(prior, lambda mu: float(mu @ mu)))
    for args in [(bad_sums, menu, prior, spec), (wrong_states, menu, prior, spec),
                 (scr, menu, other, spec), (scr, menu, prior, custom)]:
        assert outcome(ic.find_equivalent, *args) == \
            outcome(find_equivalent_by_composition, *args)


def test_recover_utility_matches_the_composition():
    rng = np.random.default_rng(31)
    cases = [(scr, prior, spec) for scr, _, prior, spec in audit_like_cases()]
    prior = random_prior(rng, 3)
    spec = ic.MutualInformation(prior, 1.0)
    scr = random_interior_scr(rng, 3, 3)
    cases += [
        (ic.SCR(scr.probs * 1.01), prior, spec),
        (random_interior_scr(rng, 3, 2), prior, spec),
        (scr, random_prior(rng, 3), spec),
        (scr, ic.Prior(prior.states, [0.5, 0.5, 0.0]), spec),
        (ic.SCR(np.vstack([scr.probs[:2] * 1.01, scr.probs[2]])),
         ic.Prior(prior.states, [0.5, 0.5, 0.0]), spec),
    ]
    for scr, prior, spec in cases:
        got = outcome(ic.recover_utility, scr, prior, spec)
        want = outcome(recover_by_composition, scr, prior, spec)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got.base, want)
