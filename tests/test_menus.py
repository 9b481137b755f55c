import numpy as np
import pytest

import infochoice as ic
from conftest import anchored_menu, conditionally_full, random_prior


@pytest.fixture
def three_by_three():
    rng = np.random.default_rng(42)
    prior = random_prior(rng, 3)
    menu = anchored_menu(rng, 3, 3)
    spec = ic.MutualInformation(prior, 1.0)
    result = ic.solve_mi(menu, prior, 1.0)
    assert conditionally_full(result.scr, prior)
    return prior, menu, spec, result


#: costs whose uninformative policy is priced at psi(0) = 0, 1 and 0.3
_SINGLETON_COSTS = {
    "mi": lambda prior: ic.MutualInformation(prior, 1.0),
    "kl_exp": lambda prior: ic.Transformed(ic.KLDivergence(prior), ic.ExpPsi(1.0)),
    "chi_exp": lambda prior: ic.Transformed(ic.ChiSquareDivergence(prior),
                                            ic.ExpPsi(1.0)),
    "chi_affine": lambda prior: ic.Transformed(ic.ChiSquareDivergence(prior),
                                               ic.AffinePsi(1.0, 0.3)),
}


class TestPredictSubmenus:
    @pytest.mark.parametrize("kind", sorted(_SINGLETON_COSTS))
    def test_singleton_submenu_is_forced(self, three_by_three, kind):
        # a one-action forecast is the solve on its proxy submenu, so its
        # value counts psi(0) as every other forecast's does
        prior, menu, _, result = three_by_three
        spec = _SINGLETON_COSTS[kind](prior)
        forecast = ic.predict_submenus(result.scr, menu, prior, spec)
        proxy = ic.Menu(menu.actions, ic.recover_utility(result.scr, prior, spec).base)
        for pred in forecast.predictions:
            if len(pred.actions) == 1:
                assert np.all(pred.scr.probs == 1.0)
                assert pred.unique_capable
                assert (pred.verdict, pred.residual) == ("optimal", 0.0)
                direct = ic.solve(ic.submenu(proxy, pred.actions), prior, spec)
                assert pred.value == direct.value
        # no menu is worth more than a menu containing it
        for small in forecast.predictions:
            for big in forecast.predictions:
                if set(small.actions) < set(big.actions):
                    assert small.value <= big.value + 1e-9, (small.actions, big.actions)

    def test_grand_menu_forecast_reproduces_the_input(self, three_by_three):
        prior, menu, spec, result = three_by_three
        forecast = ic.predict_submenus(result.scr, menu, prior, spec)
        pred = forecast.for_actions(menu.actions)
        assert np.abs(pred.scr.probs - result.scr.probs).max() < 1e-6

    def test_pair_submenu_matches_direct_solve_with_the_true_utility(
            self, three_by_three):
        prior, menu, spec, result = three_by_three
        forecast = ic.predict_submenus(result.scr, menu, prior, spec,
                                       submenus=[["a0", "a1"]])
        pred = forecast.for_actions(["a0", "a1"])
        direct = ic.solve_mi(ic.submenu(menu, ["a0", "a1"]), prior, 1.0)
        assert np.abs(pred.scr.probs - direct.scr.probs).max() < 1e-6

    def test_all_submenus_enumerated_by_default(self, three_by_three):
        prior, menu, spec, result = three_by_three
        forecast = ic.predict_submenus(result.scr, menu, prior, spec)
        assert len(forecast.predictions) == 7

    def test_rejects_rules_without_conditionally_full_support(self, three_by_three):
        prior, menu, spec, _ = three_by_three
        corner = np.zeros((3, 3))
        corner[0] = 1.0
        with pytest.raises(ic.InvalidInputError, match="conditionally full"):
            ic.predict_submenus(ic.SCR(corner), menu, prior, spec)

    def test_rejects_kinked_costs(self, three_by_three):
        prior, menu, _, result = three_by_three
        env = ic.MaxOverSet([ic.KLDivergence(prior)])
        with pytest.raises(ic.InvalidInputError, match="smooth"):
            ic.predict_submenus(result.scr, menu, prior, env)

    def test_nuisance_shift_in_the_generating_utility_is_invisible(self):
        rng = np.random.default_rng(7)
        prior = random_prior(rng, 3)
        menu = anchored_menu(rng, 3, 3)
        spec = ic.MutualInformation(prior, 1.0)
        lam = rng.normal(size=3)
        shifted = ic.Menu(menu.actions, menu.utilities + lam[None, :])
        scr_a = ic.solve_mi(menu, prior, 1.0).scr
        scr_b = ic.solve_mi(shifted, prior, 1.0).scr
        fa = ic.predict_submenus(scr_a, menu, prior, spec)
        fb = ic.predict_submenus(scr_b, shifted, prior, spec)
        for pa, pb in zip(fa.predictions, fb.predictions):
            assert pa.actions == pb.actions
            assert np.abs(pa.scr.probs - pb.scr.probs).max() < 1e-8

    def test_menu_value_is_monotone_in_the_action_set(self, three_by_three):
        prior, menu, spec, result = three_by_three
        forecast = ic.predict_submenus(result.scr, menu, prior, spec)
        values = {p.actions: p.value for p in forecast.predictions}
        for small, v_small in values.items():
            for big, v_big in values.items():
                if set(small) <= set(big):
                    assert v_small <= v_big + 1e-10

    def test_idempotence_on_a_pair_submenu(self, three_by_three):
        prior, menu, spec, result = three_by_three
        labels = ["a0", "a2"]
        forecast = ic.predict_submenus(result.scr, menu, prior, spec,
                                       submenus=[labels])
        pred = forecast.for_actions(labels)
        if not conditionally_full(pred.scr, prior):
            pytest.skip("pair forecast hit a corner")
        again = ic.predict_submenus(pred.scr, ic.submenu(menu, labels), prior, spec,
                                    submenus=[labels])
        repeat = again.for_actions(labels)
        assert np.abs(repeat.scr.probs - pred.scr.probs).max() < 1e-6


class TestInitMarginalsStayOnTheGrandMenu:
    """A caller's ``init_marginals`` is sized for the grand menu; every
    submenu solve starts from the default marginals instead."""

    def test_forecasts_do_not_depend_on_the_grand_start(self, three_by_three):
        prior, menu, spec, result = three_by_three
        opts = ic.SolveOptions(init_marginals=np.array([0.5, 0.3, 0.2]))
        plain = ic.predict_submenus(result.scr, menu, prior, spec)
        started = ic.predict_submenus(result.scr, menu, prior, spec, opts=opts)
        assert len(started.predictions) == 7
        for a, b in zip(plain.predictions, started.predictions):
            assert a.actions == b.actions
            assert np.abs(a.scr.probs - b.scr.probs).max() <= 1e-9
            assert abs(a.value - b.value) <= 1e-9

    def test_forecast_consistency_runs_with_a_grand_start(self, three_by_three):
        prior, menu, spec, _ = three_by_three
        opts = ic.SolveOptions(init_marginals=np.array([0.5, 0.3, 0.2]))
        report = ic.forecast_consistency(menu, prior, spec, trials=3, seed=3,
                                         opts=opts)
        assert report.completed + report.skipped_not_interior == 3
        assert report.completed > 0
        assert report.max_deviation < 1e-6


class TestForecastConsistency:
    def test_small_batch_is_tight(self):
        prior = ic.Prior(["s0", "s1", "s2"], [1 / 3, 1 / 3, 1 / 3])
        menu = ic.Menu(["a0", "a1", "a2"], np.zeros((3, 3)))
        spec = ic.MutualInformation(prior, 1.0)
        report = ic.forecast_consistency(menu, prior, spec, trials=8, seed=3)
        assert report.completed > 0
        assert report.max_deviation < 1e-6

    def test_constant_utility_forecasts_are_uninformative(self):
        prior = ic.Prior(["s0", "s1"], [0.5, 0.5])
        menu = ic.Menu(["a0", "a1"], np.zeros((2, 2)))
        spec = ic.MutualInformation(prior, 1.0)
        scr = ic.solve_mi(menu, prior, 1.0).scr
        forecast = ic.predict_submenus(scr, menu, prior, spec)
        for pred in forecast.predictions:
            assert np.ptp(pred.scr.probs, axis=1).max() < 1e-9

    def test_no_information_limit_forecasts_the_mean_argmax(self):
        # at an enormous cost scale every submenu's optimum degenerates to a
        # point mass on the submenu's highest-mean action
        rng = np.random.default_rng(11)
        prior = random_prior(rng, 3)
        menu = anchored_menu(rng, 3, 3)
        for labels in (["a0", "a1"], ["a0", "a1", "a2"], ["a2"]):
            sub = ic.submenu(menu, labels)
            res = ic.solve_mi(sub, prior, 1e6)
            means = sub.utilities @ prior.weights
            expected = np.zeros_like(sub.utilities)
            expected[means.argmax()] = 1.0
            assert np.array_equal(res.scr.probs, expected)


#: 3x5 chi-square grand rules under AffinePsi slopes 0.042, 0.056 and 0.131,
#: each with the utility that rationalizes it plus a per-state shift: the
#: benchmark's cross-menu draws (seed 0 batch 20, seed 1 batches 37 and
#: 234) whose grand forecast once missed the rule by 1.1e-6 to 3.4e-6
_CROSS_MENU_MISSES = [
    (0.04186143523424772,
     [0.07631184977512989, 0.20536508323496278, 0.25079007853974694,
      0.301882725514592, 0.16565026293556837],
     [[0.7284016666415405, 0.10907702050490589, 0.6861075121260708,
       0.10993713650740164, 0.7329870627917126],
      [0.1255832607794682, 0.1413556644406046, 0.1235351694846486,
       0.11752670767966147, 0.11643901934747306],
      [0.14601507257899135, 0.7495673150544895, 0.19035731838928058,
       0.7725361558129369, 0.1505739178608142]],
     [[0.9482740499569432, 0.1628573300577913, 1.7150215586125843,
       0.4642606711121776, -1.3243464084021417],
      [0.9048668872032599, 0.25820386033201065, 1.678986044346522,
       0.5433871186092262, -1.3748583539885564],
      [0.8298597592042196, 0.2798688334170077, 1.6132402266655643,
       0.585177273899269, -1.4428989937204135]]),
    (0.05587133169742949,
     [0.130285035383012, 0.22334310198921858, 0.15507512597969392,
      0.2092402022014439, 0.28205653444663153],
     [[0.1200457078506636, 0.23044141058262196, 0.7393515246230494,
       0.7267629228641045, 0.7237336604341508],
      [0.6588041838662191, 0.5502175494869476, 0.12970589962635348,
       0.14359259456727255, 0.1377712841756983],
      [0.22115010828311715, 0.21934103993043036, 0.13094257575059695,
       0.12964448256862293, 0.13849505539015086]],
     [[1.3254754450236155, -0.043404713184370856, -0.0450065997564124,
       -2.1406135382739158, -0.6978305153717109],
      [1.5306763356986979, 0.0981123768925595, -0.16701722307267508,
       -2.2547975914542318, -0.8135701147703069],
      [1.460415979562418, 0.06737471465825096, -0.10005690425742884,
       -2.193931882833666, -0.7445001379454568]]),
    (0.13075037003450468,
     [0.198906441309275, 0.22794546651652645, 0.12118917722991175,
      0.2218094084619452, 0.2301495064823415],
     [[0.20847941948946097, 0.762011730820587, 0.7059789115248156,
       0.4093678130242591, 0.38046148910093597],
      [0.5684568035664173, 0.1126885669362435, 0.15096905497300592,
       0.39152750762525074, 0.42386034053375277],
      [0.2230637769441217, 0.1252997022431693, 0.1430520335021784,
       0.19910467935049003, 0.19567817036531115]],
     [[-0.4117878579286568, 1.549231314743651, -0.5838186197062958,
       -1.1319197223695074, -0.43592891295442565],
      [-0.09827172591527866, 1.2115582055166978, -0.8615898203225985,
       -1.0635575624896623, -0.3270264067397811],
      [-0.18191390306459976, 1.3345166191974869, -0.7420817023908785,
       -1.046608105995962, -0.33983211025005233]]),
]


@pytest.mark.parametrize("slope, weights, probs, utilities", _CROSS_MENU_MISSES,
                         ids=["seed0-batch20", "seed1-batch37", "seed1-batch234"])
def test_grand_forecast_reproduces_a_low_curvature_chi_square_rule(slope, weights,
                                                                    probs, utilities):
    # the benchmark's check: the grand forecast within 1e-6 of the input,
    # and every forecast certified on its submenu of the true menu
    prior = ic.Prior([f"s{j}" for j in range(5)], weights)
    spec = ic.Transformed(ic.ChiSquareDivergence(prior), ic.AffinePsi(slope))
    scr = ic.SCR(probs)
    menu = ic.Menu(["a0", "a1", "a2"], utilities)
    forecast = ic.predict_submenus(scr, menu, prior, spec)
    assert np.abs(forecast.for_actions(menu.actions).scr.probs - scr.probs).max() <= 1e-6
    for pred in forecast.predictions:
        truth = ic.submenu(menu, pred.actions)
        assert ic.certify(pred.scr, truth, prior, spec).verdict == "optimal"
