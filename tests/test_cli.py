import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infochoice as ic
from infochoice.cli import main
from infochoice.jsonio import (canonical_dumps, cost_from_json, cost_to_json, parse_problem,
                               problem_to_json)
from infochoice.model import OPTIMAL_TOL

E_RATIO = math.e / (1.0 + math.e)

SYM2 = {
    "states": ["x", "y"],
    "prior": [0.5, 0.5],
    "actions": ["1", "0"],
    "utilities": [[1.0, 0.0], [0.0, 1.0]],
    "cost": {"type": "mutual_information", "scale": 1.0},
    "options": {"tol": 1e-10, "max_iter": 100000, "seed": 0},
}


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolveCommand:
    def test_sym2_solution_row_order_follows_actions(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        code, out = run(capsys, "solve", path)
        assert code == 0
        data = json.loads(out)
        scr = np.asarray(data["scr"])
        assert scr[0] == pytest.approx([E_RATIO, 1 - E_RATIO], abs=1e-6)
        assert scr[1] == pytest.approx([1 - E_RATIO, E_RATIO], abs=1e-6)
        assert data["method"] == "mi-newton"

    def test_posterior_separable_kl_runs_on_the_mi_newton(self, tmp_path, capsys):
        mi = json.loads(run(capsys, "solve", write_problem(tmp_path, SYM2))[1])
        data = dict(SYM2, cost={"type": "posterior_separable",
                                "divergence": {"type": "kl"}})
        code, out = run(capsys, "solve", write_problem(tmp_path, data, "kl.json"))
        assert code == 0
        assert json.loads(out) == mi

    def test_oracle_counts_an_affine_intercept(self, tmp_path, capsys):
        chi = {"type": "chi_square"}
        plain = dict(SYM2, cost={"type": "posterior_separable", "divergence": chi})
        shifted = dict(SYM2, cost={"type": "transformed", "divergence": chi,
                                   "psi": {"type": "affine", "a": 1, "b": 0.3}})
        values = []
        for name, data in (("plain.json", plain), ("shifted.json", shifted)):
            code, out = run(capsys, "oracle", write_problem(tmp_path, data, name))
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[1] == pytest.approx(values[0] - 0.3, abs=1e-12)

    def test_output_is_byte_identical_across_runs(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        _, first = run(capsys, "solve", path)
        _, second = run(capsys, "solve", path)
        assert first == second

    def test_out_flag_writes_the_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        target = tmp_path / "result.json"
        code, out = run(capsys, "solve", path, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["scr"]

    def test_csv_export_has_state_header(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        code, out = run(capsys, "solve", path, "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "action,x,y"
        assert lines[1].startswith("1,0.73105857")

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        data = dict(SYM2)
        data["utilities"] = [[1.0, 0.0], [0.0, 0.5]]
        data["options"] = {"max_iter": 1}
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "solve", path)
        assert code == 3
        assert json.loads(out)["error"]["code"] == 3


    def test_tiny_scale_exits_3_naming_the_cause(self, tmp_path, capsys):
        data = copy.deepcopy(SYM2)
        data["cost"]["scale"] = 1e-310
        code, out = run(capsys, "solve", write_problem(tmp_path, data))
        assert code == 3
        assert json.loads(out)["error"]["message"].startswith(
            "the scaled utilities u / scale overflow float64")

    def test_rule_whose_optimum_underflows_certifies(self, tmp_path, capsys):
        # at scale 1e-308 the optimum's off-diagonal entries are e^-1e308,
        # stored as 0: the float-rounded rule, fully revealing, is optimal
        data = copy.deepcopy(SYM2)
        data["cost"]["scale"] = 1e-308
        code, out = run(capsys, "solve", write_problem(tmp_path, data))
        assert code == 0
        assert json.loads(out)["scr"] == [[1.0, 0.0], [0.0, 1.0]]
        data["scr"] = json.loads(out)["scr"]
        code, out = run(capsys, "certify", write_problem(tmp_path, data, "rule.json"))
        assert code == 0
        assert json.loads(out)["verdict"] == "optimal"


class TestValidationErrors:
    def test_zero_prior_exits_2(self, tmp_path, capsys):
        data = dict(SYM2)
        data["states"] = ["x", "y", "z"]
        data["prior"] = [0.5, 0.5, 0.0]
        data["utilities"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "solve", path)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == 2
        assert "full support" in err["message"]

    @pytest.mark.parametrize("tol", [0, -1])
    def test_chi_square_solve_refuses_a_tol_not_above_zero(self, tmp_path, capsys,
                                                          tol):
        data = copy.deepcopy(SYM2)
        data["cost"] = {"type": "posterior_separable",
                        "divergence": {"type": "chi_square"}}
        data["options"]["tol"] = tol
        code, out = run(capsys, "solve", write_problem(tmp_path, data))
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("options.tol: ")

    def test_unknown_field_rejected_in_strict_mode(self, tmp_path, capsys):
        data = dict(SYM2)
        data["surprise"] = 1
        path = write_problem(tmp_path, data)
        code, _ = run(capsys, "solve", path, "--strict")
        assert code == 2
        code, _ = run(capsys, "solve", path)
        assert code == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out = run(capsys, "solve", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run(capsys, "solve", str(path))
        assert code == 2

    def test_csv_on_non_scr_command_exits_2(self, tmp_path, capsys):
        data = dict(SYM2)
        data["scr"] = [[0.5, 0.5], [0.5, 0.5]]
        path = write_problem(tmp_path, data)
        code, _ = run(capsys, "kappa", path, "--csv")
        assert code == 2

    def test_oracle_grid_zero_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        code, out = run(capsys, "oracle", path, "--grid", "0")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == 2
        assert "grid resolution" in err["message"]

    def test_directory_as_problem_exits_2(self, tmp_path, capsys):
        code, out = run(capsys, "solve", str(tmp_path))
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("cannot open")

    def test_non_utf8_problem_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"states": ["\u00e9t\u00e9", "y"]}'.encode("latin-1"))
        code, out = run(capsys, "solve", str(path))
        assert code == 2
        assert "UTF-8" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000],
                             ids=["nested-too-deep", "integer-past-digit-limit"])
    def test_json_the_parser_refuses_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out = run(capsys, "solve", str(path))
        assert code == 2
        assert "invalid JSON" in json.loads(out)["error"]["message"]

    def test_unwritable_out_path_reports_on_stdout(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        target = str(tmp_path / "missing" / "x")
        code, out = run(capsys, "solve", path, "--out", target)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["location"] == target
        assert err["message"].startswith(f"cannot write {target}")

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_probe_trials_below_one_exits_2(self, tmp_path, capsys, trials):
        path = write_problem(tmp_path, SYM2)
        code, out = run(capsys, "probe", path, "--trials", trials)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("--trials:")

    @pytest.mark.parametrize("command, path, value, location", [
        ("solve", ["cost"], {"type": "transformed", "divergence": {"type": "kl"}},
         "cost.psi"),
        ("solve", ["cost"], {"type": "posterior_separable"}, "cost.divergence"),
        ("solve", ["cost", "scale"], "abc", "cost.scale"),
        ("solve", ["cost", "scale"], [1], "cost.scale"),
        ("blackwell", ["policies"],
         {"p": {"beliefs": [[0.5, 0.5]]}, "q": {"beliefs": [[0.5, 0.5]], "weights": [1]}},
         "policies.p.weights"),
        ("solve", ["options", "max_iter"], "x", "options.max_iter"),
        ("oracle", ["options", "grid_resolution"], "x", "options.grid_resolution"),
        ("oracle", ["options", "grid_resolution"], 2.7, "options.grid_resolution"),
        ("solve", ["cost"], [1], "cost"),
        ("solve", ["states"], "xy", "states"),
        ("solve", ["cost", "scale"], float("inf"), "cost.scale"),
        ("solve", ["cost", "scale"], float("nan"), "cost.scale"),
        ("solve", ["cost", "scale"], 10 ** 400, "cost.scale"),
        ("solve", ["cost"], {"type": "transformed", "divergence": {"type": "kl"},
                             "psi": {"type": "exp", "rate": float("-inf")}},
         "cost.psi.rate"),
        ("solve", ["options", "tol"], float("nan"), "options.tol"),
        ("probe", ["options", "seed"], -1, "options.seed"),
        ("solve", ["cost", "type"], [], "cost.type"),
        ("solve", ["prior"], ["0.5", "0.5"], "prior[0]"),
        ("solve", ["utilities"], [[True, False], ["1e0", "0"]], "utilities[0][0]"),
        ("solve", ["utilities"], [[1.0, 0.0], ["1e0", "0"]], "utilities[1][0]"),
        ("kappa", ["scr"], [[0.5, 0.5], [0.5, "0.5"]], "scr[1][1]"),
        ("blackwell", ["policies"],
         {"p": {"beliefs": [[0.5, 0.5]], "weights": [True]},
          "q": {"beliefs": [[0.5, 0.5]], "weights": [1]}},
         "policies.p.weights[0]"),
        ("solve", ["prior"], [10 ** 400, 1], "prior[0]"),
        ("solve", ["options", "max_iter"], 0, "options.max_iter"),
        ("solve", ["options", "max_iter"], -1, "options.max_iter"),
        ("unique", ["scr"], [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
         "scr shape (2, 3) does not match 2 actions x 2 states"),
        ("unique", ["scr"], [[0.5], [0.5]],
         "scr shape (2, 1) does not match 2 actions x 2 states"),
        ("unique", ["scr"], [[0.5, 0.5], [0.4, 0.5]], "state x"),
        ("reveal", ["scr"], [[0.5, 0.5], [0.25, 0.25], [0.25, 0.25]], "scr"),
        ("unique", ["scr"], [[0.5, 0.5], [0.25, 0.25], [0.25, 0.25]], "scr"),
        ("kappa", ["scr"], [[0.5, 0.5], [0.25, 0.25], [0.25, 0.25]], "scr"),
        ("blackwell", ["policies"],
         {"p": {"beliefs": [[0.5, 0.5, 0.0], [0.5, 0.5]], "weights": [0.5, 0.5]},
          "q": {"beliefs": [[0.5, 0.5]], "weights": [1]}},
         "policies.p.beliefs"),
        ("blackwell", ["policies"],
         {"p": {"beliefs": [0.5, 0.5], "weights": [1]},
          "q": {"beliefs": [[0.5, 0.5]], "weights": [1]}},
         "policies.p.beliefs[0]"),
        ("blackwell", ["policies"],
         {"p": {"beliefs": [[[0.5, 0.5]], [[0.5, 0.5]]], "weights": [0.5, 0.5]},
          "q": {"beliefs": [[0.5, 0.5]], "weights": [1]}},
         "policies.p.beliefs[0][0]"),
        ("certify", ["scr"], [[1.7, 0.5], [0.0, 0.5]], "scr probs"),
        ("kappa", ["scr"], [[1.7, 0.5], [0.0, 0.5]], "scr probs"),
        ("blackwell", ["policies"],
         {"p": {"beliefs": [[0.5, 0.5]], "weights": [3.0]},
          "q": {"beliefs": [[0.5, 0.5]], "weights": [1]}},
         "policy weights"),
        ("reveal", ["prior"], [5, 0], "prior weights"),
        ("reveal", ["scr"], [[0.9, 0.6], [0.6, 0.9]], "state x"),
        ("kappa", ["scr"], [[0.9, 0.6], [0.6, 0.9]], "state x"),
        ("solve", ["options", "tol"], 0, "options.tol"),
        ("solve", ["options", "tol"], -1, "options.tol"),
    ], ids=["transformed-without-psi", "separable-without-divergence",
            "scale-string", "scale-list", "policy-without-weights",
            "max-iter-string", "grid-string", "grid-fraction", "cost-list",
            "states-string", "scale-infinity", "scale-nan", "scale-overflows-float",
            "psi-rate-minus-infinity", "tol-nan", "seed-negative",
            "type-list", "prior-numeric-strings", "utilities-booleans",
            "utilities-numeric-strings", "scr-numeric-string",
            "policy-weight-boolean", "prior-overflows-float", "max-iter-zero",
            "max-iter-negative", "unique-scr-three-states", "unique-scr-one-state",
            "unique-scr-column-sum", "reveal-scr-three-rows", "unique-scr-three-rows",
            "kappa-scr-three-rows", "policy-beliefs-ragged", "policy-belief-not-array",
            "policy-beliefs-three-dimensional", "certify-scr-above-one",
            "kappa-scr-above-one", "policy-weight-above-one", "prior-above-one",
            "reveal-scr-column-sum", "kappa-scr-column-sum", "tol-zero",
            "tol-negative"])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, command,
                                               path, value, location):
        data = copy.deepcopy(SYM2)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, out = run(capsys, command, write_problem(tmp_path, data))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == 2
        # the message names the field and then what is wrong with it, or is
        # the whole complaint when two fields disagree
        assert err["message"] == location or err["message"].startswith(f"{location}:")


class TestAnalysisCommands:
    def test_kappa_of_uninformative_rule_is_zero(self, tmp_path, capsys):
        data = dict(SYM2)
        data["scr"] = [[0.5, 0.5], [0.5, 0.5]]
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "kappa", path)
        assert code == 0
        assert json.loads(out) == {"kappa": 0.0}

    def test_reveal_reports_marginals_and_posteriors(self, tmp_path, capsys):
        data = dict(SYM2)
        data["scr"] = [[0.25, 0.75], [0.75, 0.25]]
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "reveal", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["marginals"]["1"] == pytest.approx(0.5)
        assert payload["posteriors"]["1"] == pytest.approx([0.25, 0.75])
        assert payload["excluded"] == []

    def test_certify_and_unique_pipeline(self, tmp_path, capsys):
        solution = [[E_RATIO, 1 - E_RATIO], [1 - E_RATIO, E_RATIO]]
        data = dict(SYM2)
        data["scr"] = solution
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "certify", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "optimal"
        code, out = run(capsys, "unique", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "unique-capable"

    def test_invert_recovers_a_rationalizing_utility(self, tmp_path, capsys):
        data = dict(SYM2)
        data["scr"] = [[E_RATIO, 1 - E_RATIO], [1 - E_RATIO, E_RATIO]]
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "invert", path)
        assert code == 0
        payload = json.loads(out)
        base = np.asarray(payload["utilities"])
        diff = np.asarray(SYM2["utilities"]) - base
        assert np.abs(diff[0] - diff[1]).max() < 1e-6

    def test_predict_submenu_list(self, tmp_path, capsys):
        u = 2.0 * np.eye(3)
        data = {
            "states": ["s0", "s1", "s2"],
            "prior": [1 / 3, 1 / 3, 1 / 3],
            "actions": ["a", "b", "c"],
            "utilities": u.tolist(),
            "cost": {"type": "mutual_information", "scale": 1.0},
        }
        from infochoice import Menu, Prior, solve_mi
        scr = solve_mi(Menu(data["actions"], u), Prior(data["states"], data["prior"]),
                       1.0).scr
        data["scr"] = scr.probs.tolist()
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "predict", path, "--submenus", "a,b;c")
        assert code == 0
        payload = json.loads(out)
        assert [p["submenu"] for p in payload] == [["a", "b"], ["c"]]
        assert payload[1]["scr"] == [[1.0, 1.0, 1.0]]

    def test_blackwell_uses_the_policies_block(self, tmp_path, capsys):
        data = dict(SYM2)
        data["policies"] = {
            "p": {"beliefs": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]},
            "q": {"beliefs": [[0.5, 0.5]], "weights": [1.0]},
        }
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "blackwell", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["witness"] is not None

    def test_oracle_matches_solver_value(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        code, out = run(capsys, "oracle", path, "--grid", "400")
        assert code == 0
        payload = json.loads(out)
        _, solved = run(capsys, "solve", path)
        assert abs(payload["value"] - json.loads(solved)["value"]) < 1e-3

    def test_probe_reports_the_seed(self, tmp_path, capsys):
        data = dict(SYM2)
        data["options"] = {"seed": 17}
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "probe", path, "--kind", "convexity", "--trials", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 17
        assert payload["max_violation"] <= 1e-8


class TestCanonicalJson:
    def test_serialize_parse_serialize_round_trip(self):
        problem = parse_problem(SYM2)
        text = canonical_dumps(problem_to_json(problem))
        reparsed = parse_problem(json.loads(text))
        assert canonical_dumps(problem_to_json(reparsed)) == text

    def test_absent_options_take_the_solver_defaults_and_are_written(self):
        problem = parse_problem({k: v for k, v in SYM2.items() if k != "options"})
        assert problem.options.tol == OPTIMAL_TOL
        assert problem.options.max_iter == ic.SolveOptions().max_iter
        written = problem_to_json(problem)["options"]
        assert (written["tol"], written["max_iter"]) == (OPTIMAL_TOL, 100_000)

    def test_every_cost_form_round_trips(self):
        # mutual information, each divergence posterior-separable and under
        # each psi, and a max-over-set: equal specs and identical bytes
        prior = ic.Prior(["x", "y"], [0.3, 0.7])
        kl, chi = ic.KLDivergence(prior), ic.ChiSquareDivergence(prior)
        specs = [ic.MutualInformation(prior, 0.7), ic.PosteriorSeparable(kl),
                 ic.PosteriorSeparable(chi), ic.MaxOverSet([kl, chi])] + [
            ic.Transformed(div, psi) for div in (kl, chi)
            for psi in (ic.IdentityPsi(), ic.AffinePsi(2.0, 0.3), ic.PowerPsi(2.0),
                        ic.ExpPsi(1.5))]
        assert len(specs) == 12
        for spec in specs:
            text = canonical_dumps(cost_to_json(spec))
            back = cost_from_json(json.loads(text), prior, strict=True)
            assert back == spec
            assert canonical_dumps(cost_to_json(back)) == text

    def test_floats_render_17_significant_digits(self):
        assert canonical_dumps(1 / 3) == "0.33333333333333331\n"
        assert canonical_dumps(-0.0) == "0\n"

    def test_keys_are_sorted(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


class TestProbeKinds:
    def test_consistency_probe_reports_counts(self, tmp_path, capsys):
        data = {
            "states": ["s0", "s1", "s2"],
            "prior": [1 / 3, 1 / 3, 1 / 3],
            "actions": ["a", "b", "c"],
            "utilities": [[0.0] * 3] * 3,
            "cost": {"type": "mutual_information", "scale": 1.0},
            "options": {"seed": 11},
        }
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "probe", path, "--kind", "consistency",
                        "--trials", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 4
        assert payload["completed"] + payload["skipped_not_interior"] == 4
        assert payload["max_deviation"] < 1e-6

    def test_uniqueness_probe_reports_spread(self, tmp_path, capsys):
        path = write_problem(tmp_path, SYM2)
        code, out = run(capsys, "probe", path, "--kind", "uniqueness",
                        "--trials", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_scr_spread"] < 1e-6

    def test_uniqueness_probe_restarts_the_general_solver(self, tmp_path, capsys):
        # each restart starts the chi-square solve from its own marginals, so
        # the spread is the solver's precision: small, but not exactly 0
        data = {
            "states": ["s0", "s1", "s2"],
            "prior": [0.2, 0.3, 0.5],
            "actions": ["a", "b", "c"],
            "utilities": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.4], [0.3, 0.2, 1.0]],
            "cost": {"type": "posterior_separable",
                     "divergence": {"type": "chi_square"}},
        }
        path = write_problem(tmp_path, data)
        code, out = run(capsys, "probe", path, "--kind", "uniqueness",
                        "--trials", "2")
        assert code == 0
        assert 0.0 < json.loads(out)["max_scr_spread"] < 1e-4


def test_strict_mode_rejects_unknown_nested_cost_fields(tmp_path, capsys):
    data = dict(SYM2)
    data["cost"] = {"type": "mutual_information", "scale": 1.0, "bogus": 3}
    path = write_problem(tmp_path, data)
    code, _ = run(capsys, "solve", path, "--strict")
    assert code == 2
    code, _ = run(capsys, "solve", path)
    assert code == 0


# Arbitrary JSON, NaN and infinities included, for the fuzz below.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

FUZZ_BASE = dict(SYM2, scr=[[E_RATIO, 1 - E_RATIO], [1 - E_RATIO, E_RATIO]])
FUZZ_PATHS = [("states",), ("states", 0), ("prior",), ("prior", 1), ("actions",),
              ("actions", 1), ("utilities",), ("utilities", 0), ("utilities", 1, 0),
              ("cost",), ("cost", "type"), ("cost", "scale"), ("scr",), ("scr", 0),
              ("scr", 1, 1), ("options",), ("options", "seed")]
# a Blackwell pair over SYM2's prior, p dominating q
FUZZ_POLICY_BASE = dict(FUZZ_BASE, policies={
    "p": {"beliefs": [[0.75, 0.25], [0.25, 0.75]], "weights": [0.5, 0.5]},
    "q": {"beliefs": [[0.5, 0.5]], "weights": [1.0]}})
FUZZ_POLICY_PATHS = FUZZ_PATHS + [
    ("policies",), ("policies", "p"), ("policies", "p", "beliefs"),
    ("policies", "p", "beliefs", 0), ("policies", "p", "beliefs", 1, 0),
    ("policies", "p", "weights"), ("policies", "p", "weights", 1),
    ("policies", "q", "beliefs"), ("policies", "q", "beliefs", 0),
    ("policies", "q", "weights")]


@st.composite
def mutated_problems(draw, base=FUZZ_BASE, paths=FUZZ_PATHS):
    """A certified problem, SYM2 by default, with a few fields replaced or
    removed."""
    data = copy.deepcopy(base)
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                parent[path[-1]] = draw(JSON_VALUES)
            elif isinstance(parent, dict):
                parent.pop(path[-1], None)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped the parent
    return data


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestMalformedFilesFuzz:
    """Any problem file makes the analysis, Blackwell, oracle, solve and
    predict commands exit 0, 2 or 3 with JSON on stdout; none raises."""

    @staticmethod
    def exit_cleanly(fuzz_file, data, commands):
        fuzz_file.write_text(json.dumps(data))
        for command in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, str(fuzz_file)])
            assert code in (0, 2, 3), command
            payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
            if code:
                assert payload["error"]["code"] == code

    @settings(max_examples=150)
    @given(data=st.one_of(JSON_VALUES, mutated_problems()))
    def test_analysis_commands_exit_cleanly(self, fuzz_file, data):
        self.exit_cleanly(fuzz_file, data,
                          ("reveal", "kappa", "certify", "unique", "invert"))

    @settings(max_examples=150)
    @given(data=mutated_problems(FUZZ_POLICY_BASE, FUZZ_POLICY_PATHS))
    def test_policy_commands_exit_cleanly(self, fuzz_file, data):
        self.exit_cleanly(fuzz_file, data, ("blackwell", "oracle"))

    # a solve that does not end within the deadline is a defect too
    @settings(max_examples=100, deadline=10_000)
    @given(data=mutated_problems())
    def test_solve_and_predict_exit_cleanly(self, fuzz_file, data):
        self.exit_cleanly(fuzz_file, data, ("solve", "predict"))
