import json
import math

import numpy as np
import pytest

from infochoice.cli import main
from infochoice.jsonio import canonical_dumps, parse_problem, problem_to_json

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
        assert data["method"] == "mi-fixed-point"

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


def test_strict_mode_rejects_unknown_nested_cost_fields(tmp_path, capsys):
    data = dict(SYM2)
    data["cost"] = {"type": "mutual_information", "scale": 1.0, "bogus": 3}
    path = write_problem(tmp_path, data)
    code, _ = run(capsys, "solve", path, "--strict")
    assert code == 2
    code, _ = run(capsys, "solve", path)
    assert code == 0
