"""Start-up cost: importing the package and running the CLI commands, the
general solver, the Blackwell and lattice-oracle LPs included, must not
load scipy, whose ``scipy.optimize`` import takes most of a short CLI
process. Each check runs in a fresh interpreter, because this test process
has scipy loaded already.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import infochoice

E_RATIO = math.e / (1.0 + math.e)

SYM2 = {
    "states": ["x", "y"],
    "prior": [0.5, 0.5],
    "actions": ["1", "0"],
    "utilities": [[1.0, 0.0], [0.0, 1.0]],
    "cost": {"type": "mutual_information", "scale": 1.0},
    "scr": [[E_RATIO, 1 - E_RATIO], [1 - E_RATIO, E_RATIO]],
    "policies": {
        "p": {"beliefs": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]},
        "q": {"beliefs": [[0.5, 0.5]], "weights": [1.0]},
    },
}

#: Runs each command given on the command line, in order, through
#: ``cli.main`` and prints, per command, its exit code and whether any
#: scipy module was loaded once it returned. The pseudo-command
#: ``import-scipy`` imports ``scipy.optimize`` instead.
CHILD = """
import json, sys
from infochoice import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

problem, out = sys.argv[1], sys.argv[2]
report = [["import", 0, scipy_loaded()]]
for command in sys.argv[3:]:
    if command == "import-scipy":
        import scipy.optimize
        code = 0
    else:
        code = cli.main([command, problem, "--out", out])
    report.append([command, code, scipy_loaded()])
print(json.dumps(report))
"""

CHI_SQUARE = dict(SYM2, cost={"type": "posterior_separable",
                              "divergence": {"type": "chi_square"}})
KL_SQUARED = dict(SYM2, cost={"type": "transformed", "divergence": {"type": "kl"},
                              "psi": {"type": "power", "exponent": 2.0}})


def run_child(tmp_path, *commands, problem_data=SYM2):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(problem_data))
    src = os.path.dirname(os.path.dirname(os.path.abspath(infochoice.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(problem), str(tmp_path / "out.json"),
         *commands],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_analysis_commands_never_load_scipy(tmp_path):
    commands = ["reveal", "kappa", "certify", "invert", "unique", "solve",
                "blackwell", "oracle"]
    report = run_child(tmp_path, *commands)
    assert [step[0] for step in report] == ["import"] + commands
    for command, code, loaded in report:
        assert code == 0, command
        assert loaded == [], f"{command} loaded {loaded[:3]}"


@pytest.mark.parametrize("problem_data", [CHI_SQUARE, KL_SQUARED],
                         ids=["chi-square", "kl-squared"])
def test_general_solver_never_loads_scipy(tmp_path, problem_data):
    report = run_child(tmp_path, "solve", "predict", problem_data=problem_data)
    assert [step[0] for step in report] == ["import", "solve", "predict"]
    for command, code, loaded in report:
        assert code == 0, command
        assert loaded == [], f"{command} loaded {loaded[:3]}"


def test_the_probe_sees_an_explicit_scipy_import(tmp_path):
    # the control: the same child reports scipy once it is imported, so the
    # checks above can fail
    (_, _, at_import), (_, code, after_solve), (_, _, after) = run_child(
        tmp_path, "solve", "import-scipy", problem_data=CHI_SQUARE)
    assert at_import == after_solve == []
    assert code == 0
    assert "scipy.optimize" in after
