"""Start-up cost: importing the package and running the analysis commands,
the Blackwell and lattice-oracle LPs included, must not load scipy, whose
``scipy.optimize`` import takes most of a short CLI process. Each check runs
in a fresh interpreter, because this test process has scipy loaded already.
"""

import json
import math
import os
import subprocess
import sys

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
#: scipy module was loaded once it returned.
CHILD = """
import json, sys
from infochoice import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

problem, out = sys.argv[1], sys.argv[2]
report = [["import", 0, scipy_loaded()]]
for command in sys.argv[3:]:
    code = cli.main([command, problem, "--out", out])
    report.append([command, code, scipy_loaded()])
print(json.dumps(report))
"""


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


def test_general_solve_loads_scipy_for_its_polish(tmp_path):
    # the control: the same probe sees scipy once the general solver's
    # Newton polish imports scipy.optimize.root
    chi_square = dict(SYM2, cost={"type": "posterior_separable",
                                  "divergence": {"type": "chi_square"}})
    (_, _, at_import), (_, code, after) = run_child(tmp_path, "solve",
                                                    problem_data=chi_square)
    assert at_import == []
    assert code == 0
    assert "scipy.optimize" in after
