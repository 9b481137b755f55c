"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Runs every workload of the
harness briefly, untraced and traced, and checks that the last line
carries every metric named in BENCHMARK.json with its unit. Then feeds each workload's
checker one corrupted output and checks that it counts as a failed op and
makes the run incorrect, and that the library's LP failures count as
failed ops while any other exception makes the run incorrect. Exits 0
when every check holds.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TINY_SECONDS = "0.3"


def emitted_metrics(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", TINY_SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    return result["metrics"]


def check_metric_names(spec: dict, names: list[str]) -> list[str]:
    problems = []
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = emitted_metrics(name, trace)
            for entry in spec[key]:
                got = metrics.get(entry["name"])
                if got is None:
                    problems.append(f"{name} trace={trace}: {entry['name']} missing")
                elif got["unit"] != entry["unit"]:
                    problems.append(f"{name} trace={trace}: {entry['name']} "
                                    f"unit {got['unit']} != {entry['unit']}")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{name}: {entry['name']} is not a number")
            print(f"metrics  {name:10s} trace={trace} checked", flush=True)
    return problems


def corrupt(workload: str, out):
    """One wrong output per workload, built from a right one. A batch's
    output is a list; its first part is corrupted."""
    if isinstance(out, list):
        return [corrupt(workload, out[0])] + out[1:]
    if workload == "forward":
        result, cert = out
        return result, dataclasses.replace(cert, verdict="not-optimal")
    if workload == "audit":
        bad = dict(out)
        bad["blackwell"] = dataclasses.replace(out["blackwell"],
                                               holds=not out["blackwell"].holds)
        return bad
    if workload == "cross-menu":
        first = out.predictions[-1]
        probs = first.scr.probs[::-1].copy()
        wrong = dataclasses.replace(first, scr=type(first.scr)(probs))
        return dataclasses.replace(out, predictions=out.predictions[:-1] + (wrong,))
    bad = dict(out)
    bad["stdout"] = out["stdout"].replace(b"e", b"E", 1)
    return bad


def check_corruption(names) -> list[str]:
    import run
    sys.path.insert(0, run.SRC)
    import workloads

    problems = []
    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    runner = workloads.CliRunner(ROOT, run.SRC)
    try:
        for name in names:
            bench = workloads.BUILDERS[name](0, workdir, runner)
            op = bench.ops[0]
            dt, out, err = run.execute(op, workloads.failure_kind)
            expected = workloads.EXPECTED_FAILURES
            good = run.judge([(op, dt, out, err)], expected)
            bad = run.judge([(op, dt, corrupt(name, out), None)], expected)
            if good["passed"] != [True]:
                problems.append(f"{name}: the uncorrupted output did not pass")
            if bad["passed"] != [False] or bad["wrong"] != 1:
                problems.append(f"{name}: a corrupted output was not counted as failed")
            print(f"checker  {name:10s} ok={good['passed']} corrupted={bad['passed']}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_failure_kinds() -> list[str]:
    """The library's LP failures count as failed ops; any other exception
    makes the run incorrect."""
    import run
    import workloads

    problems = []
    kinds = {
        "oracle LP failed: status 15": "LPFailure",
        "informativeness LP failed: status 15": "LPFailure",
        "something else": "RuntimeError",
    }
    for message, want in kinds.items():
        got = workloads.failure_kind(RuntimeError(message))
        if got != want:
            problems.append(f"failure kind of {message!r} is {got}, not {want}")
    op = workloads.Op("x", lambda: None, lambda out: True)
    for err, unexpected in (("SolverError", 0), ("LPFailure", 0), ("TypeError", 1)):
        verdict = run.judge([(op, 0.0, None, err)], workloads.EXPECTED_FAILURES)
        if verdict["passed"] != [False] or verdict["unexpected"] != unexpected:
            problems.append(f"{err}: judged {verdict}")
    print("failure kinds checked", flush=True)
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    import run  # sets the thread pins before numpy loads
    problems = (check_metric_names(spec, run.WORKLOADS) + check_corruption(run.WORKLOADS)
                + check_failure_kinds())
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
