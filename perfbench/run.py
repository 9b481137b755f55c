"""Seeded benchmark of the infochoice package, end to end and per layer.

    python3 perfbench/run.py --workload forward|audit|cross-menu|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there, and the benchmark exits with code 2 when it is missing.

``--trace 0`` runs the workload's operations for S seconds and prints the
end-to-end metrics. ``--trace 1`` runs a fixed prefix of the same
operations twice, untraced and then with span wrappers around every public
function of the package, and prints the per-layer metrics. Either way the
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, sample counts, per-cell op counts, set-up samples).
"""

import os
import sys
import time

T_START = time.perf_counter()

#: one thread for every BLAS/OpenMP pool, here and in every child process
THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("forward", "audit", "cross-menu", "cli")
#: set-up is timed this many times per run (this process plus children)
SETUP_SAMPLES = 3
#: an op's rank in the sorted latencies must leave this many beyond it
TAIL_BEYOND = 10

#: per-layer metric -> (span name, summary key, unit)
SPAN_METRICS = {}
for _span, _keys in (
        ("solver.solve_mi", ("calls", "self_ms", "iters", "errors")),
        ("solver.solve_ps", ("calls", "self_ms", "iters", "errors")),
        ("costs.div_value", ("calls", "ms")),
        ("costs.div_gradient", ("calls", "ms")),
        ("costs.conjugate_max", ("calls", "ms")),
        ("costs.cost_eval", ("calls", "self_ms")),
        ("revealed.blackwell_geq", ("calls", "self_ms", "lp_vars")),
        ("solver.grid_oracle", ("calls", "self_ms")),
        ("revealed.reveal", ("calls", "self_ms")),
        ("revealed.kappa", ("calls", "self_ms")),
        ("inverse.certify", ("calls", "self_ms")),
        ("inverse.recover_utility", ("calls", "self_ms")),
        ("inverse.rationalize", ("calls", "self_ms")),
        ("inverse.unique_check", ("calls", "self_ms")),
        ("inverse.find_equivalent", ("calls", "self_ms")),
        ("menus.predict_submenus", ("calls", "self_ms")),
        ("model.require_valid", ("calls", "self_ms"))):
    for _key in _keys:
        SPAN_METRICS[f"{_span}.{_key}"] = (
            _span, _key, "ms" if _key.endswith("ms") else "count")

#: per-invocation medians from the traced CLI children
CLI_METRICS = {
    "cli.interpreter_ms": "interpreter_ms",
    "cli.import_ms": "import_ms",
    "jsonio.parse_problem.ms": "jsonio.parse_problem",
    "cli.command_ms": "cli.command",
    "jsonio.canonical_dumps.ms": "jsonio.canonical_dumps",
}

PER_LAYER_UNITS = {
    **{name: unit for name, (_, _, unit) in SPAN_METRICS.items()},
    "inverse.certify.optimal_ratio": "1",
    "menus.submenus_solved": "count",
    **{name: "ms" for name in CLI_METRICS},
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "1",
    "trace.spans": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "infochoice", "__init__.py")):
        sys.stderr.write(f"benchmark: no package source at {SRC}/infochoice; "
                         "run from the root of a source checkout\n")
        raise SystemExit(2)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


def execute(op, classify) -> tuple[float, object, str | None]:
    """Run one op; returns its latency, output and failure kind (if any),
    as ``classify(exception)`` names it."""
    t = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, err = None, classify(exc)
    return time.perf_counter() - t, out, err


def judge(records, expected) -> dict:
    """Apply each op's output check. Returns per-record pass flags and the
    counts that decide ``correct``: wrong outputs and failures of a kind
    not in ``expected``."""
    passed, wrong, unexpected = [], 0, 0
    errors: dict[str, int] = {}
    for op, _, out, err in records:
        if err is not None:
            errors[err] = errors.get(err, 0) + 1
            unexpected += err not in expected
            passed.append(False)
            continue
        try:
            ok = bool(op.check(out))
        except Exception:  # a check that cannot read the output rejects it
            ok = False
        wrong += not ok
        passed.append(ok)
    return {"passed": passed, "wrong": wrong, "unexpected": unexpected,
            "errors": errors}


def latency_stats(records, passed) -> dict:
    """Median and tail latency, failed ops counting as +inf. The tail is
    the highest percentile with at least TAIL_BEYOND samples beyond it, and
    never below the median (short runs)."""
    lat = sorted(dt if ok else float("inf")
                 for (_, dt, _, _), ok in zip(records, passed))
    n = len(lat)
    rank = max(n - 1 - TAIL_BEYOND, n // 2)
    return {
        "n": n,
        "p50": statistics.median(lat),
        "tail": lat[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
    }


def finite_ms(value: float, wall: float) -> tuple[float, bool]:
    """A latency in ms; +inf (a failed op) is charged the run's wall time
    and flagged as censored."""
    if value == float("inf"):
        return wall * 1e3, True
    return value * 1e3, False


def setup_children(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb(workload: str, records) -> float:
    if workload == "cli":
        kib = max((out["rss_kb"] for _, _, out, _ in records if out is not None),
                  default=0)
    else:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(verdict: dict, metrics: dict) -> dict:
    n = len(verdict["passed"])
    return {
        "correct": verdict["wrong"] == 0 and verdict["unexpected"] == 0,
        "attempted": n,
        "failed": n - sum(verdict["passed"]),
        "metrics": metrics,
    }


def run_stream(bench, classify, seconds: float):
    """Prologue ops once, then pool ops in order until ``seconds`` have
    passed. Returns all records, the number of prologue records, the
    prologue's wall time and the stream's wall time."""
    start = time.perf_counter()
    records = [(op, *execute(op, classify)) for op in bench.prologue]
    stream_start = time.perf_counter()
    i = 0
    while time.perf_counter() - stream_start < seconds:
        op = bench.ops[i % len(bench.ops)]
        records.append((op, *execute(op, classify)))
        i += 1
    end = time.perf_counter()
    return records, len(bench.prologue), stream_start - start, end - stream_start


def run_fixed(ops, classify):
    start = time.perf_counter()
    records = [(op, *execute(op, classify)) for op in ops]
    return records, time.perf_counter() - start


def layer_metrics(summary: dict, cli_records: list[dict]) -> dict:
    values = {}
    for name, (span, key, _) in SPAN_METRICS.items():
        values[name] = summary.get(span, {}).get(key, 0)
    certify = summary.get("inverse.certify", {})
    values["inverse.certify.optimal_ratio"] = (
        certify.get("optimal", 0) / certify["calls"] if certify.get("calls") else 0.0)
    values["menus.submenus_solved"] = summary.get(
        "menus.predict_submenus", {}).get("submenus_solved", 0)
    for name, key in CLI_METRICS.items():
        samples = []
        for rec in cli_records:
            if key in rec:
                samples.append(rec[key])
            elif key in rec["summary"]:
                samples.append(rec["summary"][key]["ms"])
        values[name] = statistics.median(samples) if samples else 0.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore", RuntimeWarning)

    import infochoice
    import spans
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    runner = workloads.CliRunner(ROOT, SRC)
    try:
        bench = workloads.BUILDERS[args.workload](args.seed, workdir, runner)
        execute(bench.warmup, workloads.failure_kind)
        # the pre-built inputs stay alive for the whole run; keep the cyclic
        # collector from walking them, which otherwise adds pauses of up to
        # 150 ms to random ops
        gc.freeze()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            result, detail = traced_run(args, bench, runner, infochoice,
                                        workloads, spans)
        else:
            result, detail = timed_run(args, bench, workloads)
            setups = [setup_s] + setup_children(args)
            result["metrics"]["setup_s"] = metric(statistics.median(setups), "s")
            detail["setup_samples_s"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["environment"] = environment(args.seed)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


def timed_run(args, bench, workloads):
    records, n_pro, prologue_s, stream_s = run_stream(
        bench, workloads.failure_kind, args.seconds)
    wall = prologue_s + stream_s
    rss = peak_rss_mb(args.workload, records)
    verdict = judge(records, workloads.EXPECTED_FAILURES)
    passed = verdict["passed"]
    n_ok = sum(passed)
    stats = latency_stats(records, passed)
    p50, p50_censored = finite_ms(stats["p50"], wall)
    tail, tail_censored = finite_ms(stats["tail"], wall)
    metrics = {
        "ops_per_s": metric(sum(passed[n_pro:]) / stream_s, "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "ok_frac": metric(n_ok / len(records), "1"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    cells: dict[str, dict] = {}
    for (op, dt, _, _), ok in zip(records, passed):
        entry = cells.setdefault(op.cell, {"attempted": 0, "failed": 0, "ms": []})
        entry["attempted"] += 1
        entry["failed"] += not ok
        entry["ms"].append(dt * 1e3)
    for entry in cells.values():
        ms = entry.pop("ms")
        entry["median_ms"] = statistics.median(ms)
        entry["total_ms"] = sum(ms)
    detail = {
        "workload": args.workload,
        "mode": "timed",
        "wall_s": wall,
        "stream_s": stream_s,
        "prologue_s": prologue_s,
        "prologue_share": prologue_s / wall,
        "samples": stats["n"],
        "tail_percentile": stats["tail_percentile"],
        "censored": {"op_p50_ms": p50_censored, "op_tail_ms": tail_censored},
        "fail_frac": 1.0 - n_ok / len(records),
        "errors": verdict["errors"],
        "wrong_outputs": verdict["wrong"],
        "cells": cells,
    }
    return result_line(verdict, metrics), detail


def traced_run(args, bench, runner, infochoice, workloads, spans):
    ops = bench.trace
    classify = workloads.failure_kind
    plain, plain_wall = run_fixed(ops, classify)
    tracer = spans.Tracer()
    if args.workload == "cli":
        runner.traced = True
    else:
        tracer.install(infochoice)
    try:
        pro, _ = run_fixed(bench.prologue, classify)
        traced, traced_wall = run_fixed(ops, classify)
    finally:
        tracer.uninstall()
    records = pro + traced
    verdict = judge(records, workloads.EXPECTED_FAILURES)
    summary = tracer.summary()
    cli_records = []
    for _, _, out, _ in records:
        if out is not None and isinstance(out, dict) and "trace" in out:
            cli_records.append(out["trace"])
            spans.merge(summary, out["trace"]["summary"])
    values = layer_metrics(summary, cli_records)
    n_plain = sum(judge(plain, workloads.EXPECTED_FAILURES)["passed"])
    n_traced = sum(verdict["passed"][len(pro):])
    values["trace.ops_per_s"] = n_traced / traced_wall
    values["trace.untraced_ops_per_s"] = n_plain / plain_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["trace.spans"] = tracer.span_count() + sum(
        v["calls"] for rec in cli_records for v in rec["summary"].values())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    with open(os.path.join(out_dir, f"layers-{args.workload}.json"), "w") as fh:
        json.dump({"summary": summary, "cli_children": cli_records}, fh,
                  sort_keys=True)
    metrics = {name: metric(values[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    detail = {
        "workload": args.workload,
        "mode": "traced",
        "ops": len(records),
        "prologue_ops": len(pro),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "errors": verdict["errors"],
        "wrong_outputs": verdict["wrong"],
    }
    return result_line(verdict, metrics), detail


if __name__ == "__main__":
    raise SystemExit(main())
