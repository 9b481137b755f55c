"""Record one untraced and one traced run of every workload at one seed.

    python3 perfbench/record.py --seed 1 [--seconds 45]

Run from the root of a source checkout. Writes
``perfbench/results/seed-<seed>.json``: for each workload and mode, the
detail and result lines as ``run.py`` printed them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args()
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
            detail, result = out.stdout.decode().splitlines()[-2:]
            runs[f"{workload}/{'traced' if trace else 'timed'}"] = {
                "detail": json.loads(detail)["detail"],
                "result": json.loads(result),
            }
            print(workload, "traced" if trace else "timed", "done", flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"seed-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "runs": runs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
