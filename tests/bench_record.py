"""Record one point of the benchmark's trajectory as a JSON file.

    python3 tests/bench_record.py --seed 1 --out BENCH_15.json

Runs `optbench/run.py --trace 0` once for each workload `BENCHMARK.json`
declares, for its `run_seconds`, on one seed, and `tests/plan_digest.py
--seeds 3`, each in a subprocess, from the root of this checkout.  The file
holds each workload's end-to-end metrics with `correct`, `attempted` and
`failed` (the last line of run.py's output), the digest lines, and the
machine they were measured on.  Not a test module: pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_SEEDS = ("3",)


def run(*argv: str) -> list[str]:
    """The lines a script of this checkout prints."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(declared["run_seconds"])
    workloads = {}
    for workload in (w["name"] for w in declared["workloads"]):
        last = run("optbench/run.py", "--workload", workload, "--seed", str(args.seed),
                   "--seconds", seconds, "--trace", "0")[-1]
        workloads[workload] = json.loads(last)
    doc = {"seed": args.seed, "run_seconds": declared["run_seconds"], "trace": 0,
           "machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
           "workloads": workloads,
           "plan_digest": {"seeds": [int(s) for s in DIGEST_SEEDS],
                           "lines": run("tests/plan_digest.py", "--seeds", *DIGEST_SEEDS)}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
