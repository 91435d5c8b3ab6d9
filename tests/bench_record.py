"""Record one point of the benchmark's trajectory as a JSON file.

    python3 tests/bench_record.py --seed 1 --out BENCH_16.json

Runs `optbench/run.py --trace 0` once for each workload `BENCHMARK.json`
declares, for its `run_seconds`, on one seed, and `tests/plan_digest.py
--seeds 3`, each in a subprocess, from the root of this checkout.  It then
times, in-process, each single-block `select_heavy` operation of seeds 3
and 7 in warm joindag mode and in naive mode (best of 7 each, optbench's
set-up and `optimize` imported read-only) and takes the median warm/naive
ratio per class: flat or grouped/ordered, crossed with s <= 2 or s >= 3
selects, beside the class's median warm and naive times in ms, so that a
ratio moved by the naive side shows apart from one moved by the warm
side.  A ratio below 1 means the warm history pays.  The file holds
each workload's end-to-end metrics with `correct`, `attempted` and
`failed` (the last line of run.py's output), the digest lines, the ratio
lines, and the machine they were measured on; the ratio lines are printed
too.  The machine block also says whether bytecode writing was off
(`sys.dont_write_bytecode`, as `PYTHONDONTWRITEBYTECODE=1` sets it, which
the runs inherit): then every CLI run compiles `src/` again, which
`cli_optimize_ms` and `peak_rss_mb` include, so files recorded under the
two settings are not comparable.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_SEEDS = ("3",)
RATIO_SEEDS = (3, 7)
RATIO_REPEATS = 7


def run(*argv: str) -> list[str]:
    """The lines a script of this checkout prints."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def warm_naive_ratios(seeds=RATIO_SEEDS, repeats=RATIO_REPEATS) -> dict[str, dict]:
    """Class name -> its operations, median warm/naive time ratio and
    median warm and naive times in ms, over the single-block `select_heavy`
    operations of `seeds`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "optbench")]
    import bench   # noqa: E402  (needs the paths above)
    from sprinkleqo import sqlfront   # noqa: E402

    found: dict[str, list[list[float]]] = {}   # class -> each operation's warm and naive s
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            env = bench.setup(seed, pathlib.Path(tmp), "select_heavy")
            for item in env.inputs.streams["select_heavy"]:
                query = sqlfront.parse_query(item.sql, env.catalogs[item.schema])
                if query.subquery is not None:
                    continue
                times = [best_time(lambda: bench.optimize(env, item.schema, query, mode), repeats)
                         for mode in ("warm", "naive")]
                shape = "grouped/ordered" if query.group_by or query.order_by else "flat"
                size = "s<=2" if len(query.selects) <= 2 else "s>=3"
                found.setdefault(f"{shape} {size}", []).append(times)
    return {name: {"operations": len(times),
                   "median": statistics.median(warm / naive for warm, naive in times),
                   "warm_ms": 1e3 * statistics.median(warm for warm, _ in times),
                   "naive_ms": 1e3 * statistics.median(naive for _, naive in times)}
            for name, times in sorted(found.items())}


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
    ratios = warm_naive_ratios()
    lines = [f"warm/naive {name}: median {r['median']:.3f} (warm {r['warm_ms']:.3f} ms, "
             f"naive {r['naive_ms']:.3f} ms) over {r['operations']} operations"
             for name, r in ratios.items()]
    print("\n".join(lines))
    doc = {"seed": args.seed, "run_seconds": declared["run_seconds"], "trace": 0,
           "machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version(),
                       "dont_write_bytecode": sys.dont_write_bytecode},
           "workloads": workloads,
           "plan_digest": {"seeds": [int(s) for s in DIGEST_SEEDS],
                           "lines": run("tests/plan_digest.py", "--seeds", *DIGEST_SEEDS)},
           "warm_naive_ratio": {"seeds": list(RATIO_SEEDS), "repeats": RATIO_REPEATS,
                                "classes": ratios, "lines": lines}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
