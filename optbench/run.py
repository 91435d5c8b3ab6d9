"""Optimizer benchmark: one workload, one seed, one run.

    python3 optbench/run.py --workload select_heavy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the optimizer is imported from its
`src/`.  With --trace 0 the run measures the end-to-end metrics; with
--trace 1 it traces one set-up, then measures one untraced and one traced
pass and reports the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Per-operation records, the CLI samples and (traced) the spans go
to `.optbench_out/<workload>-seed<n>-trace<t>/` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import pathlib
import statistics
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("select_heavy", "join_heavy", "naive_baseline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def failure_notes(bench, verdicts: dict[str, int], attempted: int, rows) -> list[str]:
    """failed_frac, split by verdict, and one line per failing stream item."""
    wrong, above = verdicts[bench.WRONG], verdicts[bench.ABOVE_BASELINE]
    notes = [f"failed_frac {(wrong + above) / attempted:.6g} fraction ({wrong + above} of "
             f"{attempted}: {wrong} wrong, {above} above the baseline)"]
    label = {bench.WRONG: "WRONG", bench.ABOVE_BASELINE: "ABOVE BASELINE"}
    notes += [f"{label[r['verdict']]} {r['query']}: cost {r['best_cost']!r} reference "
              f"{r['reference_cost']!r} {r['error'] or ''}"
              for r in rows if r["verdict"] != bench.OK]
    return notes


def untraced(bench, workload: str, seed: int, seconds: float, work_dir: pathlib.Path):
    setup_s, setup_wall = [], []

    def timed_setup():
        env, wall, scaled = bench.timed(lambda: bench.setup(seed, work_dir, workload))
        setup_s.append(scaled)
        setup_wall.append(wall)
        return env

    # The first set-up is the one the passes use.  Its objects are moved out
    # of the collector's reach, so the collection before each operation scans
    # only what the run allocates afterwards.  The other set-ups, and the CLI
    # runs, are spread over the passes (see bench.timed_passes).
    env = timed_setup()
    gc.collect()
    gc.freeze()
    cli_mode = bench.STREAM_MODE[workload]
    cli = bench.CliTimer(env, workload, ROOT, work_dir,
                         {item.qid: bench.operate(env, item, cli_mode)[1].cum_cost
                          for item in bench.cli_fixtures(workload)})
    cli_jobs = [functools.partial(cli.run, item) for _ in range(bench.CLI_ROUNDS[workload])
                for item in bench.cli_fixtures(workload)]
    extra, jobs = bench.SETUP_REPEATS - 1, []
    for k, job in enumerate(cli_jobs):  # the other set-ups go evenly among the CLI runs
        jobs.append(job)
        if (k + 1) * extra // len(cli_jobs) > k * extra // len(cli_jobs):
            jobs.append(timed_setup)
    passes = bench.pass_count(workload, seconds)
    run = bench.timed_passes(env, workload, passes, jobs)
    rss = bench.peak_rss_mb()  # before the untimed reference work below
    latency = bench.latency_metrics(run)
    refs, verdicts = bench.check(env, run)
    stream = env.inputs.streams[workload]

    attempted = sum(len(p.times) for p in run.passes)
    metrics = {
        "queries_per_s": (latency["queries_per_s"], "1/s"),
        "latency_p50_ms": (latency["latency_p50_ms"], "ms"),
        "latency_tail_ms": (latency["latency_tail_ms"], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "cli_optimize_ms": (statistics.median(cli.times), "ms"),
    }
    rows = bench.records(env, run, refs)
    digest = bench.plan_digest(stream, run.passes[0].outcomes)
    notes = [f"latency_tail_ms is p{latency['latency_tail_percentile']:g} of "
             f"{latency['samples']} samples over {latency['passes']} passes, "
             f"{latency['latency_tail_beyond']} beyond it",
             f"times are at reference speed (probe {bench.SPEED_PROBE_S * 1000:g} ms); "
             f"wall queries_per_s {latency['wall_queries_per_s']:.6g}, latency_p50_ms "
             f"{latency['wall_latency_p50_ms']:.6g}",
             f"setup_s samples {[round(x, 4) for x in setup_s]}, wall "
             f"{[round(x, 4) for x in setup_wall]}",
             f"cli_optimize_ms: median of {len(cli.times)} runs, {bench.CLI_ROUNDS[workload]} on each "
             f"of {len(set(cli.fixtures))} fixtures; wall median "
             f"{statistics.median(cli.wall):.6g} ms",
             f"plan digest {digest}"]
    notes += failure_notes(bench, verdicts, attempted, rows)
    notes += [f"CLI PROBLEM {p}" for p in cli.problems]
    details = {"latency": latency, "setup_s": setup_s, "setup_wall_s": setup_wall,
               "cli": {"fixtures": cli.fixtures, "ms": cli.times, "wall_ms": cli.wall,
                       "problems": cli.problems},
               "plan_digest": digest, "records": rows}
    failed = verdicts[bench.WRONG] + verdicts[bench.ABOVE_BASELINE]
    correct = verdicts[bench.WRONG] == 0 and not cli.problems
    return correct, attempted, failed, metrics, notes, details


def traced_window(bench, fn):
    """Call fn(tracer) with a fresh tracer installed; returns (tracer, result)."""
    tracer = bench.Tracer()
    tracer.install(bench.HOOKS)
    try:
        return tracer, fn(tracer)
    finally:
        tracer.uninstall()


def traced(bench, workload: str, seed: int, work_dir: pathlib.Path):
    origin = time.perf_counter()
    setup_tracer, env = traced_window(bench, lambda _: bench.setup(seed, work_dir, workload))
    stream = env.inputs.streams[workload]
    everything = range(len(stream))
    plain = bench.run_pass(env, stream, everything, detail=True)
    pass_tracer, under_trace = traced_window(
        bench, lambda tracer: bench.run_pass(env, stream, everything, detail=True,
                                             tracer=tracer))
    setup_tracer.write_spans(str(work_dir / "spans-setup.tsv"), origin)
    pass_tracer.write_spans(str(work_dir / "spans-pass.tsv"), origin)
    overhead = under_trace.busy / plain.busy - 1.0
    metrics = bench.layer_metrics(setup_tracer, pass_tracer, overhead)
    run = bench.RunResult(workload, [plain, under_trace])
    refs, verdicts = bench.check(env, run)
    rows = bench.records(env, run, refs)
    attempted = 2 * len(stream)
    probe = bench.ratio_probe(env, seed) if workload == "select_heavy" else []
    notes = [f"traced windows: the set-up, and one pass of {len(stream)} operations",
             f"spans kept {len(setup_tracer.span_name) + len(pass_tracer.span_name)}, "
             f"dropped past the cap {setup_tracer.dropped + pass_tracer.dropped}"]
    notes += failure_notes(bench, verdicts, attempted, rows)
    notes += [f"ratio {r['query']}: joindag {r['joindag_ms']:.2f} ms / naive "
              f"{r['naive_ms']:.2f} ms = {r['joindag_over_naive']:.2f}" for r in probe]
    window = lambda t: {  # noqa: E731
        "self_ms": {k: v * 1000.0 for k, v in sorted(t.self_s.items())},
        "calls": dict(sorted(t.calls.items())), "counts": dict(sorted(t.counts.items()))}
    details = {"ratio_probe": probe, "setup_window": window(setup_tracer),
               "pass_window": window(pass_tracer), "records": rows}
    failed = verdicts[bench.WRONG] + verdicts[bench.ABOVE_BASELINE]
    return verdicts[bench.WRONG] == 0, attempted, failed, metrics, notes, details


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sprinkleqo" / "__init__.py").is_file():
        print(f"optbench: no optimizer sources at {src}/sprinkleqo; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    work_dir = ROOT / ".optbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced(bench, args.workload, args.seed, work_dir)
    else:
        result = untraced(bench, args.workload, args.seed, args.seconds, work_dir)
    correct, attempted, failed, metrics, notes, details = result

    print(f"workload {args.workload}: {bench.workloads.WHY[args.workload]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           **details}
    (work_dir / "results.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
