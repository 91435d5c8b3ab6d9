"""One digest of the optimizer's output over optbench's operation streams.

For every operation of the `select_heavy` and `join_heavy` streams of each
seed, in stream order, the digest covers the winning plan's
`costplan.plan_key`, the exact bits of its cost (`float.hex` of
`cum_cost`) and the final dag (`memo.dag_to_doc`).  An operation that
raises contributes its error text instead.  Two checkouts that print the
same digest chose the same plans at the same costs over the same dags.
A second digest covers the plan keys (or error texts) alone: a change that
should move final dags, or costs by rounding, but no plan keeps it.  The
`naive_baseline` stream (exhaustive mode, whose final dag is the whole
memo) is digested the same way but apart, so the two joindag digests stay
comparable with checkouts that did not digest it.

A last digest covers history ids: the document (`memo.dag_to_doc`, ids
included) of each `join_heavy` operation's cold history, the one
`joindag.build_complete_history` builds over its join set.  Plans and
final dags do not show a history renumbered; this line does.

The last digest covers growth: the saved document
(`joindag._history_doc`) and the dag document (`memo.dag_to_doc`, ids
included) of the history after each flat `select_heavy` operation, when
those operations grow one history per schema from empty, in stream order,
through `sprinkle.optimize_single`.  The streams' warm histories are
built whole, so no other line shows a change to how a history grows.

`select_heavy` and `naive_baseline` are each digested in two parts: their
flat operations (no block with GROUP BY or ORDER BY) and their grouped or
ordered ones, so a change that moves only grouped or ordered plans shows
that its flat ones stayed.

Run it from the root of a source checkout; it imports the optimizer from
`src/` and optbench's `bench` and `workloads` modules, read-only:

    python3 tests/plan_digest.py --seeds 3 7 11

It prints one line per seed and part (the operation count, that part's
digest and its plan-key digest), then the combined plan-key digest and the
combined digest of the joindag streams (`plan keys:` and `all:`), then
those of the naive streams (`naive plan keys:` and `naive:`), then the
history-id digest of every seed (`history ids:`), and last the digest of
the grown histories of every seed (`grown history:`).  Compare these lines
between two checkouts.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "optbench")]

import bench  # noqa: E402  (needs the paths above)
from sprinkleqo import costplan, joindag, memo, sprinkle, sqlfront  # noqa: E402

WORKLOADS = ("select_heavy", "join_heavy")
NAIVE = "naive_baseline"


def part_of(workload: str, query) -> str:
    """The digest part an operation belongs to: `select_heavy` and
    `naive_baseline` split into their flat and their grouped or ordered
    operations."""
    if workload not in ("select_heavy", NAIVE):
        return workload
    blocks = [query] + ([query.subquery.query] if query.subquery is not None else [])
    return workload + (" grouped" if any(b.group_by or b.order_by for b in blocks)
                       else " flat")


def stream_digests(seed: int, workload: str,
                   work_dir: pathlib.Path) -> dict[str, tuple[int, str, str]]:
    """Part name -> (operations, sha256, plan-key sha256) of one seed's
    stream of one workload, parts in name order."""
    env = bench.setup(seed, work_dir, workload)
    parts: dict[str, tuple[list[int], hashlib._Hash, hashlib._Hash]] = {}
    for item in env.inputs.streams[workload]:
        query = sqlfront.parse_query(item.sql, env.catalogs[item.schema])
        count, h, keys = parts.setdefault(part_of(workload, query),
                                          ([0], hashlib.sha256(), hashlib.sha256()))
        try:
            _, plan, dag = bench.operate(env, item)
            key = costplan.plan_key(plan)
            line = "\t".join((key, plan.cum_cost.hex(),
                              json.dumps(memo.dag_to_doc(dag), sort_keys=True)))
        except Exception as exc:  # an error is part of the output being compared
            key = line = f"{type(exc).__name__}: {exc}"
        count[0] += 1
        h.update(f"{item.qid}\t{item.mode}\t{line}\n".encode("utf-8"))
        keys.update(f"{item.qid}\t{item.mode}\t{key}\n".encode("utf-8"))
    return {name: (count[0], h.hexdigest(), keys.hexdigest())
            for name, (count, h, keys) in sorted(parts.items())}


def history_ids(seed: int, work_dir: pathlib.Path, h) -> None:
    """Add to `h` the document, ids included, of the cold history of each
    operation of one seed's `join_heavy` stream, in stream order (or the
    error it raised)."""
    env = bench.setup(seed, work_dir, "join_heavy")
    for item in env.inputs.streams["join_heavy"]:
        catalog = env.catalogs[item.schema]
        try:
            joins = sqlfront.extract_join_set(sqlfront.parse_query(item.sql, catalog))
            history = joindag.build_complete_history(catalog, joins, bench.JOINDAG_LIMIT)
            line = json.dumps(memo.dag_to_doc(history.dag), sort_keys=True)
        except Exception as exc:  # an error is part of the output being compared
            line = f"{type(exc).__name__}: {exc}"
        h.update(f"{seed}\t{item.qid}\t{line}\n".encode("utf-8"))


def grown_histories(seed: int, work_dir: pathlib.Path, h) -> None:
    """Add to `h` both documents of the history each flat operation of one
    seed's `select_heavy` stream leaves, in stream order (or the error it
    raised), each schema's history grown from empty by its operations."""
    env = bench.setup(seed, work_dir, "select_heavy")
    grown = {}
    for item in env.inputs.streams["select_heavy"]:
        catalog = env.catalogs[item.schema]
        query = sqlfront.parse_query(item.sql, catalog)
        if part_of("select_heavy", query) != "select_heavy flat":
            continue
        try:
            history = grown[item.schema] = sprinkle.optimize_single(
                query, catalog, history=grown.get(item.schema), limit=bench.JOINDAG_LIMIT).history
            line = json.dumps([joindag._history_doc(history), memo.dag_to_doc(history.dag)],
                              sort_keys=True)
        except Exception as exc:  # an error is part of the output being compared
            line = f"{type(exc).__name__}: {exc}"
        h.update(f"{seed}\t{item.qid}\t{line}\n".encode("utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    # the combined (digest, plan-key digest) of the joindag streams and of the naive ones
    joindag = hashlib.sha256(), hashlib.sha256()
    naive = hashlib.sha256(), hashlib.sha256()
    histories, grown = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS + (NAIVE,):
                work_dir = pathlib.Path(tmp) / f"{workload}-{seed}"
                total, total_keys = naive if workload == NAIVE else joindag
                for part, (count, digest, keys) in stream_digests(seed, workload,
                                                                   work_dir).items():
                    print(f"seed {seed} {part}: {count} operations {digest} plan keys {keys}")
                    total.update(f"{seed}\t{part}\t{digest}\n".encode("utf-8"))
                    total_keys.update(f"{seed}\t{part}\t{keys}\n".encode("utf-8"))
            history_ids(seed, pathlib.Path(tmp) / f"histories-{seed}", histories)
            grown_histories(seed, pathlib.Path(tmp) / f"grown-{seed}", grown)
    print(f"plan keys: {joindag[1].hexdigest()}")
    print(f"all: {joindag[0].hexdigest()}")
    print(f"naive plan keys: {naive[1].hexdigest()}")
    print(f"naive: {naive[0].hexdigest()}")
    print(f"history ids: {histories.hexdigest()}")
    print(f"grown history: {grown.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
