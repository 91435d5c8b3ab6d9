"""Command-line surface: optimize queries, benchmark workload directories,
and manage persisted join-order histories.

Exit codes: 0 success, 1 usage, 2 parse/validation/io, 3 enumeration limit,
4 internal error (a defect: `ERR:internal: <type>: <message>`).  Every
failure prints one `ERR:<code>:` line on standard error.  The environment
variable SPRINKLE_QO_LOG (error, info, debug) controls extra diagnostics;
`debug` adds an internal error's traceback.  Artifacts are always written
atomically.

A run imports only the layers its command uses, so that start-up does not
load (and, without bytecode, compile) code it never calls: `naive` for
`optimize --mode naive`, `sprinkle` (and with it `joindag`) for joindag
mode, `joindag` for `--history` and the `histdag` commands, and `analytics`
for `--report` and `bench`.  `logging` is imported and configured only when
SPRINKLE_QO_LOG is info or debug, read afresh on each `main` call; at the
default level nothing is logged.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import TYPE_CHECKING

from . import costplan, memo
from .catalog import Catalog, load_catalog_file
from .errors import DEFAULT_MAX_OPS, SprinkleQoError, ValidationError
from .ioutil import atomic_write_text, locked, read_text
from .sqlfront import Query, extract_join_set, parse_query

if TYPE_CHECKING:
    import logging

    from .joindag import HistoryDag

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4

# SprinkleQoError.code -> process exit status
_CODE_EXITS = {"parse": 2, "validation": 2, "io": 2, "limit": 3, "error": 2}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        raise _UsageError(message)


def _logger() -> logging.Logger | None:
    """The package logger, with logging configured to standard error, when
    SPRINKLE_QO_LOG asks for info or debug; None at the default level (error,
    or a value it does not name), which logs nothing."""
    wanted = os.environ.get("SPRINKLE_QO_LOG", "error").lower()
    if wanted not in ("info", "debug"):
        return None
    import logging
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s",
                        level=logging.INFO if wanted == "info" else logging.DEBUG)
    return logging.getLogger("sprinkleqo")


def _add_schema(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", required=True, help="schema JSON file")
    sub.add_argument("--stats", help="optional selectivity-stats JSON file")


def _add_limit(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-ops", type=int, default=DEFAULT_MAX_OPS,
                     help="enumeration guard (default %(default)s)")
    sub.add_argument("--i-know-this-is-factorial", action="store_true",
                     help=f"acknowledge raising --max-ops beyond {DEFAULT_MAX_OPS}")


def build_parser() -> _Parser:
    parser = _Parser(prog="sprinkle-qo",
                     description="Join-order dag optimizer with operator "
                                 "sprinkling and an exhaustive baseline")
    commands = parser.add_subparsers(dest="command", required=True)

    p_opt = commands.add_parser("optimize", help="optimize one SQL query")
    _add_schema(p_opt)
    _add_limit(p_opt)
    p_opt.add_argument("--query", required=True, help="SQL file")
    p_opt.add_argument("--mode", choices=("naive", "joindag"), default="joindag")
    p_opt.add_argument("--history", help="existing join-order history (read only)")
    p_opt.add_argument("--out", help="write the best plan as JSON")
    p_opt.add_argument("--dot", help="write the final dag as Graphviz DOT")
    p_opt.add_argument("--report", help="write a one-row metrics CSV")
    p_opt.add_argument("--count-internal-only", action="store_true",
                       help="exclude base relations from node counts")
    p_opt.set_defaults(func=cmd_optimize)

    p_bench = commands.add_parser("bench", help="run every .sql file in a "
                                                "directory under each mode")
    _add_schema(p_bench)
    _add_limit(p_bench)
    p_bench.add_argument("--queries", required=True, help="directory of .sql files")
    p_bench.add_argument("--modes", default="naive,joindag",
                         help="comma-separated subset of naive,joindag")
    p_bench.add_argument("--report", required=True, help="output CSV path")
    p_bench.add_argument("--count-internal-only", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_hist = commands.add_parser("histdag", help="manage persisted join-order "
                                                 "histories")
    hist_commands = p_hist.add_subparsers(dest="hist_command", required=True)

    p_build = hist_commands.add_parser("build", help="enumerate all schema "
                                                     "FK joins into a history")
    _add_schema(p_build)
    _add_limit(p_build)
    p_build.add_argument("--out", required=True, help="history JSON path")
    p_build.set_defaults(func=cmd_histdag_build)

    p_add = hist_commands.add_parser("add", help="fold one query's joins into "
                                                 "an existing history")
    _add_schema(p_add)
    _add_limit(p_add)
    p_add.add_argument("--history", required=True)
    p_add.add_argument("--query", required=True, help="SQL file")
    p_add.set_defaults(func=cmd_histdag_add)

    p_show = hist_commands.add_parser("show", help="print history version, "
                                                   "joins, and node counts")
    _add_schema(p_show)
    p_show.add_argument("--history", required=True)
    p_show.set_defaults(func=cmd_histdag_show)

    p_dot = hist_commands.add_parser("export-dot", help="write the history "
                                                        "dag as Graphviz DOT")
    p_dot.add_argument("--history", required=True)
    p_dot.add_argument("--dot", required=True)
    p_dot.set_defaults(func=cmd_histdag_export_dot)

    return parser


def _effective_limit(args) -> int:
    if args.max_ops < 1:
        raise _UsageError("--max-ops must be at least 1")
    if args.max_ops > DEFAULT_MAX_OPS and not args.i_know_this_is_factorial:
        raise _UsageError(
            f"--max-ops {args.max_ops} exceeds {DEFAULT_MAX_OPS}; pass "
            "--i-know-this-is-factorial to acknowledge the blow-up")
    return args.max_ops


def _run_one(query: Query, catalog: Catalog, mode: str, limit: int,
             history: HistoryDag | None, query_id: str):
    """Returns (dag, plan, considered, join dag or None in naive mode,
    grown_history, elapsed_ms)."""
    start = time.perf_counter()
    if mode == "naive":
        from . import naive
        dag = naive.build_naive_dag(query, catalog, limit, query_id=query_id)
        plan = costplan.best_plan(dag, dag.query_roots[query_id])
        elapsed = (time.perf_counter() - start) * 1000.0
        return dag, plan, naive.permutations_considered(query), None, history, elapsed
    from . import sprinkle
    result = sprinkle.optimize_single(query, catalog, history=history,
                                      limit=limit, query_id=query_id)
    elapsed = (time.perf_counter() - start) * 1000.0
    return (result.dag, result.plan, result.combinations_considered, result.jd,
            result.history, elapsed)


def _params(query: Query, catalog: Catalog, mode: str, limit: int, jd: memo.Dag | None):
    """A report row's complexity parameters: in joindag mode from the run's
    join dag `jd` (none for a query with a subquery), in naive mode from a
    join dag built for them alone."""
    from . import analytics
    if mode == "naive":
        return analytics.complexity_params_for(query, catalog, limit)
    if query.subquery is not None:
        return None
    return analytics.complexity_params(query, *memo.count_nodes(jd)[::2])


def _considered_key(mode: str) -> str:
    return "permutations_considered" if mode == "naive" else "join_combinations_considered"


def _plan_doc(query_id: str, mode: str, plan, dag, considered: int,
              internal_only: bool) -> dict:
    eq, op, plans = memo.count_nodes(dag, internal_only=internal_only)
    return {
        "query_id": query_id,
        "mode": mode,
        "best_cost": plan.cum_cost,
        _considered_key(mode): considered,
        "eq_nodes": eq,
        "op_nodes": op,
        "plans": plans,
        "plan": plan.to_doc(),
    }


def cmd_optimize(args) -> int:
    limit = _effective_limit(args)
    catalog = load_catalog_file(args.schema, args.stats)
    query = parse_query(read_text(args.query), catalog)
    history = None
    if args.mode == "joindag" and args.history:
        history = _load_history(args.history, catalog)
    dag, plan, considered, jd, _, elapsed = _run_one(
        query, catalog, args.mode, limit, history, "q1")
    params = _params(query, catalog, args.mode, limit, jd) if args.report else None
    doc = _plan_doc("q1", args.mode, plan, dag, considered,
                    args.count_internal_only)
    if args.log:
        args.log.info("optimized %s in %.3f ms", args.query, elapsed)
    if args.out:
        atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.dot:
        atomic_write_text(args.dot, memo.export_dot(dag))
    if args.report:
        from . import analytics
        row = analytics.measured_row("q1", args.mode, dag, elapsed,
                                     plan.cum_cost, params,
                                     internal_only=args.count_internal_only)
        report = analytics.collect_metrics([row])
        atomic_write_text(args.report, analytics.report_to_csv(report))
    print(f"mode={args.mode} best_cost={plan.cum_cost:.6g} "
          f"eq_nodes={doc['eq_nodes']} op_nodes={doc['op_nodes']} "
          f"plans={doc['plans']} {_considered_key(args.mode)}={considered}")
    return EXIT_OK


def _bench_modes(text: str) -> list[str]:
    modes = [m.strip() for m in text.split(",") if m.strip()]
    if not modes or any(m not in ("naive", "joindag") for m in modes):
        raise _UsageError(f"--modes must name naive and/or joindag, got {text!r}")
    return modes


def cmd_bench(args) -> int:
    from . import analytics
    limit = _effective_limit(args)
    modes = _bench_modes(args.modes)
    catalog = load_catalog_file(args.schema, args.stats)
    qdir = pathlib.Path(args.queries)
    if not qdir.is_dir():
        raise ValidationError(f"--queries {args.queries!r} is not a directory")
    rows = []
    history: HistoryDag | None = None
    for sql_path in sorted(qdir.glob("*.sql"), key=lambda p: p.name):
        query_id = sql_path.stem
        try:
            query = parse_query(read_text(sql_path), catalog)
        except SprinkleQoError as exc:
            if args.log:
                args.log.info("%s: %s", query_id, exc)
            rows.extend(analytics.failure_row(query_id, m, "error") for m in modes)
            continue
        for mode in modes:
            if mode == "naive" and query.subquery is None and query.n_operations() > limit:
                rows.append(analytics.failure_row(query_id, mode, "skipped"))
                continue
            try:
                dag, plan, _, jd, history, elapsed = _run_one(
                    query, catalog, mode, limit, history, query_id)
                params = _params(query, catalog, mode, limit, jd)
            except SprinkleQoError as exc:
                if args.log:
                    args.log.info("%s/%s: %s", query_id, mode, exc)
                rows.append(analytics.failure_row(query_id, mode, "error"))
                continue
            rows.append(analytics.measured_row(
                query_id, mode, dag, elapsed, plan.cum_cost, params,
                internal_only=args.count_internal_only))
    report = analytics.collect_metrics(rows)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    atomic_write_text(args.report, analytics.report_to_csv(report))
    print(f"wrote {args.report}: {len(report.rows)} rows")
    return EXIT_OK


def _load_history(path: str, catalog: Catalog) -> HistoryDag:
    """The history saved at `path`, once it is shown to be built against
    `catalog` (its fingerprint) and with its numbers (its cardinalities and
    jsfs)."""
    from . import joindag
    history = joindag.load_history(path)
    joindag.verify_catalog(history, catalog)
    joindag.verify_numbers(history, catalog)
    return history


def _history_summary(history: HistoryDag) -> str:
    eq, op, plans = memo.count_nodes(history.dag)
    lines = [f"version: {history.version}",
             f"known_joins ({len(history.known_joins)}):"]
    lines.extend(f"  {text}" for text in sorted(history.known_joins))
    lines.append(f"eq_nodes: {eq}")
    lines.append(f"op_nodes: {op}")
    lines.append(f"plans: {plans}")
    return "\n".join(lines)


def cmd_histdag_build(args) -> int:
    from . import joindag
    limit = _effective_limit(args)
    catalog = load_catalog_file(args.schema, args.stats)
    history = joindag.build_complete_history(catalog, catalog.graph.edges, limit)
    with locked(args.out):
        joindag.save_history(history, args.out)
    print(_history_summary(history))
    return EXIT_OK


def cmd_histdag_add(args) -> int:
    from . import joindag
    limit = _effective_limit(args)
    catalog = load_catalog_file(args.schema, args.stats)
    with locked(args.history, existing=True):   # no other add may save between this load and save
        history = _load_history(args.history, catalog)
        query = parse_query(read_text(args.query), catalog)
        if query.subquery is not None:
            raise ValidationError("history maintenance expects flat queries")
        grown = joindag.build_incremental(history, extract_join_set(query),
                                          catalog, limit)
        joindag.save_history(grown, args.history)
    print(_history_summary(grown))
    return EXIT_OK


def cmd_histdag_show(args) -> int:
    catalog = load_catalog_file(args.schema, args.stats)
    history = _load_history(args.history, catalog)
    print(_history_summary(history))
    return EXIT_OK


def cmd_histdag_export_dot(args) -> int:
    from . import joindag
    history = joindag.load_history(args.history)
    atomic_write_text(args.dot, memo.export_dot(history.dag))
    print(f"wrote {args.dot}")
    return EXIT_OK


def main(argv=None) -> int:
    log = _logger()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.log = log
        return args.func(args)
    except _UsageError as exc:
        print(f"ERR:usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SprinkleQoError as exc:
        print(f"ERR:{exc.code}: {exc}", file=sys.stderr)
        return _CODE_EXITS.get(exc.code, EXIT_INVALID)
    except OSError as exc:
        print(f"ERR:io: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        if log:
            log.debug("internal error", exc_info=True)
        print(f"ERR:internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
