"""Closed-form search-space estimators and measured-count reporting.

All factorial expressions are evaluated with exact big integers/rationals;
the odd-n cases of the n^2/2 terms produce half-integers that are preserved
exactly, never rounded.  Estimated counts are worst-case bounds: measured
dag growth must never exceed them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import joindag, memo
from .catalog import Catalog
from .errors import DEFAULT_MAX_OPS, ValidationError
from .sqlfront import Query, extract_join_set

# Widely quoted reference figure for the naive side of the j=4, s=3 worked
# comparison.  It does not satisfy the naive-time formula below (which gives
# 311236355.5 for n=7); reports surface the discrepancy instead of adopting
# the figure.
REPORTED_NAIVE_TIME_J4_S3 = 6_356_724


@dataclass(frozen=True)
class ComplexityParams:
    """Inputs of the closed-form estimators for one query."""

    n: int  # total conditions, s + j
    j: int  # join conditions
    s: int  # select conditions
    p: int  # join-order plans in the query's join dag
    q: int  # selects inserted by sprinkling (usually == s)
    n_eq: int  # eq-nodes in the query's join dag before sprinkling


def joindag_eqnodes_after_selects(n_eq: int, p: int, q: int) -> int:
    """Sprinkling grows a p-plan join dag by at most p eq-nodes per select."""
    _require_nonneg(n_eq=n_eq, p=p, q=q)
    return n_eq + q * p


def andor_plans_after_selects(p: int, n: int, q: int) -> int:
    """Inserting q selects into p plans of n operators each multiplies the
    plan count by n, n+1, ... (every position of every plan, per select)."""
    _require_nonneg(p=p, n=n, q=q)
    out = p
    for i in range(q):
        out *= n + i
    return out


def andor_eqnodes_after_selects(n_eq: int, p: int, n: int, q: int) -> int:
    """Eq-node growth matching andor_plans_after_selects: each inserted
    select adds one node to every plan existing at that point."""
    _require_nonneg(n_eq=n_eq, p=p, n=n, q=q)
    return n_eq + sum(andor_plans_after_selects(p, n, k) for k in range(1, q + 1))


def naive_time_complexity(n: int) -> Fraction:
    """Work to permute n conditions and merge all plans pairwise:
    n! + n^2/2 * ((n! * (n!+1) / 2) - 1)."""
    _require_nonneg(n=n)
    f = math.factorial(n)
    return f + Fraction(n * n, 2) * (Fraction(f * (f + 1), 2) - 1)


def joindag_time_complexity(j: int, s: int) -> Fraction:
    """Join-order work plus select sprinkling work:
    j! + j^2/2 * ((j! * (j!+1) / 2) - 1) + s^2 + j*s*j!."""
    _require_nonneg(j=j, s=s)
    f = math.factorial(j)
    return f + Fraction(j * j, 2) * (Fraction(f * (f + 1), 2) - 1) + s * s + j * s * f


def formula_discrepancy_note() -> str:
    expected = naive_time_complexity(7)
    return (f"reference naive-time figure {REPORTED_NAIVE_TIME_J4_S3} for j=4, s=3 "
            f"does not satisfy the naive-time formula, which gives "
            f"{format_count(expected)} for n=7")


def _require_nonneg(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValidationError(f"{name} must be non-negative, got {value}")


def complexity_params_for(query: Query, catalog: Catalog,
                          limit: int = DEFAULT_MAX_OPS) -> ComplexityParams:
    """Measure the query's join-dag size (N_eq, p) and read off n/j/s/q."""
    from . import sprinkle  # local import: sprinkle pulls in the whole stack

    if query.subquery is not None:
        raise ValidationError("complexity parameters are defined for flat queries")
    history = joindag.build_incremental(joindag.empty_history(catalog),
                                        extract_join_set(query), catalog, limit)
    jd = sprinkle.extract_query_joindag(history, query, catalog, "params")
    n_eq, _, p = memo.count_nodes(jd)
    return complexity_params(query, n_eq, p)


def complexity_params(query: Query, n_eq: int, p: int) -> ComplexityParams:
    """Estimator inputs of a flat query whose join dag has n_eq eq-nodes and
    p plans: j join and s select conditions, n = j + s, q = s."""
    j, s = len(extract_join_set(query)), len(query.selects)
    return ComplexityParams(n=j + s, j=j, s=s, p=p, q=s, n_eq=n_eq)


# -- report assembly ---------------------------------------------------------

CSV_COLUMNS = ("query_id", "mode", "eq_nodes", "op_nodes", "plans", "build_ms",
               "best_cost", "est_eq_nodes", "est_plans", "est_time_complexity",
               "status")


@dataclass(frozen=True)
class MetricsRow:
    query_id: str
    mode: str  # 'naive' or 'joindag'
    eq_nodes: int | None
    op_nodes: int | None
    plans: int | None
    build_ms: float | None
    best_cost: float | None
    est_eq_nodes: int | None
    est_plans: int | None
    est_time_complexity: Fraction | None
    status: str = "ok"  # 'ok' | 'skipped' | 'error'


@dataclass
class MetricsReport:
    rows: list[MetricsRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def measured_row(query_id: str, mode: str, dag, build_ms: float,
                 best_cost: float, params: ComplexityParams | None,
                 internal_only: bool = False) -> MetricsRow:
    eq, op, plans = memo.count_nodes(dag, internal_only=internal_only)
    est_eq = est_plans = est_time = None
    if params is not None:
        if mode == "naive":
            est_eq = andor_eqnodes_after_selects(params.n_eq, params.p,
                                                 params.n, params.q)
            est_plans = andor_plans_after_selects(params.p, params.n, params.q)
            est_time = naive_time_complexity(params.n)
        else:
            est_eq = joindag_eqnodes_after_selects(params.n_eq, params.p, params.q)
            est_plans = params.p
            est_time = joindag_time_complexity(params.j, params.s)
    return MetricsRow(query_id=query_id, mode=mode, eq_nodes=eq, op_nodes=op,
                      plans=plans, build_ms=build_ms, best_cost=best_cost,
                      est_eq_nodes=est_eq, est_plans=est_plans,
                      est_time_complexity=est_time, status="ok")


def failure_row(query_id: str, mode: str, status: str) -> MetricsRow:
    return MetricsRow(query_id=query_id, mode=mode, eq_nodes=None, op_nodes=None,
                      plans=None, build_ms=None, best_cost=None, est_eq_nodes=None,
                      est_plans=None, est_time_complexity=None, status=status)


def collect_metrics(rows) -> MetricsReport:
    ordered = sorted(rows, key=lambda r: (r.query_id, r.mode))
    return MetricsReport(rows=ordered, notes=[formula_discrepancy_note()])


def format_count(value: Fraction | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        if value.denominator == 2:
            return f"{value.numerator // 2}.5"
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def report_to_csv(report: MetricsReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([
            row.query_id,
            row.mode,
            "" if row.eq_nodes is None else str(row.eq_nodes),
            "" if row.op_nodes is None else str(row.op_nodes),
            "" if row.plans is None else str(row.plans),
            "" if row.build_ms is None else f"{row.build_ms:.3f}",
            "" if row.best_cost is None else repr(row.best_cost),
            "" if row.est_eq_nodes is None else str(row.est_eq_nodes),
            "" if row.est_plans is None else str(row.est_plans),
            format_count(row.est_time_complexity),
            row.status,
        ])
    return buffer.getvalue()
