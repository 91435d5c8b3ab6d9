"""Exhaustive AND/OR baseline.

Every permutation of a query's join and select conditions is materialized
into one shared memo (interning collapses permutations that reach the same
partial result), then the query's grouping, having, projection, and ordering
are stacked on top of the full combination in that fixed order.  The result
is the complete search space a cost-based search can be differentially
checked against.

The permutation count n! is reported analytically; the expansion itself
walks applied-condition subsets, which is equivalent (the tests replay
literal permutations to prove it) and merely avoids factorial blowup.
"""

from __future__ import annotations

import math

from . import costplan, forest, memo, sqlfront
from .catalog import Catalog
from .errors import LimitExceededError, ValidationError
from .memo import Dag, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY, KIND_PROJECT
from .sqlfront import Query, extract_join_set


def permutations_considered(query: Query) -> int:
    """Analytic size of the permutation space: (joins + selects)!"""
    return math.factorial(query.n_operations())


def _suffix_chain(query: Query, catalog: Catalog) -> list[tuple[str, str, float | None]]:
    """(kind, detail, factor) steps stacked above the full join/select result.

    Fixed order: groupby, having, project, orderby.  The projection retains
    the output attributes (order-by keys included) and is elided when it would
    retain the full width of the joined relations (same rule the sprinkler
    uses, so differential cost comparisons stay exact).
    """
    steps: list[tuple[str, str, float | None]] = []
    if query.group_by:
        d = sqlfront.groupby_distinct_product(query.group_by, catalog)
        steps.append((KIND_GROUPBY, sqlfront.groupby_text(query.group_by), d))
        if query.having is not None:
            steps.append((KIND_HAVING, query.having.canonical(), query.having.ssf))
    retained = sqlfront.output_attrs(query, catalog)
    if retained and retained != sqlfront.all_query_attrs(query, catalog):
        steps.append((KIND_PROJECT, sqlfront.project_text(retained), None))
    if query.order_by:
        steps.append((KIND_ORDERBY, sqlfront.orderby_text(query.order_by), None))
    return steps


def apply_suffix(dag: Dag, top_eq: int, steps) -> int:
    """Intern a fixed unary chain above an eq-node; returns the final eq."""
    eq = top_eq
    for kind, detail, factor in steps:
        eq = costplan.intern_op(dag, kind, detail, (eq,), factor)
    return eq


def build_naive_dag(query: Query, catalog: Catalog, limit: int = 8, *,
                    query_id: str | None = None, dag: Dag | None = None) -> Dag:
    """Expand the full permutation space of one query into a memo.

    Raises LimitExceededError when joins + selects exceed `limit` and
    ValidationError for nested queries, which the baseline does not model.
    """
    if query.subquery is not None:
        raise ValidationError("the exhaustive baseline does not support nested queries")
    n = query.n_operations()
    if n > limit:
        raise LimitExceededError("exhaustive expansion", n, limit)

    if dag is None:
        dag = Dag()
    dag.meta.setdefault("queries", {})

    relations = {t: float(catalog.relation(t).cardinality) for t in sorted(query.tables)}
    final = forest.expand_forest(dag, relations, extract_join_set(query), query.selects)
    tops = sorted(set(final.values()))
    if len(tops) != 1:
        raise ValidationError("query relations do not join into a single result")
    root = apply_suffix(dag, tops[0], _suffix_chain(query, catalog))

    if query_id is None:
        query_id = f"q{len(dag.meta['queries']) + 1}"
    memo.register_root(dag, query_id, root)
    dag.meta["queries"][query_id] = {
        "sql": sqlfront.render_query(query),
        "permutations": permutations_considered(query),
    }
    return dag


def incremental_naive_add(dag: Dag, queries: list[tuple[str, Query]],
                          catalog: Catalog, limit: int = 8) -> Dag:
    """Rebuild the baseline memo with extra queries folded in.

    The baseline has no versioned history: adding a query re-expands every
    registered query plus the new ones into a fresh shared memo.
    """
    fresh = Dag()
    fresh.meta["queries"] = {}
    known = dag.meta.get("queries", {}) if dag is not None else {}
    for qid in sorted(known):
        build_naive_dag(sqlfront.parse_query(known[qid]["sql"], catalog), catalog,
                        limit, query_id=qid, dag=fresh)
    for qid, query in queries:
        build_naive_dag(query, catalog, limit, query_id=qid, dag=fresh)
    return fresh
