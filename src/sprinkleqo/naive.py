"""Exhaustive AND/OR baseline.

Every permutation of a query's join and select conditions is materialized
into one shared memo (interning collapses permutations that reach the same
partial result).  The query's grouping, having, projection, and ordering go
on top, so the result is a search space a cost-based search can be
differentially checked against.

The grouping and ordering are searched over the space the sprinkler
searches: the group-by, its having directly above it, on any partial
result that covers the grouping relations and holds every select on its
own relations; the order-by on any partial result that covers the order
relations outside the group-by's subtree; the projection on the root.  The
search reads the join/select memo below the forest root in place, inputs
first, and adds no op-node to it.  A landing scales every size above it by
one ratio, |grouped| / |landing|, so one scan of the memo nodes after it
prices each op above it by `costplan.op_cost` over those sizes (`_costs`).
Different landings give the same signatures different sizes, so the memo
takes the cheapest, the root on a tie, and holds the plans that reach its
least cost (`_intern_cheapest`), topped by the projection and then the
order-by; `costplan.best_plan` reads the optimum off the memo.  A group-by
below the root names its landing in its text (`sqlfront.groupby_text`).  A
flat query (no group-by or order-by) gets only its projection on top.

The permutation count n! is reported analytically; the expansion itself
walks applied-condition subsets, which is equivalent (the tests replay
literal permutations to prove it) and merely avoids factorial blowup.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import costplan, forest, memo, sqlfront
from .catalog import Catalog
from .errors import DEFAULT_MAX_OPS, LimitExceededError, ValidationError
from .memo import Dag, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY, KIND_PROJECT
from .sqlfront import Query, extract_join_set


def permutations_considered(query: Query) -> int:
    """Analytic size of the permutation space: (joins + selects)!"""
    return math.factorial(query.n_operations())


def _group_steps(query: Query, catalog: Catalog) -> list[tuple[str, str, float]]:
    """(kind, detail, factor) of the group-by and its having, if any."""
    if not query.group_by:
        return []
    d = sqlfront.groupby_distinct_product(query.group_by, catalog)
    steps = [(KIND_GROUPBY, sqlfront.groupby_text(query.group_by), d)]
    if query.having is not None:
        steps.append((KIND_HAVING, query.having.canonical(), query.having.ssf))
    return steps


def apply_suffix(dag: Dag, top_eq: int, steps) -> int:
    """Intern a fixed unary chain above an eq-node; returns the final eq."""
    eq = top_eq
    for kind, detail, factor in steps:
        eq = costplan.intern_op(dag, kind, detail, (eq,), factor)
    return eq


class _Costs(NamedTuple):
    """Least costs of a forest's eq-nodes with the group-by on `landing`
    (None: no group-by), without the order-by (`least`) and with it at or
    below the node, outside the group-by's subtree (`sorted`).  `grouped`
    holds the landing and the eq-nodes above it, whose sizes are their
    memo sizes times `ratio`; `least[landing]` includes the group-by."""

    landing: int | None
    ratio: float
    grouped: set[int]
    least: dict[int, float]
    sorted: dict[int, float]

    def cost(self, eq_nodes, op: memo.OpNode) -> float:
        """`op`'s cost over its one or two inputs' sizes, those `grouped` times `ratio`."""
        a, b = op.children[0], op.children[-1]   # a unary op's input twice
        size = (self.ratio if a in self.grouped else 1.0) * eq_nodes[a].est_size
        return costplan.unary_cost(size) if a == b else costplan.join_cost(
            size, (self.ratio if b in self.grouped else 1.0) * eq_nodes[b].est_size)


def _costs(dag: Dag, order: list[int], order_rels: frozenset[str], steps=(),
           at: int | None = None, base: _Costs | None = None) -> _Costs:
    """The least costs of every forest eq-node of `dag` in `order`, inputs
    first, or, with the group-by on `order[at]`, of that landing and the
    eq-nodes above it, the others read from `base`.

    An eq-node after the landing is above it if it has an op over the
    landing or a node above it, whose size is its memo size times the
    landing's ratio, the op priced over those sizes (`_Costs.cost`); an op
    with no such input puts the group-by elsewhere, and is skipped.
    """
    eq_nodes, op_nodes = dag.eq_nodes, dag.op_nodes
    if at is None:
        landing, ratio, grouped, nodes, least, ordered = None, 1.0, set(), order, {}, {}
    else:
        landing = order[at]
        size, cost = eq_nodes[landing].est_size, base.least[landing]
        for kind, _, factor in steps:
            cost += costplan.op_cost(kind, (size,))
            size = costplan.estimate_size(kind, (size,), factor)
        ratio = size / eq_nodes[landing].est_size if eq_nodes[landing].est_size else 0.0
        grouped, nodes = {landing}, order[at + 1:]
        least, ordered = dict(base.least), dict(base.sorted)
        least[landing] = cost
        ordered[landing] = (cost + costplan.unary_cost(size)
                            if order_rels.issubset(eq_nodes[landing].signature[0]) else math.inf)
    c = _Costs(landing, ratio, grouped, least, ordered)   # filled in place below
    for eq in nodes:
        node = eq_nodes[eq]
        ops = [op_nodes[o] for o in node.child_ops]
        if grouped:
            ops = [op for op in ops if op.children[0] in grouped or op.children[-1] in grouped]
            if not ops:   # not above the landing
                continue
        built = math.inf if ops else 0.0   # a base relation costs nothing
        built_sorted = math.inf
        for op in ops:
            a, b = op.children[0], op.children[-1]   # a unary op's input twice
            here = c.cost(eq_nodes, op) if grouped else op.op_cost
            cost = here + least[a] if a == b else here + least[a] + least[b]
            if cost < built:
                built = cost
            if order_rels:
                cost = here + ordered[a] if a == b else min(here + ordered[a] + least[b],
                                                            here + least[a] + ordered[b])
                if cost < built_sorted:
                    built_sorted = cost
        if order_rels and order_rels.issubset(node.signature[0]):   # the order-by on top
            built_sorted = min(built_sorted, built + costplan.unary_cost(ratio * node.est_size))
        least[eq], ordered[eq] = built, built_sorted
        if grouped:
            grouped.add(eq)
    return c


def _cheapest_landing(dag: Dag, order: list[int], base: _Costs, query: Query, steps,
                      order_rels: frozenset[str], projected: bool) -> _Costs:
    """The landing of least cost, the root projection included; the root
    (`order[-1]`) on a tie.

    The other landings are tried by the cost of their subtree and group-by,
    least first, until that alone reaches the best total found.
    """
    eq_nodes, root = dag.eq_nodes, order[-1]

    def total(c: _Costs) -> float:
        cost = c.sorted[root] if order_rels else c.least[root]
        return cost + costplan.unary_cost(c.ratio * eq_nodes[root].est_size) if projected else cost

    grouping = {r for r, _ in query.group_by}
    on: dict[str, set[str]] = {}
    for cond in query.selects:
        on.setdefault(cond.relation, set()).add(cond.canonical())
    bounds = []   # (bound, position) per landing but the root
    for i, eq in enumerate(order[:-1]):
        bases, _, unary, _ = eq_nodes[eq].signature
        if grouping.issubset(bases) and all(on.get(r, set()).issubset(unary) for r in bases):
            bounds.append((base.least[eq] + costplan.unary_cost(eq_nodes[eq].est_size), i))
    best = _costs(dag, order, order_rels, steps, len(order) - 1, base)
    least = total(best)
    for bound, i in sorted(bounds):
        if bound >= least:
            break
        costs = _costs(dag, order, order_rels, steps, i, base)
        if total(costs) < least and not memo.sizes_agree(total(costs), least):
            best, least = costs, total(costs)
    return best


def _intern_cheapest(dag: Dag, c: _Costs, root: int, steps,
                     order_text: str, order_rels: frozenset[str]) -> tuple[int, int | None]:
    """Intern the plans above the forest root `root` of `dag` that put the
    group-by on `c.landing` (if any) and the order-by where they cost least.

    Returns the grouped root, and the root with the order-by below it (None
    if it costs least on top).  A plan is kept when it costs within
    memo.SIZE_RTOL of its eq-node's least, so ties keep every plan they tie.
    """
    eq_nodes, op_nodes = dag.eq_nodes, dag.op_nodes
    built: dict[tuple[int, bool], int | None] = {}

    def sort(eq: int) -> int:
        return costplan.intern_op(dag, KIND_ORDERBY, order_text, (eq,))

    def build(eq: int, ordered: bool, sort_here: bool = True) -> int | None:
        """The eq-node of `eq`'s cheapest plans, with the order-by at or
        below it if `ordered` (only below it unless `sort_here`); None if
        there is no such plan."""
        if sort_here and (eq, ordered) in built:
            return built[eq, ordered]
        costs = c.sorted if ordered else c.least
        if eq == c.landing:
            if (eq, False) not in built:
                built[eq, False] = apply_suffix(dag, eq, steps)
            out = built[eq, False]
            if ordered:
                out = sort(out) if sort_here and math.isfinite(costs[eq]) else None
        elif eq not in c.grouped and not ordered:
            out = eq
        else:
            above, out = eq in c.grouped, None
            size = (c.ratio if above else 1.0) * eq_nodes[eq].est_size
            if ordered and sort_here and order_rels.issubset(eq_nodes[eq].signature[0]) and (
                    c.least[eq] + costplan.unary_cost(size) <= memo.within_rounding(costs[eq])):
                out = sort(build(eq, False))
            for op in map(op_nodes.__getitem__, eq_nodes[eq].child_ops):
                kids = op.children
                if above and not c.grouped.intersection(kids):
                    continue   # the group-by elsewhere
                here = c.cost(eq_nodes, op) if above else op.op_cost
                for i in range(len(kids)) if ordered else [None]:   # the input sorted
                    candidate = here + sum(
                        (c.sorted if j == i else c.least)[k] for j, k in enumerate(kids))
                    if math.isfinite(candidate) and candidate <= memo.within_rounding(costs[eq]):
                        inputs = tuple([build(k, j == i) for j, k in enumerate(kids)])
                        out = costplan.intern_op(dag, op.kind, op.detail, inputs, op.factor)
        if sort_here:
            built[eq, ordered] = out
        return out

    return build(root, False), build(root, True, sort_here=False) if order_rels else None


def _place_suffix(dag: Dag, top: int, query: Query, catalog: Catalog) -> int:
    """Group, having, project and order above the forest root `top`, each
    where it costs least; returns the query root."""
    steps = _group_steps(query, catalog)
    retained = sqlfront.output_attrs(query, catalog)
    projected = bool(retained) and retained != sqlfront.all_query_attrs(query, catalog)
    order_rels = frozenset(item.relation for item in query.order_by)
    grouped = sorted_below = None
    if steps or order_rels:
        order = memo.topological_order(dag, top)[::-1]   # inputs first
        costs = _costs(dag, order, order_rels)
        if steps:
            costs = _cheapest_landing(dag, order, costs, query, steps, order_rels, projected)
            if costs.landing != top:   # name the landing
                steps[0] = (KIND_GROUPBY, sqlfront.groupby_text(
                    query.group_by, dag.eq_nodes[costs.landing].text), steps[0][2])
        grouped, sorted_below = _intern_cheapest(dag, costs, top, steps,
                                                 sqlfront.orderby_text(query.order_by), order_rels)
    root = top if grouped is None else grouped
    project = (KIND_PROJECT, sqlfront.project_text(retained), None)
    if projected:
        root = apply_suffix(dag, root, [project])
    if order_rels:
        root = apply_suffix(dag, root, [(KIND_ORDERBY, sqlfront.orderby_text(query.order_by),
                                         None)])
        if sorted_below is not None and projected:   # the same eq-node as `root`
            apply_suffix(dag, sorted_below, [project])
    return root


def build_naive_dag(query: Query, catalog: Catalog, limit: int = DEFAULT_MAX_OPS, *,
                    query_id: str = "q1", dag: Dag | None = None) -> Dag:
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

    relations = {t: float(catalog.relation(t).cardinality) for t in sorted(query.tables)}
    final = forest.expand_forest(dag, relations, extract_join_set(query), query.selects)
    tops = sorted(set(final.values()))
    if len(tops) != 1:
        raise ValidationError("query relations do not join into a single result")
    root = _place_suffix(dag, tops[0], query, catalog)
    memo.register_root(dag, query_id, root)
    return dag
