"""Placement of non-join operators over join-order plans.

Each stage consumes a dag, decorates every maximal plan under every
registered query root, and interns the surviving decorated plans into a
fresh memo:

  selects   exact joint placement over each plan's candidate positions by a
            DP over (node, subset of selects at or below it); the
            val1/val2 comparison of the local rule is subsumed by the DP's
            full plan costs
  group-by  one shared push-down walk from the root by the local val1/val2
  order-by  rule; the two differ only in val2, through the operator's output
            size: min(d, |t|) groups, or |t| for the size-neutral sort, whose
            default is therefore root placement.  Having rides directly
            above wherever the group-by lands
  projects  one projection above each query root (single query), or
            per-eq-node projections of the attributes every consumer
            needs (multi-query mode)

The select placement DP has one step (`_Placement.node`) and two callers:
over one plan (`place_selects_on_plan`), where each node has one
alternative, and over the memo (`_select_floors`), where an eq-node's
alternatives are its op-nodes.

Costly plans are pruned branch-and-bound style.  The select stage walks
plans lazily (`costplan.plans_within`), and never builds a whole family of
them (one op-node with a fixed prefix of child choices) once its lower
bound exceeds the best decorated plan seen so far.  Its bounds are the
memo DP's floors: the least cost of any plan below an eq-node, selects and
their own costs included.  They are exact at the query root, so the
per-plan DP runs only on families that can hold a plan within rounding of
the running best.  The group-by and order-by stages have no bounds: they
walk `costplan.enumerate_plans` and prune by decorated cost.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

from . import costplan, joindag, memo, sqlfront
from .catalog import Attribute, Catalog, Relation
from .costplan import Plan, op_plan
from .errors import DagError, LimitExceededError, ValidationError
from .joindag import HistoryDag
from .memo import (Dag, KIND_GROUPBY, KIND_HAVING, KIND_JOIN, KIND_ORDERBY,
                   KIND_PROJECT, KIND_SELECT)
from .sqlfront import HavingCondition, Query, SelectCondition, extract_join_set


# -- plan walking helpers ----------------------------------------------------

def plan_bases(plan: Plan) -> frozenset[str]:
    if plan.kind == "base":
        return frozenset((plan.relation,))
    out: frozenset[str] = frozenset()
    for child in plan.children:
        out = out | plan_bases(child)
    return out


def _stack_key(cond: SelectCondition) -> tuple[float, str]:
    return cond.ssf, cond.canonical()


def _rebuild_with_selects(plan: Plan, placed: dict[int, list[SelectCondition]]) -> Plan:
    """Copy of `plan` with selects stacked above the nodes they map to.

    Stacks apply most selective first (ascending ssf, then canonical text).
    """

    def walk(node: Plan) -> Plan:
        if node.kind == "base":
            out = node
        else:
            out = op_plan(node.kind, node.detail,
                          tuple(walk(c) for c in node.children), node.factor)
        for cond in sorted(placed.get(id(node), ()), key=_stack_key):
            out = op_plan(KIND_SELECT, cond.canonical(), (out,), cond.ssf)
        return out

    return walk(plan)


def _subsets(n: int) -> list[list[int]]:
    """subsets[m] lists every submask of the bit mask m, for m < 2**n, in
    increasing order, so m itself comes last."""
    out = [[0]]
    for i in range(n):
        out += [sub + [m | 1 << i for m in sub] for sub in out]
    return out


def _stack_factors(ordered) -> tuple[list[float], list[float]]:
    """Per subset T of the selects: a stack of T on an input of size p
    costs p*cost[T] and yields p*size[T], applied in `_stack_key` order."""
    cost, size = [0.0] * (1 << len(ordered)), [1.0] * (1 << len(ordered))
    done = [0]   # the subsets of the selects ranked so far
    for i in sorted(range(len(ordered)), key=lambda i: _stack_key(ordered[i])):
        bit, ssf = 1 << i, float(ordered[i].ssf)
        for t in done:   # select i tops the stack of t | bit
            cost[t | bit] = cost[t] + size[t]
            size[t | bit] = size[t] * ssf
        done += [t | bit for t in done]
    return cost, size


class _Cell:
    """Placement tables of one plan node or memo eq-node.  Lists are indexed
    by bit masks over the selects; `u` is the set placed below the node's
    own operator, `s` the set placed at or below the node."""

    __slots__ = ("mask", "local", "pre", "below", "best", "out", "own")

    def __init__(self, mask: int, width: int):
        self.mask = mask                 # the selects that may sit at or below the node
        self.local = [0.0] * width       # the node's own operator cost, by u
        self.pre = [0.0] * width         # output size before its select stack, by u
        self.below = [0.0] * width       # least cost of the children, by u
        self.best = [math.inf] * width   # least subtree cost, by s; inf if s is not in mask
        self.out = self.pre              # output size after its select stack, by s (leaves replace it)


class _Placement:
    """The placement DP of one set of selects, as bits in canonical order."""

    def __init__(self, selects):
        self.ordered = sorted(selects, key=lambda s: (s.canonical(),))
        self.width = 1 << len(self.ordered)
        self.subsets = _subsets(len(self.ordered))
        self.stack_cost, self.stack_size = _stack_factors(self.ordered)
        self.on_relation: dict[str, int] = {}
        for i, cond in enumerate(self.ordered):
            self.on_relation[cond.relation] = self.on_relation.get(cond.relation, 0) | 1 << i

    def leaf(self, relation: str, size: float) -> _Cell:
        """A base relation's tables: all its selects stack on it."""
        cell = _Cell(self.on_relation.get(relation, 0), self.width)
        cell.pre[0], cell.out = size, [0.0] * self.width
        for s in self.subsets[cell.mask]:
            cell.best[s], cell.out[s] = size * self.stack_cost[s], size * self.stack_size[s]
        return cell

    def node(self, alternatives, all_s: bool = True) -> _Cell:
        """The DP step: a node's tables from its alternatives, each (kind,
        factor, child cells).

        A select scales every size above it by its ssf, so a node's cost
        depends only on which selects sit at or below its inputs: the DP
        over (node, subset of selects at or below it) is exact in
        O(nodes * 3**s).  Over an alternative with U below it, a node costs
        `local` (the op over the children's sizes under U) plus `below`
        (the children's best costs under U) plus the stack of S - U on the
        op's output.  Per U the least local + below wins, the first
        alternative on ties; the first also gives the sizes, on which an
        eq-node's op-nodes agree up to rounding.  All of S can sit below
        the op, so `out` is `pre`.  Unless `all_s`, `best` is filled only at
        S = mask, all that a node no op consumes needs.
        """
        children = alternatives[0][2]
        mask = children[0].mask | children[-1].mask   # a join's two inputs, or a unary op's one
        cell = _Cell(mask, self.width)
        local, pre, below, best = cell.local, cell.pre, cell.below, cell.best
        cell.own = own = []   # each alternative's `local` at u = mask
        total = [0.0] * self.width   # local + below, by u
        subsets, stack_cost = self.subsets, self.stack_cost
        for i, (kind, factor, children) in enumerate(alternatives):
            if len(children) == 2:   # a join
                c1, c2 = children
                m1, m2, z1, z2, b1, b2 = c1.mask, c2.mask, c1.out, c2.out, c1.best, c2.best
                rows = [((z1[u & m1], z2[u & m2]), b1[u & m1] + b2[u & m2])
                        for u in subsets[mask]]
            else:
                z1, b1 = children[0].out, children[0].best
                rows = [((z1[u],), b1[u]) for u in subsets[mask]]
            for u, (sizes, kids) in zip(subsets[mask], rows):
                cost = costplan.op_cost(kind, sizes)
                if i == 0:
                    pre[u] = costplan.estimate_size(kind, sizes, factor)
                if i == 0 or cost + kids < total[u]:
                    local[u], below[u], total[u] = cost, kids, cost + kids
            own.append(cost)   # the last u is mask
        for s in subsets[mask] if all_s else (mask,):
            least = math.inf
            for u in subsets[s]:
                cost = total[u] + pre[u] * stack_cost[s ^ u]
                if cost < least:
                    least = cost
            best[s] = least
        return cell


def place_selects_on_plan(plan: Plan, selects) -> Plan:
    """Minimum-cost joint placement of all selects onto one plan.

    Candidate positions for each select are every node on the path from its
    relation's leaf to the root.  The placement DP finds the least cost
    without building plans; only the placements within memo.SIZE_RTOL of it
    are rebuilt, because the DP and a rebuilt plan add in different orders.
    The first cheapest rebuilt plan in product order (selects in canonical
    order, each path root-first) wins, so cost ties prefer positions nearer
    the root.
    """
    if not selects:
        return plan
    dp = _Placement(selects)
    ordered, subsets, stack_cost = dp.ordered, dp.subsets, dp.stack_cost
    paths: list[list[Plan] | None] = [None] * len(ordered)   # each select's, root-first

    def build(node: Plan, path: list[Plan], all_s: bool):
        """The node's cell and its children's, as the tree (cell, children)."""
        path = path + [node]
        if node.kind == "base":
            cell = dp.leaf(node.relation, node.est_size)
            for i in range(len(ordered)):
                if cell.mask >> i & 1:
                    paths[i] = path
            return cell, ()
        children = tuple(build(c, path, True) for c in node.children)
        return dp.node([(node.kind, node.factor, [c for c, _ in children])], all_s), children

    def placements(tree, depth: int, s: int, budget: float):
        """(DP cost, ((select, depth), ...)) for every placement of `s` at or
        below the tree's node costing no more than `budget`.  A non-finite
        cost is never above the budget, so such plans keep every placement."""
        cell, children = tree
        for u in subsets[s if children else 0]:   # a leaf has nothing below it
            here = cell.local[u] + cell.pre[u] * stack_cost[s ^ u]
            if here + cell.below[u] > budget:
                continue
            mine = tuple((i, depth) for i in range(len(ordered)) if (s ^ u) >> i & 1)
            for cost, placed in children_placements(children, depth + 1, u, budget - here):
                yield here + cost, mine + placed

    def children_placements(children, depth: int, u: int, budget: float):
        if not children:
            yield 0.0, ()
            return
        first, rest = children[0], children[1:]
        rest_least = sum(c.best[u & c.mask] for c, _ in rest)
        for cost, placed in placements(first, depth, u & first[0].mask, budget - rest_least):
            for rest_cost, rest_placed in children_placements(rest, depth, u, budget - cost):
                yield cost + rest_cost, placed + rest_placed

    tree = build(plan, [], False)
    for cond, path in zip(ordered, paths):
        if path is None:
            raise DagError(f"relation {cond.relation!r} not a base of this plan")
    least = tree[0].best[dp.width - 1]
    budget = least + memo.SIZE_RTOL * max(1.0, abs(least))
    ties = sorted(tuple(depth for _, depth in sorted(placed))
                  for _, placed in placements(tree, 0, dp.width - 1, budget))
    best: Plan | None = None
    for positions in ties:
        placed: dict[int, list[SelectCondition]] = {}
        for cond, path, depth in zip(ordered, paths, positions):
            placed.setdefault(id(path[depth]), []).append(cond)
        candidate = _rebuild_with_selects(plan, placed)
        if best is None or candidate.cum_cost < best.cum_cost:
            best = candidate
    return best


# -- stage helpers -----------------------------------------------------------

def _decorate_stage(dag: Dag, decorate, *, split_classes: bool = False,
                    floors: tuple[dict[int, float], dict[int, float]] | None = None) -> Dag:
    """Run one sprinkling stage over every registered root.

    `decorate(plan) -> Plan` maps one maximal plan to its decorated form.
    Plans whose decorated cost exceeds the running best are dropped.  When
    given, `floors` are the per-eq-node and per-op-node floors of
    `costplan.plans_within`: a plan's bound never exceeds its decorated
    cost, so families of plans whose bound exceeds the running best (with
    memo.SIZE_RTOL of slack for rounding) are never built.  Without them
    the stage walks `costplan.enumerate_plans`, which yields the same plans
    in the same order.  When `split_classes` is set, decorated plans may
    disagree on the root signature (the stage changed what the result
    denotes, e.g. grouping below different subtrees); only the signature
    class of the cheapest plan is kept.
    """
    def limit() -> float:  # the running best of the root being walked, plus slack
        return budget

    fresh = Dag()
    fresh.meta = dict(dag.meta)
    for query_id, root in sorted(dag.query_roots.items()):
        kept: list[tuple[float, Plan]] = []
        running_best = budget = math.inf
        plans = (costplan.enumerate_plans(dag, root) if floors is None
                 else costplan.plans_within(dag, root, *floors, limit))
        for plan in plans:
            decorated = decorate(plan)
            if decorated.cum_cost > running_best:
                continue
            running_best = decorated.cum_cost
            budget = running_best + memo.SIZE_RTOL * max(1.0, abs(running_best))
            kept.append((decorated.cum_cost, decorated))
        if not kept:
            raise DagError(f"no plans under root {query_id!r}")
        if split_classes:
            best_cost = min(c for c, _ in kept)
            winner = min(memo.signature_text(costplan.plan_signature(p))
                         for c, p in kept if c == best_cost)
            kept = [(c, p) for c, p in kept
                    if memo.signature_text(costplan.plan_signature(p)) == winner]
        new_root = None
        for _, decorated in kept:
            new_root = costplan.intern_plan(fresh, decorated)
        memo.register_root(fresh, query_id, new_root)
    return fresh


def _select_floors(dag: Dag, selects) -> tuple[dict[int, float], dict[int, float]]:
    """Floors of the select stage for `costplan.plans_within`: the placement
    DP run once over the memo, with an eq-node's op-nodes as its
    alternatives.

    An eq-node's floor is its least `best` over T, and an op-node's floor
    its cost with all its children's selects below it (`own`).  Under any
    placement onto any plan, the part below an eq-node (its own select stack
    included) costs at least the eq-node's floor, each op at least its
    floor and each stack above at least 0, so a plan's bound never exceeds
    its decorated cost.  Every select sits below a query root, which no op
    consumes, so its floor is the least decorated cost of its plans.  With
    no selects the floor is the `best_plan` cost.
    """
    dp = _Placement(selects)
    consumed = {c for op in dag.op_nodes.values() for c in op.children}
    cells: dict[int, _Cell] = {}
    op_floor: dict[int, float] = {}
    for eq_id in reversed(memo.topological_order(dag)):
        node = dag.eq_nodes[eq_id]
        if node.is_base:
            cells[eq_id] = dp.leaf(node.signature[0][0], node.est_size)
        else:
            cells[eq_id] = dp.node(
                [(op.kind, op.factor, tuple(map(cells.__getitem__, op.children)))
                 for op in map(dag.op_nodes.__getitem__, node.child_ops)], eq_id in consumed)
            op_floor.update(zip(node.child_ops, cells[eq_id].own))
    return {eq_id: min(cell.best) for eq_id, cell in cells.items()}, op_floor


def sprinkle_selects(jd: Dag, selects, catalog: Catalog) -> Dag:
    """Insert select conditions into every join-order plan of a join dag."""
    selects = tuple(selects)
    for cond in selects:
        catalog.relation(cond.relation)
    for query_id, root in sorted(jd.query_roots.items()):
        bases = set(jd.eq_nodes[root].signature[0])
        for cond in selects:
            if cond.relation not in bases:
                raise ValidationError(
                    f"select on {cond.relation!r} but query {query_id!r} "
                    f"covers {sorted(bases)}")
    place = (lambda p: place_selects_on_plan(p, selects)) if selects else (lambda p: p)
    return _decorate_stage(jd, place, floors=_select_floors(jd, selects))


_BLOCKING_KINDS = (KIND_GROUPBY, KIND_HAVING)


def _push_down(plan: Plan, rels: set[str], out_size, wrap) -> Plan:
    """Walk a unary operator down from the root while applying it early wins.

    At a join t ⋈ b whose t-side covers `rels` and is not a group-by or
    having: val1 = |t|*|b| + |t ⋈ b| (join first, then the operator consumes
    the join output) against val2 = |t| + out_size(|t|)*|b| (the operator
    consumes t, then the join consumes its output).  Strictly smaller val2
    descends; ties stay up.  The walk only crosses joins.  Returns the plan
    with wrap(target) in place of the node where the walk stopped.
    """
    spine: list[Plan] = []  # joins crossed, root-first
    node = plan
    while node.kind == KIND_JOIN:
        t = b = None
        for i, child in enumerate(node.children):
            if rels <= plan_bases(child) and child.kind not in _BLOCKING_KINDS:
                t, b = child, node.children[1 - i]
        if t is None:
            break
        val1 = t.est_size * b.est_size + node.est_size
        val2 = t.est_size + out_size(t.est_size) * b.est_size
        if not val2 < val1:
            break
        spine.append(node)
        node = t
    out = wrap(node)
    for join in reversed(spine):
        out = op_plan(join.kind, join.detail,
                      tuple(out if child is node else child for child in join.children),
                      join.factor)
        node = join
    return out


def place_groupby_on_plan(plan: Plan, group_by, having: HavingCondition | None,
                          d: float) -> Plan:
    """Push the group-by down while grouping early wins (val2 uses
    min(d, |t|) groups); the having filter rides directly above it."""

    def wrap(target: Plan) -> Plan:
        scope = memo.signature_text(costplan.plan_signature(target))
        out = op_plan(KIND_GROUPBY, sqlfront.groupby_text(group_by) + "@" + scope,
                      (target,), d)
        if having is not None:
            out = op_plan(KIND_HAVING, having.canonical(), (out,), having.ssf)
        return out

    return _push_down(plan, {r for r, _ in group_by}, lambda t: min(d, t), wrap)


def sprinkle_groupby(dag: Dag, group_attrs, having: HavingCondition | None,
                     catalog: Catalog) -> Dag:
    """Place the grouping (and its having filter) on every plan."""
    group_by = tuple(sorted(group_attrs))
    if not group_by:
        if having is not None:
            raise ValidationError("having without group-by")
        return dag
    d = sqlfront.groupby_distinct_product(group_by, catalog)
    return _decorate_stage(
        dag, lambda p: place_groupby_on_plan(p, group_by, having, d),
        split_classes=True)


def place_orderby_on_plan(plan: Plan, order_by) -> Plan:
    """Push the ordering down while sorting early wins.  Sorting is
    size-neutral (val2 = |t| + |t|*|b|), so it descends only when the join
    output outgrows its input, and the default is a root-level sort."""
    detail = sqlfront.orderby_text(order_by)
    return _push_down(plan, {item.relation for item in order_by}, lambda t: t,
                      lambda target: op_plan(KIND_ORDERBY, detail, (target,), None))


def sprinkle_orderby(dag: Dag, order_attrs) -> Dag:
    """Place the ordering on every plan; root placement unless joins grow."""
    order_by = tuple(order_attrs)
    if not order_by:
        return dag
    return _decorate_stage(dag, lambda p: place_orderby_on_plan(p, order_by))


# -- projections -------------------------------------------------------------

_REF_TOKEN = re.compile(r"[a-z_][a-z0-9_]*\.[a-z_][a-z0-9_]*")


def _op_refs(kind: str, detail: str) -> set[str]:
    """Qualified attributes an operator's predicate text mentions."""
    if kind == KIND_GROUPBY:
        detail = detail.split("@", 1)[0]
    return set(_REF_TOKEN.findall(detail))


def _available_attrs(dag: Dag, eq_id: int, catalog: Catalog) -> set[str]:
    sig = dag.eq_nodes[eq_id].signature
    if sig[3]:
        return set(sig[3])
    out: set[str] = set()
    for rel in sig[0]:
        out.update(f"{rel}.{a.name}" for a in catalog.relation(rel).attributes)
    return out


def _needed_attrs(dag: Dag, roots: dict[str, int], outputs: dict[str, set[str]],
                  catalog: Catalog) -> dict[int, set[str]]:
    """Backward pass: attributes each eq-node must keep for its consumers."""
    needed: dict[int, set[str]] = {eq: set() for eq in dag.eq_nodes}
    for query_id, root in roots.items():
        needed[root] |= outputs[query_id]
    for eq_id in memo.topological_order(dag):  # consumers first
        node = dag.eq_nodes[eq_id]
        for op_id in node.child_ops:
            op = dag.op_nodes[op_id]
            downward = needed[eq_id] | _op_refs(op.kind, op.detail)
            for child in op.children:
                avail = _available_attrs(dag, child, catalog)
                needed[child] |= downward & avail
    return needed


def sprinkle_projects(dag: Dag, queries: list[tuple[str, Query]],
                      catalog: Catalog) -> Dag:
    """Attach projections: one root projection per query, and in multi-query
    mode an additional projection above every eq-node that carries more
    attributes than its consumers need (materialization candidates)."""
    out = dag.clone()
    outputs = {qid: sqlfront.output_attrs(q, catalog) for qid, q in queries}
    for query_id, query in queries:
        root = out.query_roots[query_id]
        retained = outputs[query_id]
        available = _available_attrs(out, root, catalog)
        unresolved = retained - available
        if unresolved:
            raise ValidationError(
                f"output attributes not derivable at the root: {sorted(unresolved)}")
        if not retained or retained == available:
            continue
        memo.register_root(out, query_id, costplan.intern_op(
            out, KIND_PROJECT, sqlfront.project_text(retained), (root,)))

    if len(queries) > 1:
        roots = {qid: out.query_roots[qid] for qid, _ in queries}
        needed = _needed_attrs(out, roots, outputs, catalog)
        for eq_id in sorted(needed):
            node = out.eq_nodes[eq_id]
            if node.is_base or node.signature[3]:
                continue
            avail = _available_attrs(out, eq_id, catalog)
            keep = needed[eq_id]
            if not keep or keep == avail:
                continue
            costplan.intern_op(out, KIND_PROJECT, sqlfront.project_text(keep), (eq_id,))
    return out


# -- orchestration -----------------------------------------------------------

@dataclass
class OptimizeResult:
    """Everything one optimization run produced."""

    query_id: str
    plan: Plan
    dag: Dag
    history: HistoryDag | None
    combinations_considered: int
    jd_eq_nodes: int
    jd_plans: int
    inner: "OptimizeResult | None" = None


def extract_query_joindag(history: HistoryDag, query: Query, catalog: Catalog,
                          query_id: str) -> Dag:
    """Standalone join dag for one query: a copy of the history subgraph
    reachable from the query's full-join node (`Dag.copy_below`), with the
    query root registered.  No operator is derived again."""
    if not query.joins:
        out = Dag()
        (rel,) = query.tables
        root = memo.ensure_base(out, rel, float(catalog.relation(rel).cardinality))
    else:
        bases = {t: float(catalog.relation(t).cardinality) for t in sorted(query.tables)}
        join_texts = tuple(sorted(j.canonical() for j in extract_join_set(query)))
        out, root = history.dag.copy_below(joindag.query_join_root(history, bases, join_texts))
    memo.register_root(out, query_id, root)
    return out


def optimize_single(query: Query, catalog: Catalog, *,
                    history: HistoryDag | None = None, limit: int = 8,
                    query_id: str = "q1") -> OptimizeResult:
    """Full pipeline for one query: reuse (or grow) the join-order history,
    then sprinkle selects, grouping, ordering, and projections.  `limit`
    bounds the joins and, as the placement DP grows as 3**s, the selects of
    each block."""
    if query.subquery is not None:
        return _optimize_nested(query, catalog, history=history, limit=limit,
                                query_id=query_id)
    if len(query.selects) > limit:
        raise LimitExceededError("select placement", len(query.selects), limit)
    joins = extract_join_set(query)
    base_history = history if history is not None else joindag.empty_history(catalog)
    grown = joindag.build_incremental(base_history, joins, catalog, limit)
    jd = extract_query_joindag(grown, query, catalog, query_id)
    jd_eq, _, jd_plans = memo.count_nodes(jd)

    dag = sprinkle_selects(jd, query.selects, catalog)
    if query.group_by:
        dag = sprinkle_groupby(dag, query.group_by, query.having, catalog)
    if query.order_by:
        dag = sprinkle_orderby(dag, query.order_by)
    dag = sprinkle_projects(dag, [(query_id, query)], catalog)
    plan = costplan.best_plan(dag, dag.query_roots[query_id])
    return OptimizeResult(query_id=query_id, plan=plan, dag=dag, history=grown,
                          combinations_considered=joindag.combinations_considered(len(joins)),
                          jd_eq_nodes=jd_eq, jd_plans=jd_plans)


def _synthetic_catalog(catalog: Catalog, alias: str, column_sources,
                       cardinality: float) -> Catalog:
    attrs = []
    for col in sorted(column_sources):
        src_rel, src_attr = column_sources[col]
        d = catalog.relation(src_rel).attribute(src_attr).distinct_count
        attrs.append(Attribute(name=col, distinct_count=d, is_key=False))
    rel = Relation(name=alias, cardinality=cardinality, attributes=tuple(attrs))
    return Catalog(relations={**catalog.relations, alias: rel},
                   graph=catalog.graph, stats=catalog.stats,
                   fingerprint=catalog.fingerprint)


def _splice_plan(plan: Plan, alias: str, inner: Plan) -> Plan:
    if plan.kind == "base":
        return inner if plan.relation == alias else plan
    return op_plan(plan.kind, plan.detail,
                   tuple(_splice_plan(c, alias, inner) for c in plan.children),
                   plan.factor)


def _optimize_nested(query: Query, catalog: Catalog, *,
                     history: HistoryDag | None, limit: int,
                     query_id: str) -> OptimizeResult:
    """Two-level query: optimize the inner block first, expose its result as
    a synthetic relation, optimize the outer block, then splice the plans."""
    sub = query.subquery
    inner_res = optimize_single(sub.query, catalog, history=history, limit=limit,
                                query_id=f"{query_id}.inner")
    synthetic = _synthetic_catalog(catalog, sub.alias, sub.column_sources,
                                   inner_res.plan.est_size)
    if sub.form == "in":
        link = sqlfront.JoinCondition.make(sub.outer_attr,
                                           (sub.alias, sub.inner_column),
                                           sub.link_jsf)
        joins = {j.canonical(): j for j in query.joins}
        joins[link.canonical()] = link
        outer_query = dataclasses.replace(
            query, tables=query.tables | {sub.alias},
            joins=tuple(joins[t] for t in sorted(joins)), subquery=None)
    else:
        outer_query = dataclasses.replace(query, subquery=None)
    outer_res = optimize_single(outer_query, synthetic, history=None, limit=limit,
                                query_id=query_id)
    plan = _splice_plan(outer_res.plan, sub.alias, inner_res.plan)
    return OptimizeResult(
        query_id=query_id, plan=plan, dag=outer_res.dag, history=history,
        combinations_considered=(outer_res.combinations_considered
                                 + inner_res.combinations_considered),
        jd_eq_nodes=outer_res.jd_eq_nodes, jd_plans=outer_res.jd_plans,
        inner=inner_res)


def optimize_many(queries: list[tuple[str, Query]], catalog: Catalog, *,
                  history: HistoryDag | None = None,
                  limit: int = 8) -> tuple[Dag, dict[str, Plan], HistoryDag]:
    """Optimize several queries into one shared dag (common subplans merge),
    with projections widened to the union of the queries' needs."""
    grown = history if history is not None else joindag.empty_history(catalog)
    ordered = sorted(queries, key=lambda pair: pair[0])
    results: dict[str, OptimizeResult] = {}
    for query_id, query in ordered:
        if query.subquery is not None:
            raise ValidationError("nested queries are not supported in "
                                  "multi-query mode")
        results[query_id] = optimize_single(query, catalog, history=grown,
                                            limit=limit, query_id=query_id)
        grown = results[query_id].history
    shared = Dag()
    for query_id, _ in ordered:
        res = results[query_id]
        root = None
        for plan in costplan.enumerate_plans(res.dag, res.dag.query_roots[query_id]):
            root = costplan.intern_plan(shared, plan)
        memo.register_root(shared, query_id, root)
    shared = sprinkle_projects(shared, ordered, catalog)
    plans = {qid: costplan.best_plan(shared, shared.query_roots[qid])
             for qid, _ in queries}
    return shared, plans, grown
