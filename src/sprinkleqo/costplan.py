"""Size estimation, operator costing, and plan extraction.

One convention is used everywhere: an operator's cost is the work of
consuming its inputs (a join costs |A|*|B|, every unary operator costs the
size of its input) and a plan's cost is the sum of its operator costs.  The
result-size term of the classic select-after-join comparison shows up
naturally as the consuming operator's input, so it is accounted exactly once.

Sizes are real-valued estimates; nothing is rounded except for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import memo
from .errors import DagError
from .memo import (Dag, KIND_JOIN, KIND_JOINFILTER, KIND_SELECT,
                   KIND_PROJECT, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY)


def estimate_size(kind: str, inputs: tuple[float, ...], factor: float | None = None) -> float:
    """Estimated output size of one operator application.

    join: jsf*|A|*|B|; select/having: ssf*|A|; joinfilter: jsf*|A|;
    groupby: min(distinct product, |A|); project/orderby: |A|.
    """
    if kind == KIND_JOIN:
        a, b = inputs
        return float(factor) * a * b
    (a,) = inputs
    if kind in (KIND_SELECT, KIND_HAVING, KIND_JOINFILTER):
        return float(factor) * a
    if kind == KIND_GROUPBY:
        return min(float(factor), a)
    if kind in (KIND_PROJECT, KIND_ORDERBY):
        return a
    raise DagError(f"unknown op kind {kind!r}")


def op_cost(kind: str, inputs: tuple[float, ...]) -> float:
    """Cost of one operator application under the shared convention."""
    if kind == KIND_JOIN:
        a, b = inputs
        return a * b
    if kind in memo.UNARY_KINDS:
        (a,) = inputs
        return a
    raise DagError(f"unknown op kind {kind!r}")


@dataclass(frozen=True)
class Plan:
    """One fully expanded operator tree with per-node size and cost."""

    kind: str  # 'base' or an op kind
    detail: str
    relation: str | None
    children: tuple["Plan", ...]
    factor: float | None
    est_size: float
    op_cost: float
    cum_cost: float

    def to_doc(self) -> dict:
        """The plan as nested dicts, each built after its inputs'
        (`inputs_first`), so any depth works."""
        docs: dict[int, dict] = {}   # the id of each plan node -> its doc
        for node in inputs_first(self):
            doc: dict = {"kind": node.kind}
            if node.kind == "base":
                doc["relation"] = node.relation
            else:
                doc["predicate"] = node.detail
            doc["est_size"] = node.est_size
            doc["op_cost"] = node.op_cost
            doc["cum_cost"] = node.cum_cost
            if node.children:
                doc["children"] = [docs[id(c)] for c in node.children]
            docs[id(node)] = doc
        return docs[id(self)]


def inputs_first(plan: Plan) -> list[Plan]:
    """Every node of a plan tree, each node's inputs first and left to
    right: the reverse of a walk from the root that takes the inputs right
    to left, kept on a list of its own, so any depth works."""
    order, stack = [], [plan]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += node.children
    return order[::-1]


def base_plan(relation: str, cardinality: float) -> Plan:
    return Plan(kind="base", detail="", relation=relation, children=(),
                factor=None, est_size=float(cardinality), op_cost=0.0, cum_cost=0.0)


def op_plan(kind: str, detail: str, children: tuple[Plan, ...],
            factor: float | None = None) -> Plan:
    sizes = tuple(c.est_size for c in children)
    cost = op_cost(kind, sizes)
    return Plan(kind=kind, detail=detail, relation=None, children=children,
                factor=factor, est_size=estimate_size(kind, sizes, factor),
                op_cost=cost, cum_cost=cost + sum(c.cum_cost for c in children))


def plan_key(plan: Plan) -> str:
    """Canonical text of a plan tree, used for deterministic ordering.  The
    walk keeps its own stack of nodes and closing text, so any depth works."""
    out: list[str] = []
    stack: list = [plan]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.kind == "base":
            out.append(f"(base {item.relation})")
        else:
            out.append(f"({item.kind} [{item.detail}] ")
            stack.append(")")
            for i, child in enumerate(reversed(item.children)):
                stack += [" ", child] if i else [child]
    return "".join(out)


# -- plans <-> memo ---------------------------------------------------------

def intern_op(dag: Dag, kind: str, detail: str, children: tuple[int, ...],
              factor: float | None = None) -> int:
    """Intern one operator over existing eq-nodes, sizing and costing it from
    their estimates; returns the eq-node it produces."""
    size = dag.eq_nodes[children[0]].est_size
    sizes = (size, dag.eq_nodes[children[1]].est_size) if len(children) == 2 else (size,)
    return memo.attach_op(dag, kind, detail, children, estimate_size(kind, sizes, factor),
                          op_cost(kind, sizes), factor)


def best_plan(dag: Dag, root_eq: int) -> Plan:
    """Minimum-cost expansion below an eq-node; cost ties break on canonical
    op text (`OpNode.sort_key`), and the first op-node wins a full tie.

    One pass over the eq-nodes below the root, inputs first (the reversed
    `memo.topological_order` of `Dag.below`), so nothing recurses and any
    depth works.  `memo.attach_op` keeps every op cost finite, but their
    sum can still overflow: a non-finite best cost is a DagError, as is an
    unknown root.
    """
    if root_eq not in dag.eq_nodes:
        raise DagError(f"unknown eq-node {root_eq}")
    view = dag.below(root_eq)
    op_nodes, cache = view.op_nodes, {}
    for eq_id in reversed(memo.topological_order(view)):
        node, best_op = view.eq_nodes[eq_id], None
        if node.is_base:
            cache[eq_id] = base_plan(node.signature[0][0], node.est_size)
            continue
        for op_id in node.child_ops:
            op = op_nodes[op_id]
            children = op.children
            if len(children) == 2:
                cost = op.op_cost + (cache[children[0]].cum_cost + cache[children[1]].cum_cost)
            else:
                cost = op.op_cost + cache[children[0]].cum_cost
            if best_op is None or cost < best_cost or (
                    cost == best_cost and op.sort_key() < best_op.sort_key()):
                best_op, best_cost = op, cost
        cache[eq_id] = Plan(best_op.kind, best_op.detail, None,
                            tuple([cache[c] for c in best_op.children]), best_op.factor,
                            node.est_size, best_op.op_cost, best_cost)
    plan = cache[root_eq]
    if not math.isfinite(plan.cum_cost):
        raise DagError(f"the plan cost under eq-node {root_eq} overflows")
    return plan
