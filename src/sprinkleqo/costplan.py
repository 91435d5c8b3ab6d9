"""Size estimation, operator costing, and plan extraction.

The cost formula is defined here once: a join costs `join_cost` (|A|*|B|),
a unary operator `unary_cost` (|A|), a plan the sum of its operator costs,
so a select-after-join's result size counts once, as the select's input.
The size definition sits beside it: a join yields `join_size`
(jsf*|A|*|B|), a unary operator `unary_size`.  `estimate_size` and
`op_cost` dispatch on the kind to them; `intern_op`, which sizes and costs
every op-node a memo build interns, calls them with no dispatch.  The
placement DP and naive's search are exact for any cost of the input
sizes; the landing bound (`sprinkle._Placement.bound`) needs one rising in
each input with cost(r*a, b) >= r*cost(a, b) for r <= 1, and stacking
selects by selectivity a rising unary cost.

Sizes are real-valued estimates; nothing is rounded except for display.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import memo
from .errors import DagError
from .memo import (Dag, KIND_JOIN, KIND_JOINFILTER, KIND_SELECT,
                   KIND_PROJECT, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY)


def join_size(a: float, b: float, factor: float) -> float:
    return float(factor) * a * b


def unary_size(kind: str, a: float, factor: float | None = None) -> float:
    if kind in (KIND_SELECT, KIND_HAVING, KIND_JOINFILTER):
        return float(factor) * a
    if kind == KIND_GROUPBY:
        return min(float(factor), a)
    if kind in (KIND_PROJECT, KIND_ORDERBY):
        return a
    raise DagError(f"unknown op kind {kind!r}")


def estimate_size(kind: str, inputs: tuple[float, ...], factor: float | None = None) -> float:
    """Estimated output size of one operator application: `join_size` or
    `unary_size`.

    join: jsf*|A|*|B|; select/having: ssf*|A|; joinfilter: jsf*|A|;
    groupby: min(distinct product, |A|); project/orderby: |A|.
    """
    if kind == KIND_JOIN:
        return join_size(*inputs, factor)
    (a,) = inputs
    return unary_size(kind, a, factor)


def join_cost(a: float, b: float) -> float:
    return a * b


def unary_cost(a: float) -> float:
    return a


def op_cost(kind: str, inputs: tuple[float, ...]) -> float:
    """Cost of one operator application: `join_cost` or `unary_cost`."""
    if kind == KIND_JOIN:
        return join_cost(*inputs)
    if kind in memo.UNARY_KINDS:
        return unary_cost(*inputs)
    raise DagError(f"unknown op kind {kind!r}")


class Plan(NamedTuple):
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
    """Intern one operator over existing eq-nodes, sized and costed from
    their estimates; returns the eq-node it produces.  The other entry of
    the attach step (`memo.attach_over`), beside `memo.attach_op`, with its
    DagError texts: it reads the inputs once (`memo.input_nodes`: the kind,
    each child's existence, their count), sizes and costs the op from
    them, refuses a size or cost that is not finite, and hands the same
    input nodes to the step."""
    first, second = memo.input_nodes(dag, kind, children)
    a = first.est_size
    if second is None:
        size, cost = unary_size(kind, a, factor), unary_cost(a)
    else:
        b = second.est_size
        size, cost = join_size(a, b, factor), join_cost(a, b)
    if not (math.isfinite(size) and math.isfinite(cost)):
        raise memo.overflow(kind, detail, size, cost)
    return memo.attach_over(dag, kind, detail, first, second, size, cost, factor)


def best_plan(dag: Dag, root_eq: int) -> Plan:
    """Minimum-cost expansion below an eq-node; cost ties break on canonical
    op text (`OpNode.sort_key`), and the first op-node wins a full tie.

    The Cascades rule: keep each eq-node's winner, then build the one plan
    that follows the winners down from the root.  Three passes over the
    eq-nodes below the root (`memo.topological_order` below it), so nothing
    recurses and any depth works.  Inputs first, each eq-node keeps its
    least cost and its winning op-node; consumers first, the root's winners
    mark the eq-nodes of its plan; inputs first again, only those get a
    `Plan`.  Both entries of the attach step (`memo.attach_over`) keep
    every op cost finite, but their sum can still overflow: a non-finite
    best cost is a DagError, as is an unknown root.
    """
    eq_nodes, op_nodes = dag.eq_nodes, dag.op_nodes
    if root_eq not in eq_nodes:
        raise DagError(f"unknown eq-node {root_eq}")
    order = memo.topological_order(dag, root_eq)   # consumers first
    least: dict[int, float] = {}   # eq-node -> the cost of its best plan
    winner: dict[int, memo.OpNode | None] = {}   # eq-node -> its best plan's top op-node
    for eq_id in reversed(order):
        best_op = None
        for op_id in eq_nodes[eq_id].child_ops:
            op = op_nodes[op_id]
            children = op.children
            if len(children) == 2:
                cost = op.op_cost + (least[children[0]] + least[children[1]])
            else:
                cost = op.op_cost + least[children[0]]
            if best_op is None or cost < best_cost or (
                    cost == best_cost and op.sort_key() < best_op.sort_key()):
                best_op, best_cost = op, cost
        winner[eq_id] = best_op
        least[eq_id] = 0.0 if best_op is None else best_cost
    if not math.isfinite(least[root_eq]):
        raise DagError(f"the plan cost under eq-node {root_eq} overflows")
    on_plan, marked = {root_eq}, []   # the plan's eq-nodes, consumers first
    for eq_id in order:
        if eq_id in on_plan:
            marked.append(eq_id)
            op = winner[eq_id]
            if op is not None:
                on_plan.update(op.children)
    plans: dict[int, Plan] = {}
    for eq_id in reversed(marked):
        node, op = eq_nodes[eq_id], winner[eq_id]
        plans[eq_id] = (base_plan(node.signature[0][0], node.est_size) if op is None else
                        Plan(op.kind, op.detail, None, tuple([plans[c] for c in op.children]),
                             op.factor, node.est_size, op.op_cost, least[eq_id]))
    return plans[root_eq]
