"""AND/OR DAG memo table.

Eq-nodes are equivalence classes of partial results; their child op-nodes are
alternative ways to produce the class (OR), and each op-node's children are
the eq-node inputs it consumes (AND).  An eq-node is identified by its
canonical signature:

    (sorted base relations,
     sorted applied join-condition texts,
     sorted applied select/group-by/having/order-by texts,
     sorted retained projection attributes)

Interning by signature is what merges plans produced in different orders into
one shared structure.  All tie-breaking is lexicographic on canonical text so
builds are byte-deterministic.

An operator's output eq-node is never chosen by its caller: `attach_op`
derives its signature from the inputs' (`join_signature`, `extend_signature`),
which reject every operator that does not extend its inputs.  Signatures
therefore strictly grow along every op-node, so the memo is acyclic by
construction, and a walk down from any eq-node takes fewer steps than its
signature has entries (counting a projection as one).  `dag_from_doc` holds
a loaded dag to the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DagError

Signature = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...]]

KIND_JOIN = "join"
KIND_JOINFILTER = "joinfilter"
KIND_SELECT = "select"
KIND_PROJECT = "project"
KIND_GROUPBY = "groupby"
KIND_HAVING = "having"
KIND_ORDERBY = "orderby"
UNARY_KINDS = (KIND_JOINFILTER, KIND_SELECT, KIND_PROJECT, KIND_GROUPBY,
               KIND_HAVING, KIND_ORDERBY)
OP_KINDS = (KIND_JOIN,) + UNARY_KINDS

SIZE_RTOL = 1e-9


def make_signature(bases, joins=(), unary=(), projection=()) -> Signature:
    return (tuple(sorted(bases)), tuple(sorted(joins)), tuple(sorted(unary)),
            tuple(sorted(projection)))


def base_signature(relation: str) -> Signature:
    return ((relation,), (), (), ())


def extend_signature(sig: Signature, kind: str, detail: str) -> Signature:
    """Signature of a unary operator applied on top of `sig`.

    Joinfilters extend the applied-join set (they realize a join condition
    over an already-connected tree); projects fill the retained-attribute
    component; every other unary op extends the applied-unary set.  Raises
    DagError for an op that does not extend `sig`: a condition already
    applied, or a project over an already projected input.
    """
    bases, joins, unary, projection = sig
    if kind == KIND_PROJECT:
        attrs = detail[len("project("):-1]
        retained = tuple(a.strip() for a in attrs.split(",") if a.strip())
        if projection or not retained:
            raise DagError(f"{detail!r} does not extend {signature_text(sig)!r}")
        return make_signature(bases, joins, unary, retained)
    applied = joins if kind == KIND_JOINFILTER else unary
    if detail in applied:
        raise DagError(f"{kind} {detail!r} is already applied in {signature_text(sig)!r}")
    if kind == KIND_JOINFILTER:
        return make_signature(bases, joins + (detail,), unary, projection)
    return make_signature(bases, joins, unary + (detail,), projection)


def join_signature(a: Signature, b: Signature, detail: str) -> Signature:
    """Signature of joining two disjoint, unprojected trees under one join
    condition; DagError for any other pair."""
    if a[3] or b[3] or not set(a[0]).isdisjoint(b[0]):
        raise DagError(f"join {detail!r} of {signature_text(a)!r} and "
                       f"{signature_text(b)!r}: inputs must be disjoint and unprojected")
    return make_signature(a[0] + b[0], set(a[1]) | set(b[1]) | {detail},
                          set(a[2]) | set(b[2]), ())


def signature_text(sig: Signature) -> str:
    bases, joins, unary, projection = sig
    parts = ["{" + ",".join(bases) + "}"]
    if joins:
        parts.append("j[" + "; ".join(joins) + "]")
    if unary:
        parts.append("u[" + "; ".join(unary) + "]")
    if projection:
        parts.append("p[" + ",".join(projection) + "]")
    return " ".join(parts)


@dataclass
class EqNode:
    id: int
    signature: Signature
    est_size: float
    child_ops: list[int] = field(default_factory=list)

    @property
    def is_base(self) -> bool:
        return not self.child_ops


@dataclass(frozen=True)
class OpNode:
    id: int
    kind: str
    detail: str
    children: tuple[int, ...]
    op_cost: float
    factor: float | None = None

    def sort_key(self) -> tuple:
        return (self.kind, self.detail, self.children)


class Dag:
    """Mutable memo table; eq/op ids are assigned in intern order."""

    def __init__(self):
        self.eq_nodes: dict[int, EqNode] = {}
        self.op_nodes: dict[int, OpNode] = {}
        self.query_roots: dict[str, int] = {}
        self._sig_index: dict[Signature, int] = {}
        self._op_index: dict[tuple, int] = {}
        self._next_eq = 0
        self._next_op = 0
        self.meta: dict = {}

    # -- construction ---------------------------------------------------

    def find_eq(self, signature: Signature) -> int | None:
        return self._sig_index.get(signature)

    def clone(self) -> "Dag":
        out = Dag()
        out.eq_nodes = {i: EqNode(n.id, n.signature, n.est_size, list(n.child_ops))
                        for i, n in self.eq_nodes.items()}
        out.op_nodes = dict(self.op_nodes)
        out.query_roots = dict(self.query_roots)
        out._sig_index = dict(self._sig_index)
        out._op_index = dict(self._op_index)
        out._next_eq = self._next_eq
        out._next_op = self._next_op
        out.meta = dict(self.meta)
        return out

    def copy_below(self, root: int) -> tuple["Dag", int]:
        """A new dag of the eq-nodes reachable from `root` and their
        op-nodes, and the copy's id of `root`.

        Ids follow re-attaching the nodes depth first: a base eq-node when
        first reached, any other once the inputs of its first op-node are
        copied, and each op-node, in ascending source id under its eq-node,
        after its inputs.  Every input of a reachable op-node is reachable,
        so the copy obeys the rule the source does (see `attach_op`).
        """
        out = Dag()
        ids: dict[int, int] = {}

        def new_eq(node: EqNode) -> int:
            eq_id = out._next_eq
            out.eq_nodes[eq_id] = EqNode(eq_id, node.signature, node.est_size)
            out._sig_index[node.signature] = eq_id
            out._next_eq += 1
            return eq_id

        def copy(eq_id: int) -> int:
            if eq_id not in ids:
                node = self.eq_nodes[eq_id]
                new = new_eq(node) if node.is_base else None
                for op_id in sorted(node.child_ops):
                    op = self.op_nodes[op_id]
                    children = tuple(copy(c) for c in op.children)
                    if new is None:
                        new = new_eq(node)
                    out.op_nodes[out._next_op] = OpNode(out._next_op, op.kind, op.detail,
                                                        children, op.op_cost, op.factor)
                    out._op_index[(op.kind, op.detail, children)] = out._next_op
                    out.eq_nodes[new].child_ops.append(out._next_op)
                    out._next_op += 1
                ids[eq_id] = new
            return ids[eq_id]

        return out, copy(root)


def sizes_agree(a: float, b: float) -> bool:
    """Whether two estimates of one quantity agree within SIZE_RTOL."""
    return abs(a - b) <= SIZE_RTOL * max(1.0, abs(a), abs(b))


def intern_eq(dag: Dag, signature: Signature, est_size: float) -> int:
    """Return the eq-node for this signature, creating it if new.

    A signature collision with an inconsistent size estimate is an error:
    every alternative of one equivalence class must yield the same size.
    """
    existing = dag.find_eq(signature)
    if existing is not None:
        node = dag.eq_nodes[existing]
        if not sizes_agree(node.est_size, est_size):
            raise DagError(
                f"signature collision with inconsistent est_size: "
                f"{signature_text(signature)!r} has {node.est_size!r} vs {est_size!r}")
        return existing
    node = EqNode(id=dag._next_eq, signature=signature, est_size=float(est_size))
    dag.eq_nodes[node.id] = node
    dag._sig_index[signature] = node.id
    dag._next_eq += 1
    return node.id


def attach_op(dag: Dag, kind: str, detail: str, children: tuple[int, ...],
              est_size: float, op_cost: float, factor: float | None = None) -> int:
    """Attach an operator over existing eq-nodes; returns the eq-node it
    produces.

    That eq-node is derived, not chosen: its signature comes from the
    children's by `join_signature` or `extend_signature`, which raise
    DagError for an op that does not extend its inputs (a join of
    overlapping or projected inputs, a project over a projected input, a
    condition already applied).  Signatures thus strictly grow along every
    op, so the memo stays acyclic and a walk down from any eq-node takes
    fewer steps than its signature has entries.  The eq-node is interned
    with `est_size` (see `intern_eq`).  Join ops take exactly two children
    (stored in canonical order); every other kind takes one.  Attaching is
    idempotent: the same (kind, detail, children) maps to one op-node.  An
    estimate that overflowed (a non-finite `est_size` or `op_cost`) is a
    DagError.
    """
    if kind not in OP_KINDS:
        raise DagError(f"unknown op kind {kind!r}")
    if not (math.isfinite(est_size) and math.isfinite(op_cost)):
        raise DagError(f"{kind} {detail!r}: estimate overflows "
                       f"(est_size {est_size!r}, op_cost {op_cost!r})")
    for child in children:
        if child not in dag.eq_nodes:
            raise DagError(f"dangling child eq-node {child}")
    if kind == KIND_JOIN:
        if len(children) != 2:
            raise DagError("join ops take exactly two children")
        children = tuple(sorted(
            children, key=lambda c: signature_text(dag.eq_nodes[c].signature)))
        sig = join_signature(dag.eq_nodes[children[0]].signature,
                             dag.eq_nodes[children[1]].signature, detail)
    elif len(children) != 1:
        raise DagError(f"{kind} ops take exactly one child")
    else:
        sig = extend_signature(dag.eq_nodes[children[0]].signature, kind, detail)
    parent = intern_eq(dag, sig, est_size)
    key = (kind, detail, children)
    if key not in dag._op_index:
        op = OpNode(id=dag._next_op, kind=kind, detail=detail, children=children,
                    op_cost=float(op_cost), factor=factor)
        dag.op_nodes[op.id] = op
        dag._op_index[key] = op.id
        dag._next_op += 1
        dag.eq_nodes[parent].child_ops.append(op.id)
    return parent


def register_root(dag: Dag, query_id: str, eq_id: int) -> None:
    if eq_id not in dag.eq_nodes:
        raise DagError(f"cannot register unknown eq-node {eq_id} as a root")
    dag.query_roots[query_id] = eq_id


def ensure_base(dag: Dag, relation: str, cardinality: float) -> int:
    return intern_eq(dag, base_signature(relation), cardinality)


# -- counting -------------------------------------------------------------

def topological_order(dag: Dag) -> list[int]:
    """Every eq-node after all of its consumers, by Kahn's algorithm.

    Iterative, so any depth works; raises DagError on a cycle.  Eq-node ids
    are not topological: interning a plan can hang a new, higher-id child
    under an existing parent.
    """
    indegree = dict.fromkeys(dag.eq_nodes, 0)
    for node in dag.eq_nodes.values():
        for op_id in node.child_ops:
            for child in dag.op_nodes[op_id].children:
                indegree[child] += 1
    ready = [eq_id for eq_id, n in indegree.items() if n == 0]
    order: list[int] = []
    while ready:
        eq_id = ready.pop()
        order.append(eq_id)
        for op_id in dag.eq_nodes[eq_id].child_ops:
            for child in dag.op_nodes[op_id].children:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
    if len(order) != len(dag.eq_nodes):
        raise DagError("dag has a cycle")
    return order


def plan_count_for(dag: Dag, eq_id: int, _memo: dict[int, int] | None = None) -> int:
    """Number of distinct full expansions below an eq-node (product-sum rule).

    Counts every eq-node of the dag, inputs first, into `_memo` when given."""
    counts = _memo if _memo is not None else {}
    if eq_id not in counts:
        for eq in reversed(topological_order(dag)):
            node = dag.eq_nodes[eq]
            total = 0 if node.child_ops else 1
            for op_id in node.child_ops:
                prod = 1
                for child in dag.op_nodes[op_id].children:
                    prod *= counts[child]
                total += prod
            counts[eq] = total
    return counts[eq_id]


def dag_roots(dag: Dag) -> list[int]:
    """Registered query roots, else every parentless eq-node."""
    if dag.query_roots:
        return sorted(set(dag.query_roots.values()))
    has_parent: set[int] = set()
    for op in dag.op_nodes.values():
        has_parent.update(op.children)
    return sorted(eq for eq in dag.eq_nodes if eq not in has_parent)


def count_nodes(dag: Dag, internal_only: bool = False) -> tuple[int, int, int]:
    """(eq_count, op_count, plan_count over the dag's roots)."""
    if internal_only:
        eq_count = sum(1 for n in dag.eq_nodes.values() if not n.is_base)
    else:
        eq_count = len(dag.eq_nodes)
    memo: dict[int, int] = {}
    plans = sum(plan_count_for(dag, root, memo) for root in dag_roots(dag))
    return eq_count, len(dag.op_nodes), plans


def arc_signature_set(dag: Dag) -> frozenset:
    """Id-free structural fingerprint: one entry per op-node.

    Two dags with equal eq-signature sets and equal arc sets are the same
    graph up to node numbering.
    """
    arcs = set()
    for eq_id, node in dag.eq_nodes.items():
        for op_id in node.child_ops:
            op = dag.op_nodes[op_id]
            child_sigs = tuple(dag.eq_nodes[c].signature for c in op.children)
            arcs.add((node.signature, op.kind, op.detail, child_sigs))
    return frozenset(arcs)


# -- rendering ------------------------------------------------------------

def _dot_escape(text: str) -> str:
    """`text` inside a quoted DOT string: backslashes and quotes escaped, and
    each unprintable character (a line break, say) shown as its Python
    escape, so a label stays on its line."""
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1].replace("\\", "\\\\")
                   for ch in text)


def export_dot(dag: Dag, name: str = "andor_dag") -> str:
    """Deterministic DOT text: eq-nodes as ellipses, op-nodes as boxes."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for eq_id in sorted(dag.eq_nodes):
        node = dag.eq_nodes[eq_id]
        label = _dot_escape(signature_text(node.signature)) + f"\\nsize={node.est_size:.6g}"
        lines.append(f'  eq{eq_id} [shape=ellipse, label="{label}"];')
    for op_id in sorted(dag.op_nodes):
        op = dag.op_nodes[op_id]
        label = _dot_escape(f"{op.kind} {op.detail}") + f"\\ncost={op.op_cost:.6g}"
        lines.append(f'  op{op_id} [shape=box, label="{label}"];')
    eq_to_op, op_to_eq = _arcs(dag)
    for eq_id, op_id in eq_to_op:
        lines.append(f"  eq{eq_id} -> op{op_id};")
    for op_id, eq_id in op_to_eq:
        lines.append(f"  op{op_id} -> eq{eq_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- serialization ----------------------------------------------------------

def _arcs(dag: Dag) -> tuple[list[list[int]], list[list[int]]]:
    """(eq_to_op, op_to_eq) arcs as sorted [from, to] pairs."""
    eq_to_op = sorted([eq_id, op_id] for eq_id, node in dag.eq_nodes.items()
                      for op_id in node.child_ops)
    op_to_eq = sorted([op.id, child] for op in dag.op_nodes.values()
                      for child in op.children)
    return eq_to_op, op_to_eq


def dag_to_doc(dag: Dag) -> dict:
    eq_to_op, op_to_eq = _arcs(dag)
    return {
        "format": 1,
        "eq_nodes": [
            {"id": n.id, "signature": [list(part) for part in n.signature],
             "est_size": n.est_size}
            for n in sorted(dag.eq_nodes.values(), key=lambda n: n.id)
        ],
        "op_nodes": [
            {"id": o.id, "kind": o.kind, "detail": o.detail,
             "children": list(o.children), "op_cost": o.op_cost, "factor": o.factor}
            for o in sorted(dag.op_nodes.values(), key=lambda o: o.id)
        ],
        "arcs": {"eq_to_op": eq_to_op, "op_to_eq": op_to_eq},
        "roots": dict(sorted(dag.query_roots.items())),
    }


def _finite(value, what: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise DagError(f"non-finite {what} {value!r}")
    return out


def _signature_of(value, eq_id) -> Signature:
    if not (isinstance(value, list) and len(value) == 4 and all(
            isinstance(part, list) and all(isinstance(t, str) for t in part)
            for part in value)):
        raise DagError(f"malformed signature in eq-node {eq_id!r}")
    return tuple(tuple(part) for part in value)


def dag_from_doc(doc: dict) -> Dag:
    """Rebuild a dag from its document, held to the rule `attach_op` builds
    by.  Rejects unknown or duplicate nodes, non-finite sizes, costs and
    factors, an op-node under no eq-node or under more than one, join
    children out of canonical order, an eq-node whose signature is not the
    one derived from each of its op-nodes (or, with none, not a base
    relation's), and cycles."""
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise DagError(f"unsupported dag format {doc.get('format')!r}")
    dag = Dag()
    for nd in doc.get("eq_nodes", []):
        sig = _signature_of(nd["signature"], nd.get("id"))
        node = EqNode(id=int(nd["id"]), signature=sig,
                      est_size=_finite(nd["est_size"], f"est_size in eq-node {nd['id']!r}"))
        if node.id in dag.eq_nodes or sig in dag._sig_index:
            raise DagError(f"duplicate eq-node {node.id}")
        dag.eq_nodes[node.id] = node
        dag._sig_index[sig] = node.id
    for od in doc.get("op_nodes", []):
        op = OpNode(id=int(od["id"]), kind=od["kind"], detail=od["detail"],
                    children=tuple(int(c) for c in od["children"]),
                    op_cost=_finite(od["op_cost"], f"op_cost in op-node {od['id']!r}"),
                    factor=None if od.get("factor") is None
                    else _finite(od["factor"], f"factor in op-node {od['id']!r}"))
        key = (op.kind, op.detail, op.children)
        if (op.kind not in OP_KINDS or not isinstance(op.detail, str)
                or op.id in dag.op_nodes or key in dag._op_index
                or len(op.children) != (2 if op.kind == KIND_JOIN else 1)):
            raise DagError(f"malformed op-node {op.id}")
        for child in op.children:
            if child not in dag.eq_nodes:
                raise DagError(f"op-node {op.id} references unknown eq-node {child}")
        dag.op_nodes[op.id] = op
        dag._op_index[key] = op.id
    expected_ao = _arcs(dag)[1]
    if doc.get("arcs", {}).get("op_to_eq", expected_ao) != expected_ao:
        raise DagError("op_to_eq arcs disagree with op-node children")
    parent: dict[int, int] = {}
    for eq_id, op_id in doc.get("arcs", {}).get("eq_to_op", []):
        if eq_id not in dag.eq_nodes or op_id not in dag.op_nodes:
            raise DagError(f"arc references unknown node ({eq_id!r}, {op_id!r})")
        if op_id in parent:
            raise DagError(f"op-node {op_id} has more than one parent")
        parent[op_id] = eq_id
        dag.eq_nodes[eq_id].child_ops.append(op_id)
    topological_order(dag)  # rejects a cycle
    for op in dag.op_nodes.values():
        if op.id not in parent:
            raise DagError(f"op-node {op.id} has no parent")
        inputs = [dag.eq_nodes[c].signature for c in op.children]
        if op.kind == KIND_JOIN:
            if signature_text(inputs[0]) > signature_text(inputs[1]):
                raise DagError(f"join op-node {op.id} has its children out of order")
            sig = join_signature(inputs[0], inputs[1], op.detail)
        else:
            sig = extend_signature(inputs[0], op.kind, op.detail)
        if sig != dag.eq_nodes[parent[op.id]].signature:
            raise DagError(f"op-node {op.id} derives {signature_text(sig)!r}, not the "
                           f"signature of its eq-node {parent[op.id]}")
    for node in dag.eq_nodes.values():
        if not node.child_ops and (len(node.signature[0]) != 1 or any(node.signature[1:])):
            raise DagError(f"eq-node {node.id} has no op-node but is not a base relation")
    for query_id, eq_id in doc.get("roots", {}).items():
        register_root(dag, query_id, int(eq_id))
    dag._next_eq = max(dag.eq_nodes, default=-1) + 1
    dag._next_op = max(dag.op_nodes, default=-1) + 1
    return dag
