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

The memo finds an eq-node by its key, the same identity in integers: each
dag's registry gives one bit to each (component, text) pair, and the key is
(base bits, applied-join bits, applied-unary bits, projection).  Joins and
joinfilters share the join component, every other unary op but a project the
unary one, so two keys are equal exactly when the two signatures are.  Keys
are the dag's own: they are never serialized, and a copy keeps its
registry.

An operator's output eq-node is never chosen by its caller: `attach_op`
derives its key from the inputs' keys, after checks on those keys that
reject every operator that does not extend its inputs.  Signatures
therefore strictly grow along every op-node, so the memo is acyclic by
construction, and a walk down from any eq-node takes fewer steps than its
signature has entries (counting a projection as one).

Attaching derives before it looks up: `attach_op` derives the key, finds
the eq-node by it, and then the op-node among that eq-node's alternatives,
so re-attaching an existing op-node checks its size estimate and writes
nothing.  The signature tuple and its text are built once, for a new
eq-node (`join_signature`, `extend_signature`).  Since signatures grow
along every op-node, `topological_order` needs no walk: it sorts the
eq-nodes by their signature's entry count.  Every inputs-first pass over a
memo reads that order: `merge_below`, `plan_count_for`, the place stage's
DP (which reads it as its history's price table keeps it per root), and
`costplan.best_plan`'s winner and plan passes (with its consumers-first
marking pass between them).  One walk finds what a root reaches:
`reachable`, which `Dag.below` and `topological_order` below a root read.

Ids are the memo's own names and reach no query output: under one eq-node,
(kind, detail) already identifies an op-node, so `OpNode.sort_key` never
reaches the children's ids.  A join dag is therefore the part of a
history below a query's root read in place (`Dag.below`), under the
history's ids, however many other blocks the history also serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .errors import DagError

Signature = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...]]
Key = tuple[int, int, int, tuple[str, ...]]

KIND_JOIN = "join"
KIND_JOINFILTER = "joinfilter"
KIND_SELECT = "select"
KIND_PROJECT = "project"
KIND_GROUPBY = "groupby"
KIND_HAVING = "having"
KIND_ORDERBY = "orderby"
UNARY_KINDS = (KIND_JOINFILTER, KIND_SELECT, KIND_PROJECT, KIND_GROUPBY,
               KIND_HAVING, KIND_ORDERBY)

SIZE_RTOL = 1e-9
JOINS, UNARY = 1, 2   # components of a signature, a key and a dag's registry


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
    DagError for a project that does not extend `sig`: one over an already
    projected input, or one that retains nothing.  Whether a condition is
    already applied is `attach_op`'s check, made on keys before it builds a
    signature.
    """
    bases, joins, unary, projection = sig
    if kind == KIND_PROJECT:
        attrs = detail[len("project("):-1]
        retained = tuple(a.strip() for a in attrs.split(",") if a.strip())
        if projection or not retained:
            raise DagError(f"{detail!r} does not extend {signature_text(sig)!r}")
        return make_signature(bases, joins, unary, retained)
    if kind == KIND_JOINFILTER:
        return make_signature(bases, joins + (detail,), unary, projection)
    return make_signature(bases, joins, unary + (detail,), projection)


def join_signature(a: Signature, b: Signature, detail: str) -> Signature:
    """Signature of joining two disjoint, unprojected trees under one join
    condition.  That the inputs are such trees is `attach_op`'s check, made
    on keys before it builds a signature."""
    unary = tuple(sorted({*a[2], *b[2]})) if a[2] or b[2] else ()   # none in a join history
    return (tuple(sorted(a[0] + b[0])), tuple(sorted({*a[1], *b[1], detail})), unary, ())


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
    """One equivalence class: its signature, and the text and key of it
    that its dag builds once, neither serialized."""

    id: int
    signature: Signature
    est_size: float
    text: str   # signature_text(signature)
    key: Key    # the signature in its dag's registry (see the module docstring)
    child_ops: list[int] = field(default_factory=list)

    @property
    def is_base(self) -> bool:
        return not self.child_ops


class OpNode(NamedTuple):
    id: int
    kind: str
    detail: str
    children: tuple[int, ...]
    op_cost: float
    factor: float | None = None

    def sort_key(self) -> tuple:
        return (self.kind, self.detail, self.children)


class Dag:
    """Mutable memo table; eq/op ids are assigned in intern order.  Its
    registry gives each text the next bit of its component (bases, joins,
    unary ops) on first sight; its key index maps each eq-node's key to its
    id.  An op-node is found among the alternatives of the eq-node its key
    derives (`attach_op`).  A view read from a history's price table
    (`joindag.Prices.below`) carries that table as `prices` and its eq-node
    ids inputs first as `order`; both are None on every other dag."""

    def __init__(self):
        self.eq_nodes: dict[int, EqNode] = {}
        self.op_nodes: dict[int, OpNode] = {}
        self.query_roots: dict[str, int] = {}
        self.prices = self.order = None
        self._bits: tuple[dict[str, int], ...] = ({}, {}, {})   # per component: text -> bit
        self._key_index: dict[Key, int] = {}
        self._next_eq = 0
        self._next_op = 0

    # -- construction ---------------------------------------------------

    def find_eq(self, signature: Signature) -> int | None:
        """The eq-node of a canonical signature (`make_signature`), by its
        key; None if there is none, or if the registry has never seen one of
        its texts.  Registers nothing."""
        key = _key(self, signature, add=False)
        return None if key is None else self._key_index.get(key)

    def clone(self) -> "Dag":
        out = Dag()
        out.eq_nodes = {i: EqNode(n.id, n.signature, n.est_size, n.text, n.key, list(n.child_ops))
                        for i, n in self.eq_nodes.items()}
        out.op_nodes = dict(self.op_nodes)
        out.query_roots = dict(self.query_roots)
        out._bits = tuple(map(dict, self._bits))
        out._key_index = dict(self._key_index)
        out._next_eq = self._next_eq
        out._next_op = self._next_op
        return out

    def below(self, root: int) -> "Dag":
        """The `view` of the eq-nodes `reachable` from `root` and their
        op-nodes.  Every input of a reachable op-node is reachable, so every
        eq-node of it but `root` is some op-node's input."""
        eq_nodes, src_op = reachable(self, root), self.op_nodes
        return self.view(eq_nodes, {op_id: src_op[op_id] for node in eq_nodes.values()
                                    for op_id in node.child_ops})

    def view(self, eq_nodes: dict[int, EqNode], op_nodes: dict[int, OpNode]) -> "Dag":
        """A dag of these nodes of this dag, read in place: this dag's own
        node objects under their own ids, not copies, with roots of its own
        and none yet.  Nothing writes through it: its op-node map, registry
        and key index are read-only views, the last two of this dag's, so
        `intern_eq` and `attach_op` raise before they change a node, and a
        key lookup may name a node outside it."""
        out = Dag()
        out.eq_nodes, out.op_nodes = eq_nodes, MappingProxyType(op_nodes)
        out._bits = tuple(map(MappingProxyType, self._bits))
        out._key_index = MappingProxyType(self._key_index)
        return out


def reachable(dag: Dag, root: int) -> dict[int, EqNode]:
    """The eq-nodes reachable from `root`, by id, `root` first.  The walk
    keeps its own list, so any depth works."""
    src_eq, src_op = dag.eq_nodes, dag.op_nodes
    out, todo = {root: src_eq[root]}, [root]
    while todo:
        for op_id in out[todo.pop()].child_ops:
            for child in src_op[op_id].children:
                if child not in out:
                    out[child] = src_eq[child]
                    todo.append(child)
    return out


def sizes_agree(a: float, b: float) -> bool:
    """Whether two estimates of one quantity agree within SIZE_RTOL."""
    return abs(a - b) <= SIZE_RTOL * max(1.0, abs(a), abs(b))


def within_rounding(cost: float) -> float:
    """The largest cost that ties `cost` up to SIZE_RTOL: relative for
    |cost| >= 1, absolute below."""
    return cost + SIZE_RTOL * max(1.0, abs(cost))


def _key(dag: Dag, signature: Signature, add: bool) -> Key | None:
    """`signature`'s key in `dag`'s registry.  A text the registry lacks
    gets the next bit of its component with `add` (which raises in a
    `Dag.below` view), and makes the key None without."""
    bases, joins, unary, projection = signature
    base_bits, join_bits, unary_bits = dag._bits
    key = (_bits_of(base_bits, bases, add),
           _bits_of(join_bits, joins, add) if joins else 0,
           _bits_of(unary_bits, unary, add) if unary else 0, projection)
    return None if None in key[:3] else key


def _bits_of(bits: dict[str, int], texts: tuple[str, ...], add: bool) -> int | None:
    out = 0
    for text in texts:
        bit = _bit(bits, text) if add else bits.get(text)
        if bit is None:
            return None
        out |= bit
    return out


def _bit(bits: dict[str, int], text: str) -> int:
    """`text`'s bit in one component of a registry, the next one if new."""
    bit = bits.get(text)
    if bit is None:
        bit = bits[text] = 1 << len(bits)
    return bit


def _found(node: EqNode, est_size: float) -> int:
    """`node`'s id, once `est_size` agrees with its estimate: every
    alternative of one equivalence class must yield the same size."""
    if node.est_size != est_size and not sizes_agree(node.est_size, est_size):
        raise DagError(f"signature collision with inconsistent est_size: "
                       f"{node.text!r} has {node.est_size!r} vs {est_size!r}")
    return node.id


def _new_eq(dag: Dag, key: Key, signature: Signature, est_size: float) -> int:
    node = EqNode(dag._next_eq, signature, float(est_size), signature_text(signature), key)
    dag._key_index[key] = node.id   # first: it raises in a `Dag.below` view
    dag.eq_nodes[node.id] = node
    dag._next_eq += 1
    return node.id


def intern_eq(dag: Dag, signature: Signature, est_size: float) -> int:
    """Return the eq-node for this canonical signature, found by its key
    and created if new, text and key built once.

    A signature collision with an inconsistent size estimate is an error:
    every alternative of one equivalence class must yield the same size.
    """
    key = _key(dag, signature, add=True)
    existing = dag._key_index.get(key)
    if existing is not None:
        return _found(dag.eq_nodes[existing], est_size)
    return _new_eq(dag, key, signature, est_size)


def attach_op(dag: Dag, kind: str, detail: str, children: tuple[int, ...],
              est_size: float, op_cost: float, factor: float | None = None) -> int:
    """Attach an operator over existing eq-nodes; returns the eq-node it
    produces.

    That eq-node is derived, not chosen: a join ORs its inputs' keys and
    its condition's bit, a unary op ORs its bit into its component, and a
    project goes through `extend_signature`, each after a check on the
    inputs' keys, with a DagError for an op that does not extend its inputs
    (a join of overlapping or projected inputs, a condition already
    applied; `extend_signature` refuses a project over a projected input).
    Signatures thus strictly grow along every op, so the memo stays acyclic
    and a walk down from any eq-node takes fewer steps than its signature
    has entries.  The eq-node is found by its key, its size checked as
    `intern_eq` checks it; only a new one builds its signature tuple and
    text.  Join ops take exactly two children (stored in canonical order,
    by their eq-nodes' `text`); every other kind takes one.  Attaching is
    idempotent: the same (kind, detail, children) maps to one op-node, found
    among the alternatives of the eq-node the key names, so an existing
    op-node returns that eq-node and writes nothing.  An estimate that
    overflowed (a non-finite `est_size` or `op_cost`) is a DagError.

    The checks run in one order, and a call that breaks two rules gets the
    first one's error: the kind, finiteness, each child's existence, the
    children's count, the signature rule, and last the size of an eq-node
    found by its key.  A join takes its own path and scans no list of
    kinds; a size is checked (`_found`) only where it differs from the
    eq-node's.
    """
    is_join = kind == KIND_JOIN
    if not is_join and kind not in UNARY_KINDS:
        raise DagError(f"unknown op kind {kind!r}")
    if not (math.isfinite(est_size) and math.isfinite(op_cost)):
        raise DagError(f"{kind} {detail!r}: estimate overflows "
                       f"(est_size {est_size!r}, op_cost {op_cost!r})")
    eq_nodes = dag.eq_nodes
    if is_join and len(children) == 2:   # each child looked up once
        left, right = children
        first, second = eq_nodes.get(left), eq_nodes.get(right)
        if first is None or second is None:
            raise DagError(f"dangling child eq-node {left if first is None else right}")
        if first.text > second.text:
            first, second, children = second, first, (right, left)
        else:
            children = left, right
    else:
        for child in children:
            if child not in eq_nodes:
                raise DagError(f"dangling child eq-node {child}")
        if is_join:
            raise DagError("join ops take exactly two children")
        if len(children) != 1:
            raise DagError(f"{kind} ops take exactly one child")
        first = eq_nodes[children[0]]
    bases, joins, unary, projection = first.key
    sig = None
    if is_join:
        bases2, joins2, unary2, projection2 = second.key
        if projection or projection2 or bases & bases2:
            raise DagError(f"join {detail!r} of {first.text!r} and "
                           f"{second.text!r}: inputs must be disjoint and unprojected")
        key = (bases | bases2, joins | joins2 | _bit(dag._bits[JOINS], detail), unary | unary2, ())
    elif kind == KIND_PROJECT:
        sig = extend_signature(first.signature, kind, detail)
        key = (bases, joins, unary, sig[3])
    else:
        is_filter = kind == KIND_JOINFILTER
        bit = _bit(dag._bits[JOINS if is_filter else UNARY], detail)
        if (joins if is_filter else unary) & bit:
            raise DagError(f"{kind} {detail!r} is already applied in {first.text!r}")
        key = ((bases, joins | bit, unary, projection) if is_filter
               else (bases, joins, unary | bit, projection))
    parent, op_nodes = dag._key_index.get(key), dag.op_nodes
    if parent is None:
        if sig is None:
            sig = (join_signature(first.signature, second.signature, detail)
                   if is_join else extend_signature(first.signature, kind, detail))
        parent = _new_eq(dag, key, sig, est_size)
    else:
        node = eq_nodes[parent]
        if node.est_size != est_size:
            _found(node, est_size)
        for op_id in node.child_ops:   # the op-node, if the eq-node holds it
            op = op_nodes[op_id]
            if op.children == children and op.detail == detail and op.kind == kind:
                return parent
    # the fields in order, without the argument handling of OpNode's __new__
    op = tuple.__new__(OpNode, (dag._next_op, kind, detail, children, float(op_cost), factor))
    op_nodes[op.id] = op   # first: it raises in a `Dag.view`
    dag._next_op += 1
    eq_nodes[parent].child_ops.append(op.id)
    return parent


def register_root(dag: Dag, query_id: str, eq_id: int) -> None:
    if eq_id not in dag.eq_nodes:
        raise DagError(f"cannot register unknown eq-node {eq_id} as a root")
    dag.query_roots[query_id] = eq_id


def ensure_base(dag: Dag, relation: str, cardinality: float) -> int:
    return intern_eq(dag, base_signature(relation), cardinality)


def merge_below(dst: Dag, src: Dag, root: int) -> int:
    """Copy every eq-node and op-node of `src` below `root` into `dst`,
    inputs first (`topological_order` below `root`, reversed), by
    `ensure_base` and `attach_op`, so a node `dst` already holds is found,
    not copied again; returns `dst`'s eq-node for `root`.  Each eq-node keeps
    its `est_size` and each op-node its `op_cost` and `factor` as stored.
    `src` is not changed, and nothing recurses, so any depth works."""
    ids: dict[int, int] = {}
    for eq_id in reversed(topological_order(src, root)):
        node = src.eq_nodes[eq_id]
        if node.is_base:
            ids[eq_id] = ensure_base(dst, node.signature[0][0], node.est_size)
        for op_id in node.child_ops:
            op = src.op_nodes[op_id]
            ids[eq_id] = attach_op(dst, op.kind, op.detail, tuple([ids[c] for c in op.children]),
                                   node.est_size, op.op_cost, op.factor)
    return ids[root]


# -- counting -------------------------------------------------------------

def topological_order(dag: Dag, root: int | None = None) -> list[int]:
    """Every eq-node of `dag`, or every one `reachable` from `root`, after
    all of its consumers: by the number of entries in its signature (bases,
    applied joins and unary ops, and one for a projection), largest first,
    ties by id.  `attach_op` holds every op-node's signature to more
    entries than each input's, so the order needs no walk and any depth
    works.  Eq-node ids alone are not topological: interning a plan can
    hang a new, higher-id child under an existing parent.
    """
    nodes = dag.eq_nodes if root is None else reachable(dag, root)

    def entries(eq_id: int) -> int:
        bases, joins, unary, projection = nodes[eq_id].signature
        return len(bases) + len(joins) + len(unary) + (1 if projection else 0)

    return sorted(sorted(nodes), key=entries, reverse=True)


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


def export_dot(dag: Dag) -> str:
    """Deterministic DOT text: eq-nodes as ellipses, op-nodes as boxes."""
    lines = ["digraph andor_dag {", "  rankdir=BT;"]
    for eq_id in sorted(dag.eq_nodes):
        node = dag.eq_nodes[eq_id]
        label = _dot_escape(node.text) + f"\\nsize={node.est_size:.6g}"
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
