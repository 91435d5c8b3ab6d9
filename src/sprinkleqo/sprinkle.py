"""Placement of non-join operators over join-order plans.

Each block (a query without its subquery) runs two stages over its join
dag:

  place     the selects, the group-by with its having, and the order-by,
            placed on each join plan by one exact DP, whose ties it emits
            into a fresh memo (`sprinkle_selects`)
  projects  one projection above each query root (single query), or
            per-eq-node projections of the attributes every consumer
            needs (multi-query mode)

The place stage searches every join plan; each select anywhere on its
relation's leaf-to-root path; one group-by (its having directly above it)
on top of the select stack of a node that covers the grouping relations and
holds every select on its own relations, a landing; and one order-by on top
of the stack of a node that covers the order relations outside the
group-by's subtree (above the having at the landing).  Selects on other
relations may sit above the group-by.  The optimum over that space is
exact, and never above the exhaustive baseline's, which places everything
at the root.  Because a landing changes the root's size, a grouped block
counts its retained root projection in what it minimizes.

The DP (`_Placement`) gives each select a bit in stacking rank
(`_stack_key`: ssf, then text), bit i the select of rank i, and the
order-by the top bit: a size-neutral select with factor 1 on top of any
stack it is in, which may sit at or below a node only if the node covers
its relations.  Sizes depend only on which bits sit below, so a DP over
(node, subset of bits at or below it) is exact.  Every list of sets it
walks, in increasing order, comes from one table (`_Placement.sets`).  A
landing changes every size above it, so each landing runs its own pass over
the nodes over its relations, with the selects on them fixed below; only
landings whose bound (`_Placement.bound`, read from the plain cell) can
reach the optimum get one, and a landing's cell is built for that pass
alone.  The DP runs once per block, over the memo (`_select_floors`), an
eq-node's op-nodes its alternatives, and keeps one cell per node it priced
(`_Cell`): the op-nodes its step read, whose input cells one map of the
pass gives by eq-node id, and its two tables, per set s at or below the
node: the output size (`size`) and the least cost (`best`), the least over
its alternatives, each priced by one rule (`_Placement.node`).  No cell
keeps a map.  Leaves, landings and op-nodes share one stacking rule
(`_Placement._stack`): selects stack in ascending rank (bit order), each
costing `costplan.unary_cost` of the size under it, optimal by the exchange
argument of predicate migration.  A state (cell, s) is one decorated
eq-node, and the stage emits its memo state by state (`_decorate_stage`):
from the root's state it walks down the cells, keeps each alternative of a
state (an op-node over its inputs' states, or one bit of s stacked on the
rest) that ties the state's DP least, and attaches each kept op-node once.

The plain pass reads what its history keeps (`joindag.HistoryDag`): the
join dag's inputs-first order, kept per root, and the price table, the cell
of each node where nothing may sit at or below it (no select on its base
relations, and not covering the order-by's).  Such a cell is the one the DP
gives a block with nothing to place (`_PLAIN`), tables at set 0 only: the
pass fills it by the same `leaf` or `node` step when first met in a history
version, and every later block, plain, grouped or ordered, shares it,
leaves too.  Where a node stands, whether it covers the order-by's or the
group-by's relations, is read from its eq-node's base relations, so no cell
carries it.  A cell above a landing always steps, for the landing changes
its sizes.  A block with nothing to place steps only to fill the table.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from . import costplan, joindag, memo, sqlfront
from .catalog import Catalog, view_relation, with_relation
from .costplan import Plan, op_plan
from .errors import DEFAULT_MAX_OPS, DagError, LimitExceededError, ValidationError
from .joindag import HistoryDag
from .memo import Dag, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY, KIND_PROJECT, KIND_SELECT
from .sqlfront import Query, SelectCondition, extract_join_set


# -- the placement DP ----------------------------------------------------------

def _stack_key(cond: SelectCondition) -> tuple[float, str]:
    return cond.ssf, cond.canonical()


class _Cell:
    """Placement tables of one plan node or memo eq-node (`eq`), and the
    op-nodes its DP step read (`ops`), whose input cells a map from child
    ids gives: a leaf has none, and a landing keeps instead the node's plain
    cell, under its group-by.  A cell of the price table is `_PLAIN`'s,
    with tables at set 0 only.  Lists are indexed by bit masks, bit i the
    select of rank i and the order-by the top bit; `u` is the set placed
    below the node's own operator, `s` the set placed at or below the node,
    and the DP reads both from `_Placement.sets`.  Sizes depend only on
    which bits sit at or below, so one table (`size`) serves both.
    `fixed`, the bits a group-by landing at or below it holds (a landing's
    one `u`), defaults to 0."""

    __slots__ = ("eq", "ops", "mask", "fixed", "size", "best")

    def __init__(self, mask: int, ops, width: int, fixed: int = 0):
        self.ops = ops
        self.mask = mask     # the bits that may sit at or below the node
        self.fixed = fixed   # the bits a group-by landing at or below it holds
        self.size = [0.0] * width        # output size, by the set at or below it
        self.best = [math.inf] * width   # least subtree cost, by s; inf if s is not in mask


class _Placement:
    """The placement DP of one block: its selects as bits in `_stack_key`
    rank, bit i the select of rank i, its order-by as the top bit, and its
    group-by; `projected` says that a group-by's root projection is
    retained.  Stacking order is ascending bit order."""

    def __init__(self, selects, *, order_by=(), group_by=(), having=None, d: float = 1.0,
                 projected: bool = False):
        self.selects = sorted(selects, key=_stack_key)
        n = len(self.selects)
        self.width = 1 << n + bool(order_by)
        self.ops = [(KIND_SELECT, cond.canonical(), cond.ssf) for cond in self.selects]
        self.on_relation: dict[str, int] = {}
        for i, cond in enumerate(self.selects):
            self.on_relation[cond.relation] = self.on_relation.get(cond.relation, 0) | 1 << i
        self.ordering = frozenset(item.relation for item in order_by)
        self.grouping = frozenset(r for r, _ in group_by)
        self.ob_bit = 1 << n if order_by else 0
        if order_by:   # a size-neutral select on top of any stack
            self.ops.append((KIND_ORDERBY, sqlfront.orderby_text(order_by), None))
        self.group = (group_by, d, having) if group_by else None
        self.projected = projected
        self.empty = self.width == 1 and self.group is None   # nothing to place

    def total(self, cost: float, size: float) -> float:
        """A plan's cost, plus its root projection's when a group-by varies it."""
        return cost + costplan.unary_cost(size) if self.projected else cost

    @staticmethod
    @functools.cache
    def sets(mask: int, fixed: int = 0) -> list[int]:
        """The submasks of `mask` that hold `fixed`, in increasing order: the
        DP's one table of sets, built per (mask, fixed) when first read and
        shared by every block.  Read it, never change it."""
        free = mask & ~fixed
        if not free:
            return [fixed]
        top = 1 << free.bit_length() - 1
        rest = _Placement.sets(mask & ~top, fixed)
        return rest + [s | top for s in rest]

    def _stack(self, cell: _Cell, fixed: int) -> _Cell:
        """The DP's one stacking rule: a stack on a node's output is optimal
        in ascending bit order, so each bit that may stack (not `fixed`) is
        stacked in that order on the best of the rest, over the sets that
        hold it, costing the unary cost of the size under it: O(bits *
        2**bits) per node, not the O(3**bits) of every U below every S."""
        best, size, mask, unary = cell.best, cell.size, cell.mask, costplan.unary_cost
        free = mask & ~fixed
        while free:
            bit = free & -free
            free ^= bit
            for s in self.sets(mask, fixed | bit):
                cost = best[s ^ bit] + unary(size[s ^ bit])
                if cost < best[s]:
                    best[s] = cost
        return cell

    def holds_order(self, relations) -> bool:
        """Whether a node over the base `relations` covers the order-by's
        relations, so that the order-by may sit at it.  A node that does
        not, with no select on its relations, is plain: nothing may sit at
        or below it."""
        return self.ob_bit != 0 and self.ordering.issubset(relations)

    def leaf(self, relation: str, size: float, ordered: bool) -> _Cell:
        """A base relation's tables: all its selects stack on it, and the
        order-by too if it is `ordered` (`holds_order`), each set's size its
        top bit's factor times the size of the rest."""
        cell = _Cell(self.on_relation.get(relation, 0) | (self.ob_bit if ordered else 0),
                     (), self.width)
        cell.size[0], cell.best[0] = size, 0.0
        sizes, ops = cell.size, self.ops
        for s in self.sets(cell.mask)[1:]:
            top = s.bit_length() - 1
            rest, factor = s ^ 1 << top, ops[top][2]
            # the order-by (factor None) is size-neutral
            sizes[s] = sizes[rest] if factor is None else float(factor) * sizes[rest]
        return self._stack(cell, 0)

    def node(self, ops, inputs, ordered: bool) -> _Cell:
        """The DP step: a node's tables from its op-nodes `ops`, which the
        cell keeps, each over the input cells `inputs` maps its children to;
        the order-by may sit at it if it is `ordered` (`holds_order`).  A
        join dag holds joins and size-scaling unary op-nodes (a joinfilter):
        a join over inputs of sizes a and b yields factor*a*b, a unary
        op-node over a factor*a, each costing its `costplan` cost.

        The first op-node gives the sizes, on which an eq-node's op-nodes
        agree up to rounding, and the same walk prices it, unless it is a
        join whose inputs do not hold every U below the node.  Over an
        op-node with U below it, a node costs the op over the children's
        sizes under U plus their best costs under U, and `best` at U is the
        least of that over the op-nodes whose inputs hold U (an order-by
        sits below an op-node only in an input that covers its relations).
        Every bit of S can sit below some op-node but an order-by that
        enters here, which is size-neutral, so `size` by U is the size by S
        too.  `best` then stacks S - U on the op's output (`_stack`), unless
        no bit may stack on it (its mask is `fixed`), as in every
        price-table cell.
        """
        op = ops[0]
        first, last = inputs[op.children[0]], inputs[op.children[-1]]   # a join's two, or one
        mask = first.mask | last.mask
        if self.ob_bit:   # without one, every op-node's inputs cover one relation set
            for other in ops[1:]:
                mask |= inputs[other.children[0]].mask | inputs[other.children[-1]].mask
        fixed = first.fixed | last.fixed
        cell = _Cell(mask | self.ob_bit if ordered else mask, ops, self.width, fixed)
        sets, join, unary = self.sets, costplan.join_cost, costplan.unary_cost
        below = sets(mask, fixed)   # every U below the op
        size, best = cell.size, cell.best
        factor, rest = float(op.factor), ops[1:]
        m1, m2, z1, z2 = first.mask, last.mask, first.size, last.size
        b1, b2 = first.best, last.best
        if len(op.children) == 1:   # `b1` is inf at every U its input cannot hold
            for u in below:
                a = z1[u]
                size[u] = factor * a
                best[u] = unary(a) + b1[u]
        elif m1 | m2 == mask:   # its inputs hold every U
            for u in below:
                t1, t2 = u & m1, u & m2
                a, b = z1[t1], z2[t2]
                size[u] = factor * a * b
                best[u] = join(a, b) + (b1[t1] + b2[t2])
        else:   # priced with the rest, over its inputs' sets
            for u in below:
                size[u] = factor * z1[u & m1] * z2[u & m2]
            rest = ops
        for op in rest:
            children = op.children
            if len(children) == 2:
                c1, c2 = inputs[children[0]], inputs[children[1]]
                m1, m2, z1, z2, b1, b2 = c1.mask, c2.mask, c1.size, c2.size, c1.best, c2.best
                for u in below if m1 | m2 == mask else sets(m1 | m2, fixed):
                    cost = join(z1[u & m1], z2[u & m2]) + (b1[u & m1] + b2[u & m2])
                    if cost < best[u]:
                        best[u] = cost
            else:
                c1 = inputs[children[0]]
                z1, b1, m1 = c1.size, c1.best, c1.mask
                for u in below if m1 == mask else sets(m1, fixed):
                    cost = unary(z1[u]) + b1[u]
                    if cost < best[u]:
                        best[u] = cost
        if cell.mask != mask:   # the order-by enters here: never below the op
            for u in below:
                size[u | self.ob_bit] = size[u]
        return cell if cell.mask == fixed else self._stack(cell, fixed)

    def _grouped(self, cell: _Cell) -> tuple[int, float, float]:
        """A landing over `cell`: its fixed set, and the cost and output size
        of the group-by and its having over `cell`'s output at that set."""
        fixed = cell.mask & ~self.ob_bit
        _, d, having = self.group
        cost, size = 0.0, cell.size[fixed]
        for kind, factor in [(KIND_GROUPBY, d)] + ([(KIND_HAVING, having.ssf)] if having else []):
            cost += costplan.op_cost(kind, (size,))
            size = costplan.estimate_size(kind, (size,), factor)
        return fixed, cost, size

    def landing(self, cell: _Cell) -> _Cell:
        """The group-by and its having, a unary node over the plain `cell`
        (kept as its `ops`; it has `best` at every S it can hold, a table cell
        at 0 alone) whose input holds every select on its relations, `fixed`
        from here up, and no order-by, which may stack on it."""
        fixed, cost, size = self._grouped(cell)
        out = _Cell(cell.mask, cell, self.width, fixed)
        out.best[fixed] = cost + cell.best[fixed]
        out.size[fixed] = out.size[cell.mask] = size
        return self._stack(out, fixed)

    def bound(self, cell: _Cell, flat: float) -> float:
        """A lower bound on every total with the group-by landed over the
        plain `cell`, read without building the landing, `flat` the least
        plain total: each op above it and the root projection cost at least
        r times their plain cost, r = its output over its input (at most 1),
        as a cost rises with each input and cost(r*a, b) >= r*cost(a, b)."""
        fixed, cost, out = self._grouped(cell)
        least, size = cost + cell.best[fixed], cell.size[fixed]
        if not (math.isfinite(flat) and size > 0):
            return least
        return max(least, min(1.0, out / size) * flat + cost)


_PLAIN = _Placement(())   # a block with nothing to place: its cells fill the price table


class _Pass(NamedTuple):
    """The tables of a block's one DP pass over its memo.  Every cell below
    `top` reads its inputs from `inputs`, as a plain cell reached from a
    tier has no input in that tier."""

    cells: dict[int, _Cell]                        # each eq-node's plain tables
    tiers: list[dict[int, _Cell]]                  # per landing priced, its tier's cells, it first
    top: _Cell                                     # the cell whose full set is the root's state
    inputs: dict[int, _Cell]                       # `cells`, or a copy with top's tier over it


# -- the place stage -----------------------------------------------------------

def _kept_alternatives(cell: _Cell, s: int, inputs: dict[int, _Cell]) -> list:
    """The alternatives of the state (cell, S) that cost at most
    memo.SIZE_RTOL above its DP `best`, each (what, input states), priced
    as the DP step prices them: an op-node of the cell whose inputs hold
    all of S, over its inputs at S, read from `inputs` (the map its pass
    read them from); a leaf's base relation at S = 0 (what None, no
    inputs); a landing's group-by at its fixed set, over its plain cell at
    that set (what None), each the one alternative of its state and so
    kept unpriced; and one bit i of S not fixed below a landing stacked on
    (cell, S - i) (what i).  The kept op-nodes come in `OpNode.sort_key`
    order, then the bits in ascending order.  Ascending-rank stacking is
    optimal, so the least of them is `best` and always kept.  A price-table
    cell is `_PLAIN`'s, as the pass filled it, and its inputs are table
    cells too, so its one state, S = 0, is read by the same rule from any
    map that holds them."""
    budget, kept, ops = memo.within_rounding(cell.best[s]), [], cell.ops
    join, unary = costplan.join_cost, costplan.unary_cost
    if type(ops) is _Cell:   # a landing: its group-by and having over its plain cell
        if s == cell.fixed:
            kept.append((None, ((ops, s),)))
    elif not ops:   # a leaf
        if not s:
            kept.append((None, ()))
    else:
        for op in ops:
            children = op.children
            k1, k2 = inputs[children[0]], inputs[children[-1]]
            if s & ~(k1.mask | k2.mask):   # an order-by its inputs cannot hold
                continue
            if len(children) == 2:
                t1, t2 = s & k1.mask, s & k2.mask
                if join(k1.size[t1], k2.size[t2]) + (k1.best[t1] + k2.best[t2]) <= budget:
                    kept.append((op, ((k1, t1), (k2, t2))))
            elif unary(k1.size[s]) + k1.best[s] <= budget:
                kept.append((op, ((k1, s),)))
        kept.sort(key=lambda alt: alt[0].sort_key())
    free = s & ~cell.fixed
    for i in range(free.bit_length()):
        if free >> i & 1:
            t = s ^ 1 << i
            if cell.best[t] + unary(cell.size[t]) <= budget:
                kept.append((i, ((cell, t),)))
    return kept


def _decorate_stage(dag: Dag, dp: _Placement, passed: _Pass) -> Dag:
    """Run the place stage over the dag's one registered root, from the
    tables of the block's DP pass, into a fresh memo: one walk over DP
    states, from the full set of the pass's `top`, which the root's query
    id registers.  A state (cell, S) is one decorated eq-node.  The walk
    keeps every alternative of a state within memo.SIZE_RTOL of the state's
    DP `best` (`_kept_alternatives`, each op-node's inputs read from the
    pass's `inputs`) and attaches each once, after its
    inputs, which it visits left to right.  Every op-node is sized and
    costed from its inputs in the fresh memo (`costplan.intern_op`), but a
    block with nothing to place attaches the memo's own sizes and costs.
    The walk keeps its own stack, so any depth works."""
    fresh, eq_nodes, ops = Dag(), dag.eq_nodes, dp.ops
    ids: dict[tuple[_Cell, int], int] = {}        # each state attached -> its eq-node
    kept: dict[tuple[_Cell, int], list] = {}      # each state visited -> its kept alternatives
    (query_id,) = dag.query_roots
    top, cells = (passed.top, dp.width - 1), passed.inputs
    stack = [top]
    while stack:
        state = stack[-1]
        if state in ids:
            stack.pop()
            continue
        if state not in kept:   # first visit: its inputs go first
            kept[state] = _kept_alternatives(*state, cells)
            stack += reversed([x for _, inputs in kept[state] for x in inputs if x not in ids])
            continue
        stack.pop()
        node = eq_nodes[state[0].eq]
        for what, inputs in kept.pop(state):
            children = tuple([ids[x] for x in inputs])
            if what is None and not children:
                eq = memo.ensure_base(fresh, node.signature[0][0], node.est_size)
            elif what is None:   # the group-by names its input's signature
                group_by, d, having = dp.group
                eq = costplan.intern_op(fresh, KIND_GROUPBY, sqlfront.groupby_text(
                    group_by, fresh.eq_nodes[children[0]].text), children, d)
                if having is not None:
                    eq = costplan.intern_op(fresh, KIND_HAVING, having.canonical(), (eq,),
                                            having.ssf)
            elif type(what) is int:
                kind, detail, factor = ops[what]
                eq = costplan.intern_op(fresh, kind, detail, children, factor)
            elif dp.empty:   # the memo's own plans
                eq = memo.attach_op(fresh, what.kind, what.detail, children, node.est_size,
                                    what.op_cost, what.factor)
            else:
                eq = costplan.intern_op(fresh, what.kind, what.detail, children, what.factor)
        ids[state] = eq
    memo.register_root(fresh, query_id, ids[top])
    return fresh


def _select_floors(dag: Dag, dp: _Placement) -> _Pass:
    """The block's one DP pass: `dp` over the memo below the dag's one
    registered root, an eq-node's op-nodes its alternatives, plain and per
    landing (an eq-node whose base relations cover the grouping relations)
    above it, in increasing `_Placement.bound` up to one that the root's
    optimum cannot reach.  Its cells are kept for `_decorate_stage`, which
    reads every cell at every set it holds.  The optimum is the root's
    least `dp.total` at the full set: its least decorated cost, exactly.  A
    landing's tier is its cell and the cells of the eq-nodes after it with
    an op-node over the tier (all over its base relations, the only nodes
    it visits), each reading its inputs from a copy of the plain cells with
    the tier's over them.  The pass's `top` is the root's plain cell,
    or with a group-by the root cell of a tier within memo.SIZE_RTOL of the
    optimum: of those, the one whose landing is nearest the root, the
    latest in the inputs-first order, which sorts by signature entries, and
    of landings with as many entries the one of least text, so that no
    eq-node id decides.  The plain pass reads the join dag's kept
    inputs-first order (the memo's order for a dag that carries none) and
    its price table (`joindag.HistoryDag.prices`; an empty dict for a dag
    that carries none): an eq-node with no select on its base relations
    and not covering the order-by's takes the table's cell, which it fills
    on a miss by `_PLAIN`'s step over the input cells it holds."""
    table = dag.prices if dag.prices is not None else {}
    order = dag.order if dag.order is not None else memo.topological_order(dag)[::-1]
    eq_nodes, op_nodes, cells, holds_order = dag.eq_nodes, dag.op_nodes, {}, dp.holds_order
    selected = dp.on_relation.keys()
    for eq_id in order:
        node = eq_nodes[eq_id]
        bases = node.signature[0]
        ordered = holds_order(bases)
        if ordered or not selected.isdisjoint(bases):
            step = dp
        elif eq_id in table:
            cells[eq_id] = table[eq_id]
            continue
        else:
            step = _PLAIN
        if node.child_ops:
            cell = step.node(list(map(op_nodes.__getitem__, node.child_ops)), cells, ordered)
        else:   # a base
            cell = step.leaf(bases[0], node.est_size, ordered)
        if step is _PLAIN:
            table[eq_id] = cell
        cells[eq_id], cell.eq = cell, eq_id
    (root,), full = dag.query_roots.values(), dp.width - 1
    if dp.group is None:
        return _Pass(cells, [], cells[root], cells)
    flat = dp.total(cells[root].best[full], cells[root].size[full])
    landings = sorted((dp.bound(cells[eq_id], flat), i) for i, eq_id in enumerate(order)
                      if dp.grouping.issubset(eq_nodes[eq_id].signature[0]))
    optimum, tiers, priced = math.inf, [], []   # priced: each tier's root total and map
    for bound, i in landings:
        if bound > memo.within_rounding(optimum):
            break
        landing = order[i]
        landed = dp.landing(cells[landing])
        landed.eq, bits = landing, eq_nodes[landing].key[0]
        tier, inputs = {landing: landed}, {**cells, landing: landed}
        for up in order[i + 1:]:   # the eq-nodes above it, inputs first
            node = eq_nodes[up]
            if node.key[0] & bits != bits:   # not over the landing's relations
                continue
            ops = [op for op in map(op_nodes.__getitem__, node.child_ops)
                   if op.children[0] in tier or op.children[-1] in tier]
            if ops:
                tier[up] = inputs[up] = dp.node(ops, inputs, holds_order(node.signature[0]))
                tier[up].eq = up
        tiers.append(tier)
        priced.append((dp.total(tier[root].best[full], tier[root].size[full]), inputs))
        optimum = min(optimum, priced[-1][0])
    budget = memo.within_rounding(optimum)

    def nearness(k: int) -> tuple[int, str]:
        node = eq_nodes[next(iter(tiers[k]))]   # a tier's landing comes first
        return -len(node.signature[0]) - len(node.signature[1]), node.text

    k = min((k for k, (total, _) in enumerate(priced) if total <= budget), key=nearness)
    return _Pass(cells, tiers, tiers[k][root], priced[k][1])


def _block_placement(query: Query, catalog: Catalog, retained: set[str]) -> _Placement:
    """The placement DP of one block, counting a grouped root's projection
    when `sprinkle_projects` will retain it (`retained`, its output attrs)."""
    if query.having is not None and not query.group_by:
        raise ValidationError("having without group-by")
    group_by = tuple(sorted(query.group_by))
    return _Placement(query.selects, order_by=tuple(query.order_by), group_by=group_by,
                      having=query.having, d=sqlfront.groupby_distinct_product(group_by, catalog),
                      projected=bool(group_by and retained)
                      and retained != sqlfront.all_query_attrs(query, catalog))


def sprinkle_selects(jd: Dag, query: Query, catalog: Catalog, retained: set[str]) -> Dag:
    """The place stage of one block over a join dag that registers one root
    and holds only the nodes below it (as `extract_query_joindag` gives):
    its selects, group-by with its having, and order-by, placed on the join
    plans that can tie its optimum, `retained` its `sqlfront.output_attrs`.
    Returns the stage's dag.  A join dag with no root, or more than one, is
    a DagError."""
    for cond in query.selects:
        catalog.relation(cond.relation)
    if len(jd.query_roots) != 1:
        raise DagError(f"a block's join dag registers one root, not {len(jd.query_roots)}")
    ((query_id, root),) = jd.query_roots.items()
    bases = set(jd.eq_nodes[root].signature[0])
    for cond in query.selects:
        if cond.relation not in bases:
            raise ValidationError(f"select on {cond.relation!r} but query "
                                  f"{query_id!r} covers {sorted(bases)}")
    dp = _block_placement(query, catalog, retained)
    return _decorate_stage(jd, dp, _select_floors(jd, dp))


# -- projections -------------------------------------------------------------

_REF_TOKEN = re.compile(r"[a-z_][a-z0-9_]*\.[a-z_][a-z0-9_]*")


def _op_refs(kind: str, detail: str) -> set[str]:
    """Qualified attributes an operator's predicate text mentions."""
    if kind == KIND_GROUPBY:   # not the landing `sqlfront.groupby_text` names
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


def sprinkle_projects(dag: Dag, outputs: dict[str, set[str]], catalog: Catalog) -> Dag:
    """Attach projections to `dag` itself and return it: one root projection
    per query id of `outputs`, to its `sqlfront.output_attrs`, and in
    multi-query mode one above every eq-node that carries more attributes
    than its consumers need (materialization candidates).  `optimize_single`
    passes the place stage's fresh dag, and `optimize_many` its shared dag."""
    for query_id, retained in outputs.items():
        root = dag.query_roots[query_id]
        available = _available_attrs(dag, root, catalog)
        unresolved = retained - available
        if unresolved:
            raise ValidationError(
                f"output attributes not derivable at the root: {sorted(unresolved)}")
        if not retained or retained == available:
            continue
        memo.register_root(dag, query_id, costplan.intern_op(
            dag, KIND_PROJECT, sqlfront.project_text(retained), (root,)))

    if len(outputs) > 1:
        roots = {qid: dag.query_roots[qid] for qid in outputs}
        needed = _needed_attrs(dag, roots, outputs, catalog)
        for eq_id in sorted(needed):
            node = dag.eq_nodes[eq_id]
            if node.is_base or node.signature[3]:
                continue
            avail = _available_attrs(dag, eq_id, catalog)
            keep = needed[eq_id]
            if not keep or keep == avail:
                continue
            costplan.intern_op(dag, KIND_PROJECT, sqlfront.project_text(keep), (eq_id,))
    return dag


# -- orchestration -----------------------------------------------------------

@dataclass
class OptimizeResult:
    """Everything one optimization run produced; `jd` is the block's join
    dag (of the outer block, for a nested query)."""

    query_id: str
    plan: Plan
    dag: Dag
    history: HistoryDag | None
    combinations_considered: int
    jd: Dag
    inner: "OptimizeResult | None" = None


def extract_query_joindag(history: HistoryDag, query: Query, catalog: Catalog,
                          query_id: str) -> Dag:
    """Join dag for one query: the history subgraph reachable from the
    query's full-join node, read in place under the history's ids
    (`Dag.below`), with the query root registered on the view alone and
    the history's registry and key index untouched.  No operator is derived
    again, and no node is copied."""
    if not query.joins:
        out = Dag()
        (rel,) = query.tables
        root = memo.ensure_base(out, rel, float(catalog.relation(rel).cardinality))
    else:
        join_texts = tuple(sorted(j.canonical() for j in extract_join_set(query)))
        root = joindag.query_join_root(history, query.tables, join_texts)
        out = history.below(root)
    memo.register_root(out, query_id, root)
    return out


def optimize_single(query: Query, catalog: Catalog, *,
                    history: HistoryDag | None = None, limit: int = DEFAULT_MAX_OPS,
                    query_id: str = "q1") -> OptimizeResult:
    """Full pipeline for one query: reuse (or grow) the join-order history
    by the block's join set, then run the place and projects stages.
    `limit` bounds the joins and, as the placement DP grows as s * 2**s per
    node, the selects of each block.  Only the block's own joins count, and
    only when the history lacks its join set: a block whose join set the
    history holds runs whatever its number of joins.  The block's join dag
    is the grown history below its full-join node, read in place, whether
    that history was built for this block alone or already held its joins."""
    if query.subquery is not None:
        return _optimize_nested(query, catalog, history=history, limit=limit,
                                query_id=query_id)
    if len(query.selects) > limit:
        raise LimitExceededError("select placement", len(query.selects), limit)
    joins = extract_join_set(query)
    base_history = history if history is not None else joindag.empty_history(catalog)
    grown = joindag.build_incremental(base_history, joins, catalog, limit)
    jd = extract_query_joindag(grown, query, catalog, query_id)
    out = {query_id: sqlfront.output_attrs(query, catalog)}
    dag = sprinkle_projects(sprinkle_selects(jd, query, catalog, out[query_id]), out, catalog)
    plan = costplan.best_plan(dag, dag.query_roots[query_id])
    return OptimizeResult(query_id=query_id, plan=plan, dag=dag, history=grown,
                          combinations_considered=joindag.combinations_considered(len(joins)),
                          jd=jd)


def _splice_plan(plan: Plan, alias: str, inner: Plan) -> Plan:
    """`plan` with its base relation `alias` replaced by `inner`, each
    operator priced again over its new inputs (`op_plan`), inputs first
    (`costplan.inputs_first`), so any depth works."""
    spliced: dict[int, Plan] = {}   # the id of each node of `plan` -> its new node
    for node in costplan.inputs_first(plan):
        spliced[id(node)] = ((inner if node.relation == alias else node) if node.kind == "base"
                             else op_plan(node.kind, node.detail,
                                          tuple([spliced[id(c)] for c in node.children]),
                                          node.factor))
    return spliced[id(plan)]


def _optimize_nested(query: Query, catalog: Catalog, *,
                     history: HistoryDag | None, limit: int,
                     query_id: str) -> OptimizeResult:
    """Two-level query: optimize the inner block first, expose its result as
    a view relation, optimize the outer block over it, then splice the plans."""
    sub = query.subquery
    inner_res = optimize_single(sub.query, catalog, history=history, limit=limit,
                                query_id=f"{query_id}.inner")
    outer_catalog = with_relation(catalog, view_relation(
        catalog, sub.alias, sub.column_sources, inner_res.plan.est_size))
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
    outer_res = optimize_single(outer_query, outer_catalog, history=None, limit=limit,
                                query_id=query_id)
    plan = _splice_plan(outer_res.plan, sub.alias, inner_res.plan)
    return OptimizeResult(
        query_id=query_id, plan=plan, dag=outer_res.dag, history=inner_res.history,
        combinations_considered=(outer_res.combinations_considered
                                 + inner_res.combinations_considered),
        jd=outer_res.jd, inner=inner_res)


def optimize_many(queries: list[tuple[str, Query]], catalog: Catalog, *,
                  history: HistoryDag | None = None,
                  limit: int = DEFAULT_MAX_OPS) -> tuple[Dag, dict[str, Plan], HistoryDag]:
    """Optimize several queries into one shared dag: each query alone, in
    query-id order, its result dag then merged node for node
    (`memo.merge_below`), so common subplans merge, with projections
    widened to the union of the queries' needs.  A repeated query id is a
    ValidationError."""
    ordered = sorted(queries, key=lambda pair: pair[0])
    for (query_id, _), (next_id, _) in zip(ordered, ordered[1:]):
        if query_id == next_id:
            raise ValidationError(f"query id {query_id!r} is repeated in multi-query mode")
    grown = history if history is not None else joindag.empty_history(catalog)
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
        dag = results[query_id].dag
        memo.register_root(shared, query_id,
                           memo.merge_below(shared, dag, dag.query_roots[query_id]))
    sprinkle_projects(shared, {qid: sqlfront.output_attrs(q, catalog) for qid, q in ordered},
                      catalog)
    plans = {qid: costplan.best_plan(shared, shared.query_roots[qid])
             for qid, _ in queries}
    return shared, plans, grown
