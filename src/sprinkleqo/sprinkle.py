"""Placement of non-join operators over join-order plans.

Each block (a query without its subquery) runs two stages over its join
dag, each interning the plans it decorates into a fresh memo:

  place     the selects, the group-by with its having, and the order-by,
            placed on each join plan by one exact DP (`sprinkle_selects`)
  projects  one projection above each query root (single query), or
            per-eq-node projections of the attributes every consumer
            needs (multi-query mode)

The place stage searches every join plan; each select anywhere on its
relation's leaf-to-root path; one group-by (its having directly above it)
on top of the select stack of a node that covers the grouping relations and
holds every select on its own relations, a landing; and one order-by on top
of the stack of a node that covers the order relations, outside the
group-by's subtree (above the having at the landing).  Selects on other
relations may sit above the group-by.  The optimum over that space is
exact, and never above the exhaustive baseline's, which places everything
at the root.  Because a landing changes the root's size, a grouped block
counts its retained root projection in what it minimizes.

The DP (`_Placement`) gives each select a bit, and the order-by one more: a
size-neutral select with factor 1 on top of any stack it is in, which may
sit at or below a node only if the node covers its relations.  Sizes depend
only on which bits sit below, so a DP over (node, subset of bits at or
below it) is exact.  A landing changes every size above it, so each landing
runs its own pass over the nodes above it, with the selects on its
relations fixed below; only landings whose bound (`_Placement.bound`) can
reach the optimum get one.  The DP step (`_Placement.node`) runs over one
plan (`place_selects_on_plan`), whose near-optimal placements are then
enumerated and built, and over the memo (`_select_floors`), where an
eq-node's alternatives are its op-nodes.  The memo's floors are exact at a
query root, so the stage's lazy walk (`costplan.plans_within`) starts at
the block's optimum: it builds, decorates and keeps only the plans that
tie it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass

from . import costplan, joindag, memo, sqlfront
from .catalog import Attribute, Catalog, Relation
from .costplan import Plan, op_plan
from .errors import DagError, LimitExceededError, ValidationError
from .joindag import HistoryDag
from .memo import Dag, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY, KIND_PROJECT, KIND_SELECT
from .sqlfront import Query, SelectCondition, extract_join_set


# -- the placement DP ----------------------------------------------------------

def _stack_key(cond: SelectCondition) -> tuple[float, str]:
    return cond.ssf, cond.canonical()


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
    by bit masks; `u` is the set placed below the node's own operator, `s`
    the set placed at or below the node.  Only a block with a group-by or
    an order-by sets `rels`, its grouping and ordering relations as bits,
    and `fixed`, the bits a group-by landing at or below it holds."""

    __slots__ = ("mask", "cmask", "fixed", "rels", "local", "pre", "below", "best",
                 "out", "own")

    def __init__(self, mask: int, width: int):
        self.mask = mask                 # the bits that may sit at or below the node
        self.cmask = mask                # the bits that may sit below its operator
        self.local = [0.0] * width       # the node's own operator cost, by u
        self.pre = [0.0] * width         # output size before its select stack, by u
        self.below = [0.0] * width       # least cost of the children, by u
        self.best = [math.inf] * width   # least subtree cost, by s; inf if s is not in mask
        self.out = self.pre              # output size after its select stack, by s (leaves replace it)


class _Placement:
    """The placement DP of one block: its selects as bits in canonical
    order, its order-by as one more bit, and its group-by; `projected` says
    that a group-by's root projection is retained."""

    def __init__(self, selects, *, order_by=(), group_by=(), having=None, d: float = 1.0,
                 projected: bool = False):
        self.ordered = sorted(selects, key=lambda s: (s.canonical(),))
        n = len(self.ordered)
        self.subsets = _subsets(n + bool(order_by))
        self.width = len(self.subsets)
        self.stack_cost, self.stack_size = _stack_factors(self.ordered)
        self.ops = [(KIND_SELECT, cond.canonical(), cond.ssf) for cond in self.ordered]
        self.stacking = sorted(range(n), key=lambda i: _stack_key(self.ordered[i]))
        self.on_relation: dict[str, int] = {}
        for i, cond in enumerate(self.ordered):
            self.on_relation[cond.relation] = self.on_relation.get(cond.relation, 0) | 1 << i
        ordering, grouping = {item.relation for item in order_by}, {r for r, _ in group_by}
        self.rel_bits = {r: 1 << i for i, r in enumerate(sorted(ordering | grouping))}
        self.ob_rels = sum(map(self.rel_bits.__getitem__, ordering))
        self.gb_rels = sum(map(self.rel_bits.__getitem__, grouping))
        self.ob_bit = 1 << n if order_by else 0
        if order_by:   # a size-neutral select on top of any stack
            self.ops.append((KIND_ORDERBY, sqlfront.orderby_text(order_by), None))
            self.stacking.append(n)
            self.stack_cost += [c + z for c, z in zip(self.stack_cost, self.stack_size)]
            self.stack_size += self.stack_size
        self.group = (group_by, d, having) if group_by else None
        self.projected = projected
        self._fixing: dict[int, list[list[int]]] = {}

    def total(self, cost: float, size: float) -> float:
        """A plan's cost, plus its root projection's when a group-by varies it."""
        return cost + size if self.projected else cost

    def fixing(self, fixed: int) -> list[list[int]]:
        """`subsets` cut to the submasks that hold a landing's `fixed` bits."""
        if fixed not in self._fixing:
            self._fixing[fixed] = [[v | fixed for v in self.subsets[m & ~fixed]]
                                   for m in range(self.width)]
        return self._fixing[fixed]

    def leaf(self, relation: str, size: float) -> _Cell:
        """A base relation's tables: all its selects stack on it."""
        cell = _Cell(self.on_relation.get(relation, 0), self.width)
        cell.cmask, cell.pre[0], cell.out = 0, size, [0.0] * self.width
        if self.rel_bits:   # a group-by or an order-by: where the leaf stands
            cell.rels, cell.fixed = self.rel_bits.get(relation, 0), 0
            if cell.rels & self.ob_rels == self.ob_rels:
                cell.mask |= self.ob_bit
        for s in self.subsets[cell.mask]:
            cell.best[s], cell.out[s] = size * self.stack_cost[s], size * self.stack_size[s]
        return cell

    def node(self, alternatives, all_s: bool = True) -> _Cell:
        """The DP step: a node's tables from its alternatives, each (kind,
        factor, child cells).

        Over an alternative with U below it, a node costs `local` (the op
        over the children's sizes under U) plus `below` (the children's best
        costs under U) plus the stack of S - U on the op's output, so the DP
        is exact in O(nodes * 3**bits).  Per U the least local + below wins,
        the first alternative on ties; the first also gives the sizes, on
        which an eq-node's op-nodes agree up to rounding.  Every bit of S can
        sit below the op but an order-by that enters here, which is
        size-neutral, so `out` is `pre`.  Unless `all_s`, `best` is filled
        only at S = mask, all that a node no op consumes needs.
        """
        (kind, factor, children), *rest = alternatives
        first, last = children[0], children[-1]   # a join's two inputs, or a unary op's one
        cmask = mask = first.mask | last.mask
        cell = _Cell(mask, self.width)
        subsets = self.subsets
        if self.rel_bits:   # a group-by or an order-by: where the node stands
            cell.rels, cell.fixed = first.rels | last.rels, first.fixed | last.fixed
            if cell.fixed:
                subsets = self.fixing(cell.fixed)
            if cell.rels & self.ob_rels == self.ob_rels:
                mask = cell.mask = mask | self.ob_bit
        local, pre, below, best = cell.local, cell.pre, cell.below, cell.best
        total = [0.0] * self.width   # local + below, by u
        stack_cost = self.stack_cost
        op_cost, estimate_size = costplan.op_cost, costplan.estimate_size
        if len(children) == 2:   # a join; the first alternative sets every u
            m1, m2, z1, z2, b1, b2 = first.mask, last.mask, first.out, last.out, first.best, last.best
            for u in subsets[cmask]:
                sizes = (z1[u & m1], z2[u & m2])
                local[u] = cost = op_cost(kind, sizes)
                pre[u] = estimate_size(kind, sizes, factor)
                below[u] = kids = b1[u & m1] + b2[u & m2]
                total[u] = cost + kids
        else:
            z1, b1 = first.out, first.best
            for u in subsets[cmask]:
                sizes = (z1[u],)
                local[u] = cost = op_cost(kind, sizes)
                pre[u] = estimate_size(kind, sizes, factor)
                below[u] = b1[u]
                total[u] = cost + b1[u]
        cell.own = own = [cost]   # each alternative's `local` at u = cmask, the last u
        for kind, factor, children in rest:   # each later one only where it is cheaper
            if len(children) == 2:
                c1, c2 = children
                m1, m2, z1, z2, b1, b2 = c1.mask, c2.mask, c1.out, c2.out, c1.best, c2.best
                for u in subsets[cmask]:
                    cost = op_cost(kind, (z1[u & m1], z2[u & m2]))
                    kids = b1[u & m1] + b2[u & m2]
                    if cost + kids < total[u]:
                        local[u], below[u], total[u] = cost, kids, cost + kids
            else:
                z1, b1 = children[0].out, children[0].best
                for u in subsets[cmask]:
                    cost = op_cost(kind, (z1[u],))
                    if cost + b1[u] < total[u]:
                        local[u], below[u], total[u] = cost, b1[u], cost + b1[u]
            own.append(cost)
        if mask != cmask:   # the order-by enters here: never below the op
            for u in subsets[cmask]:
                pre[u | self.ob_bit], total[u | self.ob_bit] = pre[u], math.inf
        for s in subsets[mask] if all_s else (mask,):
            least = math.inf
            for u in subsets[s]:
                cost = total[u] + pre[u] * stack_cost[s ^ u]
                if cost < least:
                    least = cost
            best[s] = least
        return cell

    def landing(self, cell: _Cell) -> _Cell:
        """The group-by and its having, a unary node over `cell` (which has
        `best` at every S) whose input holds every select on its relations,
        `fixed` from here up, and no order-by, which may stack on it."""
        fixed = cell.mask & ~self.ob_bit
        _, d, having = self.group
        out = _Cell(cell.mask, self.width)
        out.cmask, out.fixed, out.rels, out.below[fixed] = fixed, fixed, cell.rels, cell.best[fixed]
        cost, size = 0.0, cell.out[fixed]
        for kind, factor in [(KIND_GROUPBY, d)] + ([(KIND_HAVING, having.ssf)] if having else []):
            cost += costplan.op_cost(kind, (size,))
            size = costplan.estimate_size(kind, (size,), factor)
        out.local[fixed] = cost
        for s in (fixed, cell.mask):
            out.pre[s], out.best[s] = size, cost + cell.best[fixed] + size * self.stack_cost[s ^ fixed]
        return out

    def bound(self, cell: _Cell, landed: _Cell, flat: float) -> float:
        """A lower bound on every total with the group-by `landed` over
        `cell`, `flat` the least plain total: each op above it and the root
        projection cost at least r times their plain cost, r = its output
        over its input (at most 1)."""
        fixed, size = landed.cmask, cell.out[landed.cmask]
        least = min(landed.best)
        if not (math.isfinite(flat) and size > 0):
            return least
        return max(least, min(1.0, landed.pre[fixed] / size) * flat + landed.local[fixed])

    def group_on(self, target: Plan) -> Plan:   # the group-by scoped to its input, and its having
        group_by, d, having = self.group
        out = op_plan(KIND_GROUPBY, sqlfront.groupby_text(group_by, memo.signature_text(
            costplan.plan_signature(target))), (target,), d)
        return out if having is None else op_plan(KIND_HAVING, having.canonical(), (out,),
                                                  having.ssf)


def place_selects_on_plan(plan: Plan, selects, *, dp: _Placement | None = None,
                          limit: float = math.inf) -> Plan | None:
    """Minimum-cost joint placement of a block's selects, group-by and
    order-by onto one plan (of `selects` alone without `dp`, the block's DP).

    The DP finds the least cost without building plans, once per landing
    in increasing `_Placement.bound`, up to a bound above the least cost
    so far or `limit` (within memo.SIZE_RTOL); None if none is below, and
    the unlimited result if the least cost is within `limit`.  The
    placements within memo.SIZE_RTOL of it are then enumerated and each
    is built as it is enumerated, bottom-up, because the DP and a built plan
    add in different orders.  The first cheapest built plan wins, landings
    root first and then in product order (bits in canonical order, each
    path root-first), so cost ties prefer positions nearer the root.
    """
    if dp is None:
        dp = _Placement(selects)
    if dp.width == 1 and dp.group is None:
        return plan
    subsets, stack_cost, ops, stacking = dp.subsets, dp.stack_cost, dp.ops, dp.stacking

    def build(node: Plan, all_s: bool):
        """The tree (cell, node, children) of the plan's DP cells."""
        if node.kind == "base":
            return dp.leaf(node.relation, node.est_size), node, ()
        children = tuple(build(c, True) for c in node.children)
        cell = dp.node([(node.kind, node.factor, [c for c, _, _ in children])], all_s)
        return cell, node, children

    def placements(tree, depth: int, s: int, budget: float) -> list:
        """(DP cost, depth key, built plan) for every placement of `s` at or
        below the tree's node (None at a landing) costing no more than
        `budget`; key[i] is the depth of bit i, 0 for one outside `s`.  A
        non-finite cost is never above the budget, so such plans keep every
        placement."""
        cell, node, children = tree
        found = []
        for u in (dp.fixing(cell.fixed) if dp.group and cell.fixed else subsets)[s & cell.cmask]:
            here = cell.local[u] + cell.pre[u] * stack_cost[s ^ u]
            if here + cell.below[u] > budget:
                continue
            slack = budget - here - cell.below[u]   # what each child may spend above its best
            options = [placements(c, depth + 1, u & c[0].mask, c[0].best[u & c[0].mask] + slack)
                       for c in children]
            mine = [i for i in stacking if (s ^ u) >> i & 1]
            key = tuple(depth if i in mine else 0 for i in range(len(ops)))
            for combo in itertools.product(*options):
                cost = here + sum(c for c, _, _ in combo)
                if cost > budget:
                    continue
                if not children:
                    built = node
                elif node is None:
                    built = dp.group_on(combo[0][2])
                else:
                    built = op_plan(node.kind, node.detail, tuple(p for _, _, p in combo),
                                    node.factor)
                for i in mine:
                    built = op_plan(ops[i][0], ops[i][1], (built,), ops[i][2])
                found.append((cost, tuple(map(sum, zip(key, *(k for _, k, _ in combo)))), built))
        return found

    tree = build(plan, dp.group is not None)   # a landing at the root needs its every S
    for i, cond in enumerate(dp.ordered):
        if not tree[0].mask >> i & 1:
            raise DagError(f"relation {cond.relation!r} not a base of this plan")
    full = dp.width - 1
    total = lambda top: dp.total(top[0].best[full], top[0].out[full])   # noqa: E731
    tops = [(0, tree, total(tree))]   # (landing depth, the tree above it, its total)
    if dp.group is not None:
        path = [tree]   # the landings, root first
        while child := next((c for c in path[-1][2] if c[0].rels & dp.gb_rels == dp.gb_rels),
                            None):
            path.append(child)
        flat, landed = total(tree), [dp.landing(cell) for cell, _, _ in path]
        tops, least = [], limit
        for bound, k in sorted((dp.bound(path[k][0], landed[k], flat), k)
                               for k in range(len(path))):
            if bound > _within_rounding(least):
                break
            top = (landed[k], None, (path[k],))
            for above, below in zip(reversed(path[:k]), reversed(path[1:k + 1])):
                children = tuple(top if c is below else c for c in above[2])   # rebuilt
                top = (dp.node([(above[1].kind, above[1].factor, [c[0] for c in children])],
                               above is not tree), above[1], children)
            tops.append((k, top, total(top)))
            least = min(least, tops[-1][2])
        if not tops:
            return None
    budget = _within_rounding(min(cost for _, _, cost in tops))
    found = []   # (landing depth, depth key, built plan)
    for k, top, cost in tops:   # the DP leaves out the projection
        found += [(k, key, built) for _, key, built
                  in placements(top, 0, full, budget - (cost - top[0].best[full]))]
    return min(sorted(found, key=lambda c: c[:2]),
               key=lambda c: dp.total(c[2].cum_cost, c[2].est_size))[2]


# -- the place stage -----------------------------------------------------------

def _within_rounding(cost: float) -> float:
    """The largest cost that ties `cost` up to memo.SIZE_RTOL."""
    return cost + memo.SIZE_RTOL * max(1.0, abs(cost))


def _decorate_stage(dag: Dag, dp: _Placement,
                    floors: tuple[dict[int, float], dict[int, float]]) -> Dag:
    """Run the place stage over every registered root.  With `floors`, no
    family of plans whose bound exceeds the running best (within
    memo.SIZE_RTOL) is built (`costplan.plans_within`).  A root's floor is
    its least decorated cost (`dp.total`) exactly, and its running best
    starts there: the stage walks, decorates and keeps only the plans that
    tie it.  A landing is part of the root's signature; only the signature
    class of the cheapest plan is kept."""
    fresh = Dag()
    fresh.meta = dict(dag.meta)
    for query_id, root in sorted(dag.query_roots.items()):
        kept: list[tuple[float, Plan]] = []
        running_best = budget = _within_rounding(floors[0][root])
        # the limit is the running best of the root being walked, plus slack
        for plan in costplan.plans_within(dag, root, *floors, lambda: budget):
            decorated = place_selects_on_plan(plan, (), dp=dp, limit=running_best)
            if decorated is None:
                continue
            cost = dp.total(decorated.cum_cost, decorated.est_size)
            if cost > running_best:
                continue
            running_best = cost
            budget = _within_rounding(running_best)
            kept.append((cost, decorated))
        if not kept:
            raise DagError(f"no plans under root {query_id!r}")
        if dp.group is not None:
            classes = [memo.signature_text(costplan.plan_signature(p)) for _, p in kept]
            winner = min((c, sig) for (c, _), sig in zip(kept, classes))[1]   # the cheapest's
            kept = [pair for pair, sig in zip(kept, classes) if sig == winner]
        for _, decorated in kept:
            new_root = costplan.intern_plan(fresh, decorated)
        memo.register_root(fresh, query_id, new_root)
    return fresh


def _select_floors(dag: Dag, selects, *, dp: _Placement | None = None,
                   plans: dict | None = None) -> tuple[dict[int, float], dict[int, float]]:
    """Floors of the place stage for `costplan.plans_within`: the DP `dp`
    (else that of `selects`) over the memo, an eq-node's op-nodes its
    alternatives, plain and per landing above it (in increasing
    `_Placement.bound`, up to one that no root's optimum can reach).  A
    query root, which no op may consume, gets its least `dp.total` at the
    full set: its least decorated cost, exactly.  Any other eq-node's floor
    is its least `best`, an op-node's its least cost with all its children's
    bits below it (`own`), plain or above a landing that can reach a root's
    floor, as any plan that ties a floor has such a landing; so no plan the
    stage keeps costs less than its bound.  `plans`, when given, receives
    every eq-node's number of plans."""
    dp = dp or _Placement(selects)
    plans = {} if plans is None else plans
    consumed = {c for op in dag.op_nodes.values() for c in op.children}
    order = memo.topological_order(dag)[::-1]   # inputs first
    cells: dict[int, _Cell] = {}
    op_floor: dict[int, float] = {}
    for eq_id in order:
        node = dag.eq_nodes[eq_id]
        if node.is_base:
            cells[eq_id], plans[eq_id] = dp.leaf(node.signature[0][0], node.est_size), 1
            continue
        ops = [dag.op_nodes[op_id] for op_id in node.child_ops]
        cells[eq_id] = dp.node([(op.kind, op.factor, tuple(map(cells.__getitem__, op.children)))
                                for op in ops], dp.group is not None or eq_id in consumed)
        op_floor.update(zip(node.child_ops, cells[eq_id].own))
        plans[eq_id] = sum(plans[op.children[0]] * plans[op.children[-1]] if len(op.children) == 2
                           else plans[op.children[0]] for op in ops)
    full = dp.width - 1
    floor = {eq_id: min(cell.best) for eq_id, cell in cells.items()}
    plain = {root: dp.total(cells[root].best[full], cells[root].out[full])
             for root in dag.query_roots.values()}
    if dp.group is None:
        floor.update(plain)
        return floor, op_floor
    flat, landings = min(plain.values()), []   # (bound, position in order, cell) per landing
    for i, eq_id in enumerate(order):
        if cells[eq_id].rels & dp.gb_rels == dp.gb_rels:
            landed = dp.landing(cells[eq_id])
            landings.append((dp.bound(cells[eq_id], landed, flat), i, landed))
    roots = dict.fromkeys(dag.query_roots.values(), math.inf)
    tiers = []   # per landing: its cells at and above it, and the owns of the ops above it
    for bound, i, landed in sorted(landings, key=lambda t: t[:2]):
        if bound > _within_rounding(max(roots.values())):
            break
        tier, owns = {order[i]: landed}, []
        for up in order[i + 1:]:   # the eq-nodes above it, inputs first
            ops = [op for op in map(dag.op_nodes.__getitem__, dag.eq_nodes[up].child_ops)
                   if op.children[0] in tier or op.children[-1] in tier]
            if not ops:
                continue
            tier[up] = dp.node([(op.kind, op.factor, [tier.get(c) or cells[c] for c in op.children])
                                for op in ops], up in consumed)
            owns += zip((op.id for op in ops), tier[up].own)
        tiers.append((tier, owns))
        for root in roots.keys() & tier.keys():
            roots[root] = min(roots[root], dp.total(tier[root].best[full], tier[root].out[full]))
    for tier, owns in tiers:   # only a landing that can reach a root's optimum lowers floors
        if any(dp.total(tier[r].best[full], tier[r].out[full]) <= _within_rounding(roots[r])
               for r in roots.keys() & tier.keys()):
            for up, cell in tier.items():
                floor[up] = min(floor[up], min(cell.best))
            for op_id, own in owns:
                op_floor[op_id] = min(op_floor[op_id], own)
    floor.update(roots)
    return floor, op_floor


def _block_placement(query: Query, catalog: Catalog) -> _Placement:
    """The placement DP of one block, counting a grouped root's projection
    when `sprinkle_projects` will retain it."""
    if query.having is not None and not query.group_by:
        raise ValidationError("having without group-by")
    group_by, retained = tuple(sorted(query.group_by)), sqlfront.output_attrs(query, catalog)
    return _Placement(query.selects, order_by=tuple(query.order_by), group_by=group_by,
                      having=query.having, d=sqlfront.groupby_distinct_product(group_by, catalog),
                      projected=bool(group_by and retained)
                      and retained != sqlfront.all_query_attrs(query, catalog))


def sprinkle_selects(jd: Dag, query: Query, catalog: Catalog) -> tuple[Dag, int]:
    """The place stage of one block over a join dag whose roots no op
    consumes (as in `extract_query_joindag`): its selects, group-by with its
    having, and order-by, placed on the join plans that can tie its optimum.
    Returns the stage's dag and the number of join plans under its roots."""
    for cond in query.selects:
        catalog.relation(cond.relation)
    for query_id, root in sorted(jd.query_roots.items()):
        bases = set(jd.eq_nodes[root].signature[0])
        for cond in query.selects:
            if cond.relation not in bases:
                raise ValidationError(f"select on {cond.relation!r} but query "
                                      f"{query_id!r} covers {sorted(bases)}")
    dp, plans = _block_placement(query, catalog), {}
    floors = _select_floors(jd, query.selects, dp=dp, plans=plans)
    return _decorate_stage(jd, dp, floors), sum(plans[r] for r in jd.query_roots.values())


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
                          query_id: str, *, in_place: bool = False) -> Dag:
    """Join dag for one query: the history subgraph reachable from the
    query's full-join node, with the query root registered.  No operator is
    derived again.  It is a copy (`Dag.copy_below`), unless `in_place` says
    that the history was built from empty for this query's joins alone:
    then every eq-node lies below the query's, and the history's dag is read
    in place (`Dag.read_in_place`) with its own roots and indexes untouched.
    Ids reach no output, so both give the same plans, costs and dags."""
    if not query.joins:
        out = Dag()
        (rel,) = query.tables
        root = memo.ensure_base(out, rel, float(catalog.relation(rel).cardinality))
    else:
        bases = {t: float(catalog.relation(t).cardinality) for t in sorted(query.tables)}
        join_texts = tuple(sorted(j.canonical() for j in extract_join_set(query)))
        root = joindag.query_join_root(history, bases, join_texts)
        if in_place:
            out = history.dag.read_in_place()
        else:
            out, root = history.dag.copy_below(root)
    memo.register_root(out, query_id, root)
    return out


def optimize_single(query: Query, catalog: Catalog, *,
                    history: HistoryDag | None = None, limit: int = 8,
                    query_id: str = "q1") -> OptimizeResult:
    """Full pipeline for one query: reuse (or grow) the join-order history,
    then run the place and projects stages.  `limit` bounds the joins and,
    as the placement DP grows as 3**s, the selects of each block.  Joins the
    history already holds are not counted: a block whose joins are all known
    runs whatever its number of joins.  Without a history (or with an empty
    one) the block is cold: the history built for it is its join dag, read
    in place rather than copied; a warm block copies its part of it."""
    if query.subquery is not None:
        return _optimize_nested(query, catalog, history=history, limit=limit,
                                query_id=query_id)
    if len(query.selects) > limit:
        raise LimitExceededError("select placement", len(query.selects), limit)
    joins = extract_join_set(query)
    cold = history is None or not history.dag.eq_nodes
    base_history = history if history is not None else joindag.empty_history(catalog)
    grown = joindag.build_incremental(base_history, joins, catalog, limit)
    jd = extract_query_joindag(grown, query, catalog, query_id, in_place=cold)
    dag, jd_plans = sprinkle_selects(jd, query, catalog)
    dag = sprinkle_projects(dag, [(query_id, query)], catalog)
    plan = costplan.best_plan(dag, dag.query_roots[query_id])
    return OptimizeResult(query_id=query_id, plan=plan, dag=dag, history=grown,
                          combinations_considered=joindag.combinations_considered(len(joins)),
                          jd_eq_nodes=len(jd.eq_nodes), jd_plans=jd_plans)


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
