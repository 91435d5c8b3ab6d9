"""Operator sprinkling: placement rules, stages, and the full pipeline."""

import dataclasses
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from sprinkleqo import costplan, joindag, memo, naive, sprinkle, sqlfront
from sprinkleqo.catalog import load_catalog
from sprinkleqo.costplan import Plan, base_plan, op_plan, plan_key
from sprinkleqo.errors import DagError, ValidationError
from sprinkleqo.memo import (KIND_GROUPBY, KIND_HAVING, KIND_JOIN,
                             KIND_JOINFILTER, KIND_ORDERBY, KIND_PROJECT, KIND_SELECT)
from sprinkleqo.sprinkle import _stack_key
from sprinkleqo.sqlfront import (HavingCondition, OrderItem, SelectCondition,
                                 extract_join_set, parse_query, render_query)

from conftest import FIXTURES, chain_catalog, fixture_sql, make_catalog, random_schema, \
    clause_variants, connected_query_sql, decorate_plan, enumerate_plans, intern_plan, \
    place_selects_on_plan

sizes = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
factors = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


# -- joint select placement against literal oracles ---------------------------

def plan_bases(plan):
    if plan.kind == "base":
        return frozenset((plan.relation,))
    return frozenset().union(*map(plan_bases, plan.children))


def path_to_relation(plan, relation):
    """Nodes from the plan root down to `relation`'s base leaf."""
    node = plan
    path = [node]
    while node.kind != "base":
        for child in node.children:
            if relation in plan_bases(child):
                node = child
                path.append(node)
                break
        else:
            raise AssertionError(f"relation {relation!r} not reachable in plan")
    assert node.relation == relation
    return path


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


def product_placement(plan, selects):
    """The exhaustive product search select placement used before the DP:
    the first cheapest rebuilt plan in itertools.product order."""
    ordered = sorted(selects, key=lambda s: (s.canonical(),))
    paths = {s.canonical(): path_to_relation(plan, s.relation) for s in ordered}
    best = None
    for assignment in itertools.product(*(paths[s.canonical()] for s in ordered)):
        placed = {}
        for cond, node in zip(ordered, assignment):
            placed.setdefault(id(node), []).append(cond)
        candidate = _rebuild_with_selects(plan, placed)
        if best is None or candidate.cum_cost < best.cum_cost:
            best = candidate
    return best


def greedy_placement(plan, selects):
    """One select at a time, most selective first, each at its own optimum
    (the fallback the product search once used beyond a size cap)."""
    for cond in sorted(selects, key=lambda s: (s.ssf, s.canonical())):
        plan = product_placement(plan, [cond])
    return plan


def insert_above(plan, target, cond):
    if plan is target:
        return op_plan(KIND_SELECT, cond.canonical(), (plan,), cond.ssf)
    if plan.kind == "base":
        return plan
    return op_plan(plan.kind, plan.detail,
                   tuple(insert_above(c, target, cond) for c in plan.children),
                   plan.factor)


def all_placements(plan, selects):
    """Every way to thread the selects into the plan, one at a time.

    Sequential insertion over partially decorated plans covers every
    assignment and every stacking order at a shared position.
    """
    if not selects:
        yield plan
        return
    cond = selects[0]
    for partial in all_placements(plan, selects[1:]):
        for target in path_to_relation(partial, cond.relation):
            yield insert_above(partial, target, cond)


def select_count(plan):
    return (plan.kind == KIND_SELECT) + sum(select_count(c) for c in plan.children)


CHAIN_PLANS = []
_r0, _r1, _r2 = base_plan("r0", 100.0), base_plan("r1", 200.0), base_plan("r2", 50.0)
CHAIN_PLANS.append(op_plan(KIND_JOIN, "r1.y = r2.y",
                           (op_plan(KIND_JOIN, "r0.x = r1.x", (_r0, _r1), 0.01),
                            _r2), 0.05))
CHAIN_PLANS.append(op_plan(KIND_JOIN, "r0.x = r1.x",
                           (_r0,
                            op_plan(KIND_JOIN, "r1.y = r2.y", (_r1, _r2), 0.05)),
                           0.01))


def test_joint_placement_matches_exhaustive_oracle():
    rng = random.Random(99)
    for _ in range(40):
        plan = rng.choice(CHAIN_PLANS)
        n = rng.randint(1, 3)
        selects = tuple(
            SelectCondition(relation=rng.choice(["r0", "r1", "r2"]),
                            attribute="b", operator=">", literal=i,
                            ssf=rng.choice([0.01, 0.1, 0.5, 1.0]))
            for i in range(n))
        placed = place_selects_on_plan(plan, selects)
        oracle = min(p.cum_cost for p in all_placements(plan, list(selects)))
        assert placed.cum_cost == pytest.approx(oracle, rel=1e-12)
        assert select_count(placed) == n


def random_plan(rng, relations, shape):
    """A random join tree over `relations`: left-deep or bushy, with some
    inner joins wrapped in a joinfilter as on cyclic join graphs."""
    if len(relations) == 1:
        return base_plan(relations[0], rng.choice([1.0, 10.0, 50.0, 100.0, 1000.0]))
    split = len(relations) - 1 if shape == "left-deep" else rng.randint(1, len(relations) - 1)
    left = random_plan(rng, relations[:split], shape)
    right = random_plan(rng, relations[split:], shape)
    jsf = rng.choice([0.001, 0.01, 0.1, 0.5, 1.0])
    plan = op_plan(KIND_JOIN, f"{relations[0]}.x = {relations[-1]}.x", (left, right), jsf)
    if shape == "joinfilter" and rng.random() < 0.5:
        plan = op_plan(KIND_JOINFILTER, f"{relations[0]}.y = {relations[-1]}.y",
                       (plan,), rng.choice([0.01, 0.1, 0.5]))
    return plan


def random_plans_with_selects(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        relations = [f"r{k}" for k in range(rng.randint(1, 5))]
        plan = random_plan(rng, relations, ("left-deep", "bushy", "joinfilter")[i % 3])
        ssfs = rng.choice([[0.1], [0.5, 1.0], [0.01, 0.1, 0.5, 1.0]])
        selects = tuple(SelectCondition(rng.choice(relations), "b", ">", k,
                                        ssf=rng.choice(ssfs))
                        for k in range(rng.randint(1, 5)))
        yield plan, selects


def kept_keys(dag):
    """The plan keys of every plan below the dag's one root."""
    (root,) = dag.query_roots.values()
    return {plan_key(p) for p in enumerate_plans(dag, root)}


def test_subset_dp_placement_equals_the_product_search():
    # the stage's optimum is the product search's, bit for bit, and of the
    # placements that tie it the stage keeps the one the product search picks
    for plan, selects in random_plans_with_selects(4242, 150):
        placed = decorate_plan(plan, selects)
        oracle = product_placement(plan, selects)
        assert plan_key(oracle) in kept_keys(placed)
        assert costplan.best_plan(placed, placed.query_roots["plan"]).cum_cost == oracle.cum_cost


def test_cost_ties_keep_the_least_depth_key():
    # two placements cost 2.25, both kept; they differ below the top
    # select, where `best_plan` breaks the exact tie on op text: the select
    # r0.b > 2 over the join comes before r1.b > 1, so both r0 selects sit
    # at the root
    plan = op_plan(KIND_JOIN, "r0.x = r1.x", (base_plan("r0", 1.0), base_plan("r1", 1.0)), 1.0)
    selects = (SelectCondition("r0", "b", ">", 0, ssf=1.0),
               SelectCondition("r1", "b", ">", 1, ssf=0.5),
               SelectCondition("r0", "b", ">", 2, ssf=0.5))
    placed = place_selects_on_plan(plan, selects)
    assert plan_key(placed) == ("(select [r0.b > 0] (select [r0.b > 2] (join [r0.x = r1.x] "
                                "(base r0) (select [r1.b > 1] (base r1)))))")
    assert placed.cum_cost == 2.25
    assert kept_keys(decorate_plan(plan, selects)) == {
        plan_key(placed), ("(select [r0.b > 0] (select [r1.b > 1] (join [r0.x = r1.x] "
                           "(select [r0.b > 2] (base r0)) (base r1))))")}


def test_nonselective_filter_stays_at_the_root():
    # ssf=1 never shrinks anything: the root position ties the leaf's, and
    # the stage keeps both; `best_plan` breaks the exact tie on op text,
    # the join before the select
    plan = op_plan(KIND_JOIN, "a.x = b.x",
                   (base_plan("a", 100.0), base_plan("b", 100.0)), 0.01)
    cond = SelectCondition("a", "y", ">", 0, ssf=1.0)
    assert kept_keys(decorate_plan(plan, (cond,))) == {
        "(select [a.y > 0] (join [a.x = b.x] (base a) (base b)))",
        "(join [a.x = b.x] (select [a.y > 0] (base a)) (base b))"}
    placed = place_selects_on_plan(plan, (cond,))
    assert placed.kind == KIND_JOIN and placed.cum_cost == 10100.0


def test_place_selects_on_plan_walks_a_plan_deeper_than_the_stack():
    # a left-deep plan 200 joins deeper than the recursion limit, each join
    # keeping 10 rows: nothing to place keeps it, and a select on its
    # deepest relation goes onto that relation
    depth = sys.getrecursionlimit() + 200

    def left_deep(first):
        plan = first
        for i in range(1, depth + 1):
            plan = op_plan(KIND_JOIN, f"r{i - 1}.x = r{i}.x",
                           (plan, base_plan(f"r{i}", 10.0)), 0.1)
        return plan

    plan = left_deep(base_plan("r0", 10.0))
    placed = place_selects_on_plan(plan, ())
    assert (plan_key(placed), placed.cum_cost) == (plan_key(plan), plan.cum_cost)
    cond = SelectCondition("r0", "b", ">", 1, ssf=0.5)
    expected = left_deep(op_plan(KIND_SELECT, cond.canonical(), (base_plan("r0", 10.0),), 0.5))
    placed = place_selects_on_plan(plan, (cond,))
    assert (plan_key(placed), placed.cum_cost) == (plan_key(expected), expected.cum_cost)


def test_the_traceback_reads_a_leaf_within_its_budget():
    # a base relation with both selects stacked on it: each state of the
    # leaf keeps the stackings within rounding of its least, the
    # ascending-ssf one alone, or with an equal ssf both orders
    weak = SelectCondition("r0", "b", ">", 1, ssf=0.5)
    strong = SelectCondition("r0", "b", "<", 9, ssf=0.1)
    even = SelectCondition("r0", "b", "<", 7, ssf=0.5)
    leaf = base_plan("r0", 1000.0)
    dag = decorate_plan(leaf, (weak, strong))
    assert kept_keys(dag) == {f"(select [{weak.canonical()}] "
                              f"(select [{strong.canonical()}] (base r0)))"}
    assert memo.count_nodes(dag) == (3, 2, 1)
    dag = decorate_plan(leaf, (weak, even))
    assert kept_keys(dag) == {f"(select [{a.canonical()}] (select [{b.canonical()}] (base r0)))"
                              for a, b in ((weak, even), (even, weak))}
    assert memo.count_nodes(dag) == (4, 4, 2)
    assert place_selects_on_plan(leaf, (weak, even)).cum_cost == 1000.0 + 500.0


def test_stacked_selects_apply_most_selective_first():
    plan = base_plan("r0", 1000.0)
    weak = SelectCondition("r0", "b", ">", 1, ssf=0.5)
    strong = SelectCondition("r0", "b", "<", 9, ssf=0.1)
    placed = place_selects_on_plan(plan, (weak, strong))
    assert placed.detail == weak.canonical()           # less selective on top
    assert placed.children[0].detail == strong.canonical()
    assert placed.cum_cost == 1000.0 + 100.0


def test_six_selects_on_seven_relations_beat_greedy_placement():
    # 7**6 joint positions: beyond what the product search could try
    rels = [base_plan(f"r{i}", 100.0) for i in range(7)]
    plan = rels[0]
    for i in range(1, 7):
        plan = op_plan(KIND_JOIN, f"r{i - 1}.x = r{i}.x", (plan, rels[i]), 0.01)
    selects = tuple(SelectCondition("r0", "b", ">", i, ssf=0.5)
                    for i in range(6))
    placed = place_selects_on_plan(plan, selects)
    assert select_count(placed) == 6
    assert placed.cum_cost <= greedy_placement(plan, selects).cum_cost
    root_stack = plan
    for cond in sorted(selects, key=lambda s: (s.ssf, s.canonical()),
                       reverse=True):
        root_stack = op_plan(KIND_SELECT, cond.canonical(), (root_stack,), cond.ssf)
    assert placed.cum_cost <= root_stack.cum_cost


def test_select_on_foreign_relation_rejected(company_catalog):
    jd = memo.Dag()
    root = memo.ensure_base(jd, "employee", 1000.0)
    memo.register_root(jd, "q1", root)
    cond = SelectCondition("project", "plocation", "=", "x", ssf=0.1)
    query = dataclasses.replace(
        parse_query("select employee.fname from employee", company_catalog), selects=(cond,))
    with pytest.raises(ValidationError):
        sprinkle.sprinkle_selects(jd, query, company_catalog,
                                  sqlfront.output_attrs(query, company_catalog))


def test_select_on_a_relation_the_plan_lacks_rejected():
    plan = op_plan(KIND_JOIN, "a.x = b.x",
                   (base_plan("a", 100.0), base_plan("b", 100.0)), 0.01)
    selects = (SelectCondition("a", "y", ">", 0, ssf=0.1),
               SelectCondition("c", "y", ">", 0, ssf=0.1))
    with pytest.raises(DagError, match="'c' not a base of this plan"):
        place_selects_on_plan(plan, selects)


# -- family pruning against the enumerate-then-prune stage --------------------

def enumerate_then_prune_stage(dag, decorate, *, bound=None):
    """The stage loop before family pruning and root floors: every plan of
    `enumerate_plans`, each dropped when `bound(plan)` or its
    decorated cost exceeds the running best."""
    fresh = memo.Dag()
    for query_id, root in sorted(dag.query_roots.items()):
        kept = []
        running_best = math.inf
        for plan in enumerate_plans(dag, root):
            if bound is not None and bound(plan) > running_best:
                continue
            decorated = decorate(plan)
            if decorated.cum_cost > running_best:
                continue
            running_best = decorated.cum_cost
            kept.append((decorated.cum_cost, decorated))
        if not kept:
            raise DagError(f"no plans under root {query_id!r}")
        new_root = None
        for _, decorated in kept:
            new_root = intern_plan(fresh, decorated)
        memo.register_root(fresh, query_id, new_root)
    return fresh


def leaf_select_lower_bound(plan, selects):
    """Plan cost with every select pushed to its leaf, minus the select
    operators' own costs, walked plan by plan (the bound of the stage before
    family pruning)."""
    at_leaf = {}
    for cond in sorted(selects, key=sprinkle._stack_key):
        at_leaf.setdefault(cond.relation, []).append(cond)
    select_costs = []  # leaves left to right, each stack bottom-up

    def walk(node):
        if node.kind == "base":
            size, cum = node.est_size, node.cum_cost
            for cond in at_leaf.get(node.relation, ()):
                select_costs.append(size)
                size, cum = float(cond.ssf) * size, size + cum
            return size, cum
        sizes, cums = zip(*[walk(c) for c in node.children])
        return (costplan.estimate_size(node.kind, sizes, node.factor),
                costplan.op_cost(node.kind, sizes) + sum(cums))

    cum = walk(plan)[1]
    select_cost = 0.0
    for cost in reversed(select_costs):
        select_cost += cost
    return cum - select_cost


def enumerate_then_prune_selects(jd, selects):
    selects = tuple(selects)
    if not selects:
        return enumerate_then_prune_stage(jd, lambda p: p)
    return enumerate_then_prune_stage(
        jd, lambda p: place_selects_on_plan(p, selects),
        bound=lambda p: leaf_select_lower_bound(p, selects))


def shape_catalog(shape, j, rng):
    """A chain, star or cycle join graph with j edges and random sizes."""
    n = j if shape == "cycle" else j + 1
    relations = [{"name": f"r{i}", "cardinality": float(rng.choice([10, 100, 1000, 5000])),
                  "attributes": [{"name": "a0", "distinct": 10},
                                 {"name": "a1", "distinct": 10},
                                 {"name": "b", "distinct": 5}]}
                 for i in range(n)]
    pairs = {"chain": [(i, i + 1) for i in range(j)],
             "star": [(0, i) for i in range(1, j + 1)],
             "cycle": [(i, (i + 1) % n) for i in range(n)]}[shape]
    edges = [{"left": f"r{a}.a0", "right": f"r{b}.a1",
              "jsf": rng.choice([0.001, 0.01, 0.1, 0.5])} for a, b in pairs]
    return make_catalog(relations, edges, default_ssf=rng.choice([0.05, 0.1, 0.3]))


def joindag_for(sql, catalog):
    query = parse_query(sql, catalog)
    history = joindag.build_incremental(joindag.empty_history(catalog),
                                        extract_join_set(query), catalog, 8)
    return query, sprinkle.extract_query_joindag(history, query, catalog, "q1")


def stage_inputs():
    """(sql, catalog) pairs: random schemas (cyclic ones carry joinfilters)
    and chain/star/cycle graphs with j <= 6 and 0-3 selects, each grouped
    and ordered on one relation."""
    rng = random.Random(5150)
    cases = []
    for _ in range(12):
        catalog = random_schema(rng)
        cases.append((connected_query_sql(catalog, rng, max_selects=3), catalog))
    for shape, j in [("chain", 2), ("chain", 4), ("chain", 6), ("star", 3),
                     ("star", 5), ("star", 6), ("cycle", 3), ("cycle", 5), ("cycle", 6)]:
        catalog = shape_catalog(shape, j, rng)
        for s in range(4):
            cases.append((connected_query_sql(catalog, rng, max_selects=0)
                          + "".join(f" and r{rng.randrange(j)}.b > {k}" for k in range(s)),
                          catalog))
    return cases


def test_pruned_stages_keep_the_plans_of_enumerate_then_prune():
    # enumerate-then-prune decorates every plan on its own, then keeps those
    # at the optimum: the place stage reaches that optimum, every plan it
    # keeps ties it on a join plan whose own decoration ties it, and
    # ungrouped it keeps every such join plan, ordered too
    for sql, catalog in stage_inputs()[::3]:
        for variant in clause_variants(sql, parse_query(sql, catalog), catalog):
            query, jd = joindag_for(variant, catalog)
            retained = sqlfront.output_attrs(query, catalog)
            dp = sprinkle._block_placement(query, catalog, retained)
            costs = {}
            for plan in enumerate_plans(jd, jd.query_roots["q1"]):
                placed = place_selects_on_plan(plan, (), dp=dp)
                costs[plan_key(plan)] = dp.total(placed.cum_cost, placed.est_size)
            least = min(costs.values())
            tied = {key for key, cost in costs.items() if cost <= memo.within_rounding(least)}
            dag = sprinkle.sprinkle_selects(jd, query, catalog, retained)
            kept = enumerate_plans(dag, dag.query_roots["q1"])
            for plan in kept:
                assert dp.total(plan.cum_cost, plan.est_size) == pytest.approx(
                    least, rel=memo.SIZE_RTOL), variant
            assert {join_plan_key(p) for p in kept} <= tied, variant
            if not query.group_by:
                assert {join_plan_key(p) for p in kept} == tied, variant


def leaf_select_floors(dag, selects):
    """Per-eq-node floors with every select at its leaf and the selects' own
    costs left out: the bound of the select stage before its memo DP."""
    at_leaf = {}
    for cond in sorted(selects, key=sprinkle._stack_key):
        at_leaf.setdefault(cond.relation, []).append(cond)
    size, floor = {}, {}
    for eq_id in reversed(memo.topological_order(dag)):
        node = dag.eq_nodes[eq_id]
        if node.is_base:
            size[eq_id], floor[eq_id] = node.est_size, 0.0
            for cond in at_leaf.get(node.signature[0][0], ()):
                size[eq_id] = float(cond.ssf) * size[eq_id]
            continue
        floor[eq_id] = math.inf
        for op_id in node.child_ops:
            op = dag.op_nodes[op_id]
            sizes = tuple(size[c] for c in op.children)
            floor[eq_id] = min(floor[eq_id], costplan.op_cost(op.kind, sizes)
                               + sum(floor[c] for c in op.children))
        size[eq_id] = costplan.estimate_size(op.kind, sizes, op.factor)
    return floor


def test_select_floor_bounds_every_placed_plan():
    # pruning compares floors with the running best plus memo.SIZE_RTOL of
    # slack, so that is the margin a floor may exceed a plan's cost by
    for sql, catalog in stage_inputs():
        query, jd = joindag_for(sql, catalog)
        root = jd.query_roots["q1"]
        floor = least_costs(sprinkle._select_floors(jd, sprinkle._Placement(query.selects)))
        least = math.inf
        for plan in enumerate_plans(jd, root):
            cost = place_selects_on_plan(plan, query.selects).cum_cost
            assert floor[root] <= cost + memo.SIZE_RTOL * max(1.0, abs(cost)), sql
            least = min(least, cost)
        # the memo DP places all selects below the root exactly
        assert floor[root] == pytest.approx(least, rel=1e-12), sql
        # the two floors size the same products in different orders
        for eq_id, old in leaf_select_floors(jd, query.selects).items():
            assert floor[eq_id] >= old * (1 - 1e-12), (sql, eq_id)


def least_costs(passed):
    """Each eq-node's least `best` in the plain tables of a block's pass,
    and each root's optimum: the floors of every plan below them."""
    floor = {eq_id: min(cell.best) for eq_id, cell in passed.cells.items()}
    floor.update(passed.optimum)
    return floor


def reference_select_floors(dag, selects):
    """The select stage's floors computed by their own loop over the memo,
    with private tables: the reference the shared DP step must reproduce
    bit for bit.  Each stack is priced as the plan prices it: a select
    costs its input's size and yields its ssf times it, so a leaf's sizes
    chain in stacking order, and a stack of T - U on a node's output over U
    pays each size it passes, in stacking order, on the least cost of U."""
    ordered = sorted(selects, key=lambda s: (s.canonical(),))
    width = 1 << len(ordered)
    subsets = [[0]]   # subsets[m]: the submasks of m, in increasing order
    for i in range(len(ordered)):
        subsets += [sub + [m | 1 << i for m in sub] for sub in subsets]
    stacking = sorted(range(len(ordered)), key=lambda i: _stack_key(ordered[i]))
    on_relation: dict[str, int] = {}
    for i, cond in enumerate(ordered):
        on_relation[cond.relation] = on_relation.get(cond.relation, 0) | 1 << i

    def stacked(below, out, u, rest):
        cost = below[u]
        for i in stacking:
            if rest >> i & 1:
                cost = cost + costplan.op_cost(KIND_SELECT, (out[u],))
                u |= 1 << i
        return cost

    consumed = {c for op in dag.op_nodes.values() for c in op.children}
    mask: dict[int, int] = {}
    size: dict[int, list[float]] = {}   # eq-node -> output size, by T
    best: dict[int, list[float]] = {}   # math.inf where T has a select `eq` lacks
    for eq_id in reversed(memo.topological_order(dag)):
        node = dag.eq_nodes[eq_id]
        out, least = [math.inf] * width, [math.inf] * width
        size[eq_id], best[eq_id] = out, least
        below = [math.inf] * width   # least op cost plus children's costs, by U
        if node.is_base:   # nothing below: every select stacks on the relation
            mask[eq_id] = m = on_relation.get(node.signature[0][0], 0)
            below[0], out[0] = 0.0, node.est_size
            for t in subsets[m][1:]:   # the select latest in stacking tops t
                top = max((i for i in range(len(ordered)) if t >> i & 1), key=stacking.index)
                out[t] = costplan.estimate_size(KIND_SELECT, (out[t ^ 1 << top],),
                                                ordered[top].ssf)
        for i, op_id in enumerate(node.child_ops):
            op = dag.op_nodes[op_id]
            if len(op.children) == 2:   # a join: its inputs hold disjoint selects
                (m1, z1, b1), (m2, z2, b2) = [(mask[c], size[c], best[c]) for c in op.children]
                m = m1 | m2
                inputs = [((z1[u & m1], z2[u & m2]), b1[u & m1] + b2[u & m2])
                          for u in subsets[m]]
            else:
                (c,) = op.children
                m, z1, b1 = mask[c], size[c], best[c]
                inputs = [((z1[u],), b1[u]) for u in subsets[m]]
            for u, (sizes, children) in zip(subsets[m], inputs):
                cost = costplan.op_cost(op.kind, sizes) + children
                if cost < below[u]:
                    below[u] = cost
                if i == 0:
                    out[u] = costplan.estimate_size(op.kind, sizes, op.factor)
        mask[eq_id] = m
        for t in subsets[m] if node.is_base or eq_id in consumed else (m,):
            least[t] = min(stacked(below, out, u, t ^ u) for u in subsets[t])
    return {eq_id: min(costs) for eq_id, costs in best.items()}


def test_select_floors_equal_the_reference_exactly():
    for sql, catalog in stage_inputs():
        query, jd = joindag_for(sql, catalog)
        assert least_costs(sprinkle._select_floors(jd, sprinkle._Placement(query.selects))) == \
            reference_select_floors(jd, query.selects), sql


def counting(monkeypatch, owner, name):
    """Patch `owner.name` to record each call's result; returns the list."""
    results, original = [], getattr(owner, name)

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, recording)
    return results


def filled(jd):
    """How many eq-nodes, bases aside, the price table of a join dag holds:
    each read from the table, taking no DP step of its block's own."""
    return sum(not jd.eq_nodes[eq_id].is_base for eq_id in jd.prices.nodes)


def own_steps(steps, jd):
    """The cells of `steps` that a block's DP stepped to for itself: every
    one but those filled into its join dag's price table, which are the
    steps of a block with nothing to place (`sprinkle._PLAIN`)."""
    table = set(map(id, jd.prices.nodes.values()))
    return [cell for cell in steps if id(cell) not in table]


def test_eight_leaf_star_places_selects_on_few_plans(monkeypatch):
    cards = [20000, 10, 300, 5000, 40, 1000, 70, 2000, 100]
    relations = [{"name": f"r{i}", "cardinality": float(card),
                  "attributes": [{"name": "k", "distinct": card},
                                 {"name": "f", "distinct": max(2, card // 5)},
                                 {"name": "b", "distinct": min(20, card)}]}
                 for i, card in enumerate(cards)]
    edges = [{"left": "r0.f", "right": f"r{i}.k"} for i in range(1, 9)]
    catalog = make_catalog(relations, edges)
    sql = ("select r0.b, r5.b from " + ", ".join(f"r{i}" for i in range(9))
           + " where " + " and ".join(f"r0.f = r{i}.k" for i in range(1, 9))
           + " and r3.b > 7")
    query, jd = joindag_for(sql, catalog)
    assert memo.plan_count_for(jd, jd.query_roots["q1"]) == 40320
    placed = counting(monkeypatch, sys.modules[__name__], "place_selects_on_plan")
    oracle = enumerate_then_prune_selects(jd, query.selects)
    oracle_placed = len(placed)
    steps = counting(monkeypatch, sprinkle._Placement, "node")
    attached = counting(monkeypatch, memo, "attach_op")
    pruned = sprinkle.sprinkle_selects(jd, query, catalog, sqlfront.output_attrs(query, catalog))
    # the per-plan leaf bound lets 34 of the 40320 plans through to
    # placement; the stage prices each eq-node once, by a DP step over r3's
    # 128 and from the price table under the other 127, and attaches only
    # the one optimal plan, its 8 joins and its select, each once
    assert oracle_placed == 34
    assert (len(own_steps(steps, jd)), filled(jd)) == (128, 127)
    assert len(own_steps(steps, jd)) + filled(jd) == sum(not node.is_base for node in jd.eq_nodes.values()) == 255
    assert len(attached) == len(pruned.op_nodes) == 9
    best = costplan.best_plan(oracle, oracle.query_roots["q1"]).cum_cost
    assert costplan.best_plan(pruned, pruned.query_roots["q1"]).cum_cost == best
    kept = enumerate_plans(pruned, pruned.query_roots["q1"])
    assert all(p.cum_cost <= memo.within_rounding(best) for p in kept)


# -- every block walks only its optimal plans -----------------------------------

def tied_join_plans(jd, selects):
    """The plan keys of the join plans whose cheapest placement of
    `selects` lies within rounding of the least, found without bounds:
    every plan of `enumerate_plans`, each placed on its own."""
    plans = enumerate_plans(jd, jd.query_roots["q1"])
    costs = [place_selects_on_plan(p, selects).cum_cost for p in plans]
    return {plan_key(p) for p, cost in zip(plans, costs)
            if cost <= memo.within_rounding(min(costs))}


def join_plan_key(plan):
    """The plan key of a decorated plan's join plan: its selects, group-by,
    having and order-by taken out."""
    while plan.kind in (KIND_SELECT, KIND_GROUPBY, KIND_HAVING, KIND_ORDERBY):
        plan = plan.children[0]
    if plan.kind == "base":
        return f"(base {plan.relation})"
    return f"({plan.kind} [{plan.detail}] " + " ".join(map(join_plan_key, plan.children)) + ")"


def cyclic_random_queries(count, max_joins=4, max_selects=3):
    """(sql, catalog) pairs over random schemas whose joined component has a
    cycle, so their join dags carry joinfilters."""
    rng = random.Random(6021)
    cases = []
    while len(cases) < count:
        catalog = random_schema(rng)
        query = parse_query(connected_query_sql(catalog, rng, max_selects=max_selects),
                            catalog)
        if len(query.tables) <= len(query.joins) <= max_joins:
            cases.append((render_query(query), catalog))
    return cases


def test_flat_select_stage_keeps_the_plans_at_the_optimum():
    # the final dag's join plans are exactly those with a placement that
    # ties the optimum, and each of its plans ties it
    for sql, catalog in stage_inputs() + cyclic_random_queries(10):
        query, jd = joindag_for(sql, catalog)
        assert not (query.group_by or query.order_by), sql
        flat = sprinkle.sprinkle_selects(jd, query, catalog, sqlfront.output_attrs(query, catalog))
        plans = enumerate_plans(flat, flat.query_roots["q1"])
        assert {join_plan_key(p) for p in plans} == tied_join_plans(jd, query.selects), sql
        least = min(p.cum_cost for p in plans)
        assert all(p.cum_cost <= memo.within_rounding(least) for p in plans), sql


def test_a_block_with_nothing_to_place_keeps_the_memo_estimates():
    # with no select, group-by or order-by the kept plans are the join dag's
    # own, so every eq-node and op-node of the final dag carries the join
    # dag's size and cost bits, not ones recomputed along a plan
    for seed in range(8):
        rng = random.Random(seed)
        for shape, j in [("chain", 5), ("chain", 6), ("star", 5), ("cycle", 5), ("cycle", 6)]:
            catalog = shape_catalog(shape, j, rng)
            query, jd = joindag_for(connected_query_sql(catalog, rng, max_selects=0), catalog)
            assert not (query.selects or query.group_by or query.order_by)
            final = sprinkle.sprinkle_selects(jd, query, catalog,
                                              sqlfront.output_attrs(query, catalog))
            sizes = {node.signature: node.est_size.hex() for node in jd.eq_nodes.values()}
            costs = {(jd.eq_nodes[eq].signature, op.kind, op.detail): op.op_cost.hex()
                     for eq, node in jd.eq_nodes.items()
                     for op in map(jd.op_nodes.get, node.child_ops)}
            for node in final.eq_nodes.values():
                assert node.est_size.hex() == sizes[node.signature], (seed, shape, j)
                for op in map(final.op_nodes.get, node.child_ops):
                    key = node.signature, op.kind, op.detail
                    assert op.op_cost.hex() == costs[key], (seed, shape, j)


def test_flat_blocks_without_joins_still_optimize(company_catalog):
    # a block with no joins has a base eq-node as its root, whose floor is
    # its cell at the full select set, like any root's
    nested = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    single = parse_query("select employee.fname from employee where employee.salary > 50000 "
                         "and employee.dno = 5", company_catalog)
    for query in (nested.subquery.query, single):
        res = sprinkle.optimize_single(query, company_catalog)
        ndag = naive.build_naive_dag(query, company_catalog)
        assert res.plan.cum_cost == costplan.best_plan(ndag, ndag.query_roots["q1"]).cum_cost
        assert memo.count_nodes(res.dag)[2] == 1


def test_flat_random_queries_walk_from_the_root_floor_to_the_naive_optimum():
    # flat queries reach the naive optimum, grouped and ordered ones never
    # cost more; every block's final dag holds only plans that tie its optimum
    rng = random.Random(40417)
    checked = 0
    while checked < 40:
        catalog = random_schema(rng)
        sql = connected_query_sql(catalog, rng, max_selects=3)
        flat = parse_query(sql, catalog)
        if flat.n_operations() > 7:
            continue
        for variant in [sql] + clause_variants(sql, flat, catalog)[checked % 5::5]:
            query = parse_query(variant, catalog)
            res = sprinkle.optimize_single(query, catalog)   # never "no plans under root"
            ndag = naive.build_naive_dag(query, catalog)
            best = costplan.best_plan(ndag, ndag.query_roots["q1"]).cum_cost
            if not (query.group_by or query.order_by):
                assert res.plan.cum_cost == pytest.approx(best, rel=memo.SIZE_RTOL), variant
            assert res.plan.cum_cost <= memo.within_rounding(best), variant
            for plan in enumerate_plans(res.dag, res.dag.query_roots["q1"]):
                assert plan.cum_cost <= memo.within_rounding(res.plan.cum_cost), variant
        checked += 1


# -- the state walk against the per-plan walk ----------------------------------

def reference_group_on(dp, target):
    group_by, d, having = dp.group
    one = memo.Dag()   # the group-by names its input's signature
    landing = one.eq_nodes[intern_plan(one, target)].text
    out = op_plan(KIND_GROUPBY, sqlfront.groupby_text(group_by, landing), (target,), d)
    return out if having is None else op_plan(KIND_HAVING, having.canonical(), (out,),
                                              having.ssf)


def reference_grouping(dp, size):
    """The cost of the group-by, and of its having, over an input of `size`."""
    _, d, having = dp.group
    cost = 0.0
    for kind, factor in [(KIND_GROUPBY, d)] + ([(KIND_HAVING, having.ssf)] if having else []):
        cost += costplan.op_cost(kind, (size,))
        size = costplan.estimate_size(kind, (size,), factor)
    return cost


def product_stack_cost(dp):
    """Per set T of a block's bits, a stack of T in ascending bit order on
    an input of size p costs p*cost[T]: the stack's factors multiplied out
    apart from p, a reference that rounds apart from the DP's own."""
    cost, size, done = [0.0] * dp.width, [1.0] * dp.width, [0]
    for i, (_, _, factor) in enumerate(dp.ops):
        bit = 1 << i
        for t in done:   # bit i tops the stack of t | bit
            cost[t | bit] = cost[t] + size[t]
            size[t | bit] = size[t] if factor is None else size[t] * float(factor)
        done += [t | bit for t in done]
    return cost


def reference_place(plan, dp, limit=math.inf):
    """The per-plan placement: the DP over the plan's own tree per landing
    (in increasing bound, up to one above the least total so far or
    `limit`), then every placement within rounding of the least cost built
    and the cheapest kept, landings root first, then by depth key."""
    if dp.width == 1 and dp.group is None:
        return plan
    stack_cost, ops = product_stack_cost(dp), dp.ops

    def build(node):
        if node.kind == "base":
            return dp.leaf(node.relation, node.est_size, dp.holds_order({node.relation})), node, ()
        children = tuple(map(build, node.children))
        cell = dp.node([(node, [c for c, _, _ in children])], dp.holds_order(plan_bases(node)))
        return cell, node, children

    def own_costs(node, children, u):
        """The node's operator cost and its children's least costs under u,
        from the children's tables."""
        if not children:
            return 0.0, 0.0
        if node is None:   # the group-by and its having over their input
            child = children[0][0]
            return reference_grouping(dp, child.size[u]), child.best[u]
        cells = [c for c, _, _ in children]
        return (costplan.op_cost(node.kind, tuple(c.size[u & c.mask] for c in cells)),
                sum(c.best[u & c.mask] for c in cells))

    def placements(tree, depth, s, budget):
        cell, node, children = tree
        found = []
        for u in dp.sets(s & cell.cmask, cell.fixed if dp.group else 0):
            local, below = own_costs(node, children, u)
            here = local + cell.size[u] * stack_cost[s ^ u]
            if here + below > budget:
                continue
            slack = budget - here - below
            options = [placements(c, depth + 1, u & c[0].mask, c[0].best[u & c[0].mask] + slack)
                       for c in children]
            mine = [i for i in range(len(ops)) if (s ^ u) >> i & 1]
            key = tuple(depth if i in mine else 0 for i in range(len(ops)))
            for combo in itertools.product(*options):
                cost = here + sum(c for c, _, _ in combo)
                if cost > budget:
                    continue
                if not children:
                    built = node
                elif node is None:
                    built = reference_group_on(dp, combo[0][2])
                else:
                    built = op_plan(node.kind, node.detail, tuple(p for _, _, p in combo),
                                    node.factor)
                for i in mine:
                    built = op_plan(ops[i][0], ops[i][1], (built,), ops[i][2])
                found.append((cost, tuple(map(sum, zip(key, *(k for _, k, _ in combo)))), built))
        return found

    tree = build(plan)
    full = dp.width - 1
    total = lambda top: dp.total(top[0].best[full], top[0].size[full])   # noqa: E731
    tops = [(0, tree, total(tree))]
    if dp.group is not None:
        path = [tree]
        while child := next((c for c in path[-1][2] if dp.grouping <= plan_bases(c[1])), None):
            path.append(child)
        flat, landed = total(tree), [dp.landing(cell) for cell, _, _ in path]
        tops, least = [], limit
        for bound, k in sorted((dp.bound(path[k][0], landed[k], flat), k)
                               for k in range(len(path))):
            if bound > memo.within_rounding(least):
                break
            top = (landed[k], None, (path[k],))
            for above, below in zip(reversed(path[:k]), reversed(path[1:k + 1])):
                children = tuple(top if c is below else c for c in above[2])
                top = (dp.node([(above[1], [c[0] for c in children])],
                               dp.holds_order(plan_bases(above[1]))), above[1], children)
            tops.append((k, top, total(top)))
            least = min(least, tops[-1][2])
        if not tops:
            return None
    budget = memo.within_rounding(min(cost for _, _, cost in tops))
    found = []
    for k, top, cost in tops:
        found += [(k, key, built) for _, key, built
                  in placements(top, 0, full, budget - (cost - top[0].best[full]))]
    return min(sorted(found, key=lambda c: c[:2]),
               key=lambda c: dp.total(c[2].cum_cost, c[2].est_size))[2]


def traceback_inputs(tpch_catalog, company_catalog):
    """(sql, catalog): tpch q3, q4 and tq1, the company fixtures (of a
    nested one, its outer block), and 12 cyclic random queries, each flat,
    without its selects, grouped with and without a having, ordered, and
    grouped and ordered."""
    cases = [(fixture_sql("tpch", name), tpch_catalog) for name in ("q3", "q4", "tq1")]
    cases += [(fixture_sql("company", name), company_catalog)
              for name in ("q1", "q2", "q3_nested")]
    for sql, catalog in cyclic_random_queries(12):
        query = parse_query(sql, catalog)
        joins_only = render_query(dataclasses.replace(query, selects=()))
        cases += [(variant, catalog)
                  for variant in [sql, joins_only] + clause_variants(sql, query, catalog)]
    return cases


def test_traceback_gives_the_dags_of_the_per_plan_walk(tpch_catalog, company_catalog):
    # the state walk keeps what the per-plan walk finds plan by plan: the
    # least of the per-plan placements, up to rounding, is the cost of
    # every plan of the final dag, and each of them rides on a join plan
    # whose own per-plan placement ties that least
    for sql, catalog in traceback_inputs(tpch_catalog, company_catalog):
        query, jd = joindag_for(sql, catalog)
        dp = sprinkle._block_placement(query, catalog, sqlfront.output_attrs(query, catalog))
        per_plan = {}
        for plan in enumerate_plans(jd, jd.query_roots["q1"]):
            placed = reference_place(plan, dp)
            if placed is not None:
                per_plan[plan_key(plan)] = dp.total(placed.cum_cost, placed.est_size)
        least = min(per_plan.values())
        dag = sprinkle.sprinkle_selects(jd, query, catalog, sqlfront.output_attrs(query, catalog))
        kept = enumerate_plans(dag, dag.query_roots["q1"])
        assert kept, sql
        for plan in kept:
            assert dp.total(plan.cum_cost, plan.est_size) == pytest.approx(
                least, rel=memo.SIZE_RTOL), sql
            assert per_plan[join_plan_key(plan)] <= memo.within_rounding(least), sql


def test_one_plan_memo_places_as_the_per_plan_walk(tpch_catalog):
    # the stage's pass and state walk on a memo of one plan keep the
    # placement of the per-plan DP and enumeration, at its cost up to
    # rounding; with nothing to place (tpch q3's joins, and tpch's 5-cycle,
    # whose plans carry a joinfilter) that is the input plan itself, bit
    # for bit
    nothing = [("select * from customer, orders, lineitem where customer.custkey = "
                "orders.custkey and lineitem.orderkey = orders.orderkey", tpch_catalog),
               ("select * from customer, orders, lineitem, supplier, nation "
                "where orders.custkey = customer.custkey and lineitem.orderkey = orders.orderkey "
                "and lineitem.suppkey = supplier.suppkey and supplier.nationkey = "
                "nation.nationkey and customer.nationkey = nation.nationkey", tpch_catalog)]
    filtered = 0
    for sql, catalog in bounded_landing_inputs(tpch_catalog) + nothing:
        query, jd = joindag_for(sql, catalog)
        dp = sprinkle._block_placement(query, catalog, sqlfront.output_attrs(query, catalog))
        for plan in itertools.islice(enumerate_plans(jd, jd.query_roots["q1"]), 40):
            dag = decorate_plan(plan, dp=dp)
            placed = costplan.best_plan(dag, dag.query_roots["plan"])
            expected = reference_place(plan, dp)
            assert plan_key(expected) in kept_keys(dag), sql
            assert placed.cum_cost == pytest.approx(expected.cum_cost, rel=memo.SIZE_RTOL), sql
            if (sql, catalog) in nothing:
                assert expected is plan, sql
                assert plan_key(placed) == plan_key(plan), sql
                assert placed.cum_cost.hex() == plan.cum_cost.hex(), sql
                filtered += any(node.kind == KIND_JOINFILTER for node in walk_plan(plan))
    assert filtered


# -- group-by / having / order-by placement on one plan ------------------------

def grouped_join(t_size, b_size, jsf):
    return op_plan(KIND_JOIN, "t.x = b.x",
                   (base_plan("t", t_size), base_plan("b", b_size)), jsf)


def placed_on(plan, selects=(), **block):
    """`plan` decorated by the placement DP of a block with these selects
    and `_Placement` keywords (order_by, group_by, having, d, projected)."""
    return place_selects_on_plan(plan, (), dp=sprinkle._Placement(selects, **block))


def test_groupby_descends_when_grouping_early_wins():
    # grouping t below the join costs 1000 + 10*50 and yields 0.01*10*50
    # rows; grouping at the root costs 50000 + 500 and yields 10
    plan = grouped_join(1000.0, 50.0, 0.01)
    placed = placed_on(plan, group_by=(("t", "g"),), d=10.0)
    assert placed.kind == KIND_JOIN
    gb = next(c for c in placed.children if c.kind == KIND_GROUPBY)
    assert gb.detail == "groupby(t.g)@{t}"
    assert gb.children[0].relation == "t"
    assert (placed.cum_cost, placed.est_size) == (1500.0, pytest.approx(5.0))
    at_root = op_plan(KIND_GROUPBY, "groupby(t.g)@{b,t} j[t.x = b.x]", (plan,), 10.0)
    assert (at_root.cum_cost, at_root.est_size) == (50500.0, 10.0)
    # the root projection consumes the grouped size, and grouping low still wins
    projected = placed_on(plan, group_by=(("t", "g"),), d=10.0, projected=True)
    assert plan_key(projected) == plan_key(placed)


def test_groupby_tie_stays_at_the_root():
    plan = grouped_join(10.0, 10.0, 0.1)  # 10 + 10*10 == 10*10 + 10, 10 rows either way
    placed = placed_on(plan, group_by=(("t", "g"),), d=50.0)
    assert placed.kind == KIND_GROUPBY
    assert placed.children[0].kind == KIND_JOIN
    assert placed.cum_cost == 110.0
    # grouping t first ties too (100 + 64 + 75*2 against 64 + 200 + 50), and
    # its bound is the lower (64 + 200 scaled by 0.75, plus 100), so it gets
    # its pass first: the tie still stays at the root
    ce = op_plan(KIND_JOIN, "c.y = e.y", (base_plan("c", 8.0), base_plan("e", 8.0)), 0.03125)
    plan = op_plan(KIND_JOIN, "t.x = c.x", (base_plan("t", 100.0), ce), 0.25)
    placed = placed_on(plan, group_by=(("t", "g"),), d=75.0)
    assert placed.kind == KIND_GROUPBY
    assert placed.cum_cost == 314.0


def test_having_rides_directly_above_the_groupby():
    having = HavingCondition(func="count", relation=None, attribute="*",
                             operator=">", literal=5, ssf=0.2)
    for plan in (grouped_join(1000.0, 100.0, 0.01), grouped_join(10.0, 10.0, 0.1)):
        placed = placed_on(plan, group_by=(("t", "g"),), having=having, d=5.0)
        hv = next(n for n in walk_plan(placed) if n.kind == KIND_HAVING)
        assert hv.children[0].kind == KIND_GROUPBY
        assert hv.factor == 0.2
        assert sum(n.kind == KIND_GROUPBY for n in walk_plan(placed)) == 1
    assert placed.kind == KIND_JOIN   # the second plan groups t first, shrunk by the having


def walk_plan(plan):
    yield plan
    for child in plan.children:
        yield from walk_plan(child)


def test_a_landing_bounded_above_the_optimum_gets_no_pass():
    # grouping t (1000 rows, 2000 groups) below the join keeps its 1000
    # rows, so the join costs 10000 over it as over t itself: that landing's
    # bound, r*flat plus its group-by, 10000 + 1000, is its exact total, and
    # lies above the root landing's 10000 + 10, which alone gets a pass
    plan = grouped_join(1000.0, 10.0, 0.001)
    dp = sprinkle._Placement((), group_by=(("t", "g"),), d=2000.0)
    one = memo.Dag()
    root = intern_plan(one, plan)
    memo.register_root(one, "plan", root)
    passed = sprinkle._select_floors(one, dp)
    assert [next(iter(tier)) for tier in passed.tiers] == [root]   # each tier's landing
    assert passed.optimum == {root: 10010.0}
    placed = placed_on(plan, group_by=(("t", "g"),), d=2000.0)
    assert (placed.kind, placed.cum_cost) == (KIND_GROUPBY, 10010.0)


def test_orderby_defaults_to_the_root():
    # the join keeps |t| rows: sorting at the root ties sorting t, and the
    # stage keeps both; `best_plan` breaks the exact tie on op text
    plan = grouped_join(1000.0, 100.0, 0.01)
    dag = decorate_plan(plan, dp=sprinkle._Placement((), order_by=(OrderItem("t", "g"),)))
    assert kept_keys(dag) == {
        "(orderby [orderby(t.g asc)] (join [t.x = b.x] (base b) (base t)))",
        "(join [t.x = b.x] (base b) (orderby [orderby(t.g asc)] (base t)))"}
    placed = placed_on(plan, order_by=(OrderItem("t", "g"),))
    assert placed.kind == KIND_JOIN and placed.cum_cost == 101000.0


def test_orderby_descends_when_the_join_grows():
    plan = grouped_join(10.0, 100.0, 0.5)
    # sorting t costs 10, the join's 500 rows 500
    placed = placed_on(plan, order_by=(OrderItem("t", "g"),))
    assert placed.kind == KIND_JOIN
    ob = next(c for c in placed.children if c.kind == KIND_ORDERBY)
    assert ob.children[0].relation == "t"


def test_orderby_never_crosses_a_groupby():
    # sorting t alone would cost 10, but t is inside the group-by's subtree
    # wherever it lands: the order-by goes above the group-by
    tc = op_plan(KIND_JOIN, "t.x = c.x", (base_plan("t", 10.0), base_plan("c", 100.0)), 1.0)
    plan = op_plan(KIND_JOIN, "c.y = b.y", (tc, base_plan("b", 1.0)), 1.0)
    placed = placed_on(plan, group_by=(("c", "g"), ("t", "g")), d=1e6,
                       order_by=(OrderItem("t", "g"),))
    gb = next(n for n in walk_plan(placed) if n.kind == KIND_GROUPBY)
    assert not any(n.kind == KIND_ORDERBY for n in walk_plan(gb))
    assert placed.kind == KIND_ORDERBY and placed.children[0] is gb
    assert placed.cum_cost == 1000.0 + 1000.0 + 1000.0 + 1000.0


def landing(plan, kind):
    """(child indices from the root to the `kind` node, plan_key of its input)."""
    if plan.kind == kind:
        return (), plan_key(plan.children[0])
    for i, child in enumerate(plan.children):
        found = landing(child, kind)
        if found is not None:
            return (i,) + found[0], found[1]
    return None


def sorted_over(plan, bases, text):
    """`plan` with an order-by (`text`) on its node over `bases`, each
    operator above it priced again."""
    out = plan if plan.kind == "base" else op_plan(
        plan.kind, plan.detail, tuple(sorted_over(c, bases, text) for c in plan.children),
        plan.factor)
    return op_plan(KIND_ORDERBY, text, (out,)) if plan_bases(plan) == bases else out


@example(10.0, 100.0, 100.0, 0.5, 0.5)  # both descend to the leaf t
@example(1.0, 1.0, 2.001953125, 1e-06, 0.5)   # landings that tie only up to rounding
@example(1.0, 2.00001, 4997.0, 0.5, 1.0)   # a landing the ordered walk drops below the root
@given(sizes, sizes, sizes, factors, factors)
def test_groupby_and_orderby_land_together_when_d_covers_t(t, b1, b2, j1, j2):
    # with d at least every size below the root, grouping is size-neutral
    # there, as sorting is: both cost their input's size, so they cost the
    # same up to rounding, and the group-by's landing, the tied one nearest
    # the root, is one the order-by keeps, or one where an order-by ties
    # the ordered optimum at the root, the rule by which the group-by's
    # tier is chosen (`_root_cell`), though the ordered walk, which ties
    # each state to its own least, drops it
    inner = op_plan(KIND_JOIN, "t.x = b1.x", (base_plan("t", t), base_plan("b1", b1)), j1)
    plan = op_plan(KIND_JOIN, "t.y = b2.y", (inner, base_plan("b2", b2)), j2)
    d = max(t, inner.est_size)
    grouped = placed_on(plan, group_by=(("t", "g"),), d=d)
    order_by = (OrderItem("t", "g"),)
    ordered = decorate_plan(plan, dp=sprinkle._Placement((), order_by=order_by))
    kept = enumerate_plans(ordered, ordered.query_roots["plan"])
    least = min(p.cum_cost for p in kept)
    if landing(grouped, KIND_GROUPBY) not in [landing(p, KIND_ORDERBY) for p in kept]:
        gb = next(n for n in walk_plan(grouped) if n.kind == KIND_GROUPBY)
        there = sorted_over(plan, plan_bases(gb.children[0]), sqlfront.orderby_text(order_by))
        assert there.cum_cost <= memo.within_rounding(least)
    assert grouped.cum_cost <= memo.within_rounding(least)
    assert least <= memo.within_rounding(grouped.cum_cost)


# -- the exact optimum of grouped and ordered blocks ----------------------------

def brute_force_cost(query, catalog):
    """The least cost of a block over the place stage's search space, found
    by building every point of it: every join plan; each select at any node
    on its relation's leaf-to-root path (a node's selects stacked most
    selective first); the group-by at any node that covers the grouping
    relations and holds every select on its own relations, its having
    directly above it; the order-by at any node that covers the order
    relations outside the group-by's subtree, above the having at the
    group-by's node; plus the root projection when it is retained."""
    history = joindag.build_incremental(joindag.empty_history(catalog),
                                        extract_join_set(query), catalog, 8)
    jd = sprinkle.extract_query_joindag(history, query, catalog, "q1")
    group_by = tuple(sorted(query.group_by))
    d = sqlfront.groupby_distinct_product(group_by, catalog)
    grouping = {r for r, _ in group_by}
    ordering = {item.relation for item in query.order_by}
    retained = sqlfront.output_attrs(query, catalog)
    projected = bool(retained) and retained != sqlfront.all_query_attrs(query, catalog)
    best = math.inf
    for plan in enumerate_plans(jd, jd.query_roots["q1"]):
        nodes = list(walk_plan(plan))
        bases = [plan_bases(n) for n in nodes]
        inside = [{id(m) for m in walk_plan(n)} for n in nodes]
        paths = [[i for i, b in enumerate(bases) if cond.relation in b] for cond in query.selects]
        landings = [i for i, b in enumerate(bases) if grouping <= b] if group_by else [None]
        for where in itertools.product(*paths):
            for at in landings:
                if at is not None and any(cond.relation in bases[at]
                                          and id(nodes[i]) not in inside[at]
                                          for cond, i in zip(query.selects, where)):
                    continue
                sorts = [i for i, b in enumerate(bases) if ordering <= b and (
                    at is None or i == at or id(nodes[i]) not in inside[at])]
                for ob in sorts if query.order_by else [None]:
                    built = rebuilt(plan, nodes, dict(enumerate(where)), query, at, ob, d)
                    best = min(best, built.cum_cost + (built.est_size if projected else 0.0))
    return best


def rebuilt(plan, nodes, where, query, at, ob, d):
    """`plan` with select i stacked on nodes[where[i]], the group-by (and
    having) on nodes[at] and the order-by on nodes[ob] (None: absent)."""
    index = {id(n): i for i, n in enumerate(nodes)}

    def walk(node):
        i = index[id(node)]
        out = node if node.kind == "base" else op_plan(
            node.kind, node.detail, tuple(map(walk, node.children)), node.factor)
        for cond in sorted((query.selects[k] for k, j in where.items() if j == i), key=_stack_key):
            out = op_plan(KIND_SELECT, cond.canonical(), (out,), cond.ssf)
        if i == at:
            out = op_plan(KIND_GROUPBY, sqlfront.groupby_text(sorted(query.group_by)), (out,), d)
            if query.having is not None:
                out = op_plan(KIND_HAVING, query.having.canonical(), (out,), query.having.ssf)
        if i == ob:
            out = op_plan(KIND_ORDERBY, sqlfront.orderby_text(query.order_by), (out,))
        return out

    return walk(plan)


def grouped_oracle_queries():
    """(sql, catalog): 40 random connected queries with j <= 3 and s <= 2,
    grouped (half of those with a having), ordered, or both; then each of
    them ordered on two relations."""
    rng = random.Random(1994)
    cases, two = [], []
    while len(cases) < 40:
        catalog = random_schema(rng)
        sql = connected_query_sql(catalog, rng, max_selects=2)
        query = parse_query(sql, catalog)
        if len(extract_join_set(query)) > 3:
            continue
        variants = clause_variants(sql, query, catalog)
        cases.append((variants[len(cases) % 5], catalog))
        two.append((variants[5], catalog))
    return cases + two


def test_grouped_and_ordered_blocks_reach_the_brute_force_optimum(tpch_catalog):
    cases = grouped_oracle_queries() + [(fixture_sql("tpch", "q4"), tpch_catalog)]
    below_the_root = 0
    for sql, catalog in cases:
        query = parse_query(sql, catalog)
        assert query.group_by or query.order_by
        cost = sprinkle.optimize_single(query, catalog).plan.cum_cost
        assert cost == pytest.approx(brute_force_cost(query, catalog), rel=memo.SIZE_RTOL), sql
        # the exhaustive baseline searches the same space its own way
        ndag = naive.build_naive_dag(query, catalog)
        best = costplan.best_plan(ndag, ndag.query_roots["q1"])
        assert best.cum_cost == pytest.approx(cost, rel=memo.SIZE_RTOL), sql
        below_the_root += any(n.kind in (KIND_GROUPBY, KIND_ORDERBY)
                              and plan_bases(n) != set(query.tables) for n in walk_plan(best))
    assert below_the_root >= 20


def operator_cost(cell, u):
    """The least cost of an op-node cell's operator and its inputs with U
    below it, priced from its alternatives through `costplan.op_cost`: the
    op over its inputs' sizes at U plus their best costs at U, least over
    the op-nodes whose inputs hold U, and inf where none does (every U
    outside `cmask`)."""
    return min((costplan.op_cost(op.kind, tuple(k.size[u & k.mask] for k in kids))
                + sum(k.best[u & k.mask] for k in kids)
                for op, kids in cell.alternatives if not u & ~(kids[0].mask | kids[-1].mask)),
               default=math.inf)


def pair_loop_best(dp, cell):
    """The cell's least cost per set S at or below it, from `operator_cost`
    and its own `size` by the O(3**bits) loop: every U below the operator
    (holding the bits a landing fixes), the rest stacked on its output at
    `product_stack_cost`."""
    fixed, stack_cost = getattr(cell, "fixed", 0), product_stack_cost(dp)
    best = {}
    for s in range(dp.width):
        if s & ~cell.mask or s & fixed != fixed:
            continue
        best[s] = min(operator_cost(cell, u) + cell.size[u] * stack_cost[s ^ u]
                      for u in range(s + 1) if u & ~s == 0 and u & fixed == fixed)
    return best


def one_relation_stacks():
    """(sql, catalog): random flat and ordered blocks over chains and stars
    of 3 or 4 relations, tiny to large, with 3 or 4 selects on one
    relation, of one ssf or of distinct ones, mostly unselective, so that
    stacking several at a join often pays."""
    rng = random.Random(2323)
    cases = []
    for k in range(24):
        shape, j = rng.choice(["chain", "star"]), rng.randint(2, 3)
        cards = [rng.choice([2, 10, 1000, 100000]) for _ in range(j + 1)]
        relations = [{"name": f"r{i}", "cardinality": card,
                      "attributes": [{"name": "a0", "distinct": min(card, 10)},
                                     {"name": "a1", "distinct": min(card, 10)},
                                     {"name": "b", "distinct": min(card, 5)}]}
                     for i, card in enumerate(cards)]
        pairs = [(i, i + 1) if shape == "chain" else (0, i + 1) for i in range(j)]
        rel = f"r{rng.randrange(j + 1)}"
        conds = [f"{rel}.b > {v}" for v in rng.sample(range(1, 40), rng.randint(3, 4))]
        ssf = [rng.choice([0.6, 0.9])] * len(conds) if k % 2 else \
            rng.sample([0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99], len(conds))
        catalog = make_catalog(relations, [{"left": f"r{a}.a0", "right": f"r{b}.a1",
                                            "jsf": rng.choice([0.001, 0.005, 0.1, 0.5])}
                                           for a, b in pairs],
                               overrides=dict(zip(conds, ssf)))
        sql = ("select * from " + ", ".join(f"r{i}" for i in range(j + 1)) + " where "
               + " and ".join([f"r{a}.a0 = r{b}.a1" for a, b in pairs] + conds))
        cases.append((sql + (f" order by {rel}.a0" if k % 4 > 1 else ""), catalog))
    return cases


def internal_stack_block():
    """(sql, catalog): r0's two selects belong on its join with the tiny
    r1, whose output is small, below the large r2: at the leaf each costs
    r0's size and saves little of that join, and at the root the join with
    r2 reads the unfiltered output."""
    relations = [{"name": f"r{i}", "cardinality": card,
                  "attributes": [{"name": "a0", "distinct": min(card, 100)},
                                 {"name": "a1", "distinct": min(card, 100)},
                                 {"name": "b", "distinct": min(card, 50)}]}
                 for i, card in enumerate([1000, 2, 100000])]
    catalog = make_catalog(relations, [{"left": "r0.a0", "right": "r1.a1", "jsf": 0.005},
                                       {"left": "r1.a0", "right": "r2.a1", "jsf": 0.5}],
                           overrides={"r0.b > 1": 0.6, "r0.b < 9": 0.9})
    return ("select * from r0, r1, r2 where r0.a0 = r1.a1 and r1.a0 = r2.a1 "
            "and r0.b > 1 and r0.b < 9"), catalog


def test_the_stacking_sweep_matches_the_pair_loop():
    # the DP step stacks one bit at a time in ascending order, each on the
    # best of the rest; ascending-rank stacking is optimal, so every
    # node's `best` is the pair loop's least over every U below every S
    # (leaves and landings, which hold one U below them, run the same sweep
    # and are checked state by state below)
    swept = stacked = 0
    for sql, catalog in grouped_oracle_queries() + one_relation_stacks() + [internal_stack_block()]:
        query, jd = joindag_for(sql, catalog)
        dp = sprinkle._block_placement(query, catalog, sqlfront.output_attrs(query, catalog))
        passed = sprinkle._select_floors(jd, dp)
        for cells in [passed.cells] + passed.tiers:
            for cell in cells.values():
                if cell.alternatives[0][0] is None:
                    continue
                reference = pair_loop_best(dp, cell)
                for s, cost in enumerate(cell.best):
                    if s not in reference:
                        assert cost == math.inf, sql
                        continue
                    assert cost <= memo.within_rounding(reference[s]), (sql, s)
                    assert reference[s] <= memo.within_rounding(cost), (sql, s)
                    swept += 1
                    stacked += cost < operator_cost(cell, s)
    assert (swept, stacked) == (2035, 394)   # sets compared; of them, those stacked on the node
    # the one plan kept stacks both of r0's selects on its join with r1
    sql, catalog = internal_stack_block()
    query = parse_query(sql, catalog)
    dag = sprinkle.optimize_single(query, catalog).dag
    (plan,) = enumerate_plans(dag, dag.query_roots["q1"])
    assert plan.cum_cost == pytest.approx(brute_force_cost(query, catalog), rel=memo.SIZE_RTOL)
    (below,) = [n for n in walk_plan(plan) if n.kind == KIND_JOIN and n is not plan]
    assert plan_key(plan.children[0]) == plan_key(op_plan(
        KIND_SELECT, "r0.b < 9", (op_plan(KIND_SELECT, "r0.b > 1", (below,), 0.6),), 0.9))


def alternative_costs(dp, cell, s):
    """The cost of each alternative of the state (cell, S), each priced on
    its own from its inputs' tables through `costplan.op_cost`: an op-node
    whose inputs hold S, a leaf's base relation at S = 0, a landing's
    group-by and having at its fixed set, and each bit of S not fixed below
    a landing stacked on the rest."""
    op, kids = cell.alternatives[0]
    if not kids:
        costs = [0.0] if s == 0 else []
    elif op is None:
        costs = [reference_grouping(dp, kids[0].size[s]) + kids[0].best[s]] \
            if s == cell.cmask else []
    else:
        costs = [costplan.op_cost(op.kind, tuple(k.size[s & k.mask] for k in kids))
                 + sum(k.best[s & k.mask] for k in kids)
                 for op, kids in cell.alternatives
                 if not s & ~(kids[0].mask | kids[-1].mask)]
    fixed = getattr(cell, "fixed", 0)
    for i in range(len(dp.ops)):
        if (s & ~fixed) >> i & 1:
            t = s ^ 1 << i
            costs.append(cell.best[t] + costplan.op_cost(dp.ops[i][0], (cell.size[t],)))
    return costs


def test_every_state_has_an_alternative_at_its_best_and_none_below():
    # one stacking rule for leaves, landings and op-nodes: the least
    # alternative of every state of the pass, each priced on its own, is
    # the state's DP `best` bit for bit, so the state walk keeps each
    # alternative within rounding of `best` without pricing them twice
    states = 0
    for sql, catalog in stage_inputs() + grouped_oracle_queries() + one_relation_stacks():
        query, jd = joindag_for(sql, catalog)
        dp = sprinkle._block_placement(query, catalog, sqlfront.output_attrs(query, catalog))
        passed = sprinkle._select_floors(jd, dp)
        for cells in [passed.cells] + passed.tiers:
            for cell in cells.values():
                for s, best in enumerate(cell.best):
                    if best < math.inf:
                        assert min(alternative_costs(dp, cell, s)) == best, (sql, cell.eq, s)
                        states += 1
    assert states == 5444   # states with a finite `best`, leaves' and landings' among them


def flat_oracle_queries():
    """(sql, catalog): 40 random flat connected queries with j <= 3 and
    s <= 3."""
    rng = random.Random(2002)
    cases = []
    while len(cases) < 40:
        catalog = random_schema(rng)
        sql = connected_query_sql(catalog, rng, max_selects=3)
        if len(extract_join_set(parse_query(sql, catalog))) <= 3:
            cases.append((sql, catalog))
    return cases


def test_every_kept_op_node_ties_the_least_of_its_eq_node():
    # the place stage keeps, at each state, every alternative within
    # rounding of the state's least: in the final dag, each op-node's cost
    # over its inputs' least lies within rounding of its eq-node's least,
    # and every plan of it ties the brute-force optimum
    for sql, catalog in flat_oracle_queries() + grouped_oracle_queries():
        query = parse_query(sql, catalog)
        dag = sprinkle.optimize_single(query, catalog).dag
        least = {}
        for eq_id in reversed(memo.topological_order(dag)):
            costs = [op.op_cost + sum(least[c] for c in op.children)
                     for op in map(dag.op_nodes.__getitem__, dag.eq_nodes[eq_id].child_ops)]
            least[eq_id] = min(costs, default=0.0)
            assert all(cost <= memo.within_rounding(least[eq_id]) for cost in costs), sql
        optimum = brute_force_cost(query, catalog)
        for plan in enumerate_plans(dag, dag.query_roots["q1"]):
            assert plan.cum_cost == pytest.approx(optimum, rel=memo.SIZE_RTOL), sql


def twelve_join_chain_sql():
    return ("select * from " + ", ".join(f"r{i}" for i in range(13)) + " where "
            + " and ".join(f"r{i}.a0 = r{i + 1}.a1" for i in range(12))
            + " and r3.b > 5 and r7.b > 5")


def test_twelve_join_chain_decorates_few_of_its_plans(monkeypatch):
    # of 208012 join plans, 128 tie the flat chain's optimum exactly, each
    # with both selects on their leaves, and its final dag holds those
    # (ordered, the order-by sits on r7's select); 120 more lie 9.0e-10
    # above it in exact arithmetic, within the root's rounding but beyond
    # some state's.  The pass prices each of the 78 eq-nodes once: the 16
    # with neither r3 nor r7 below them from the price table, the 62 others
    # by a DP step; grouping adds one step per node above each landing it
    # prices.  The registered landing, {r1..r6}, holds 48 plans; ordered on
    # r3.b, the order-by sits on it or on its join with r7, which keeps its
    # size: 96
    catalog = chain_catalog(12)
    steps = counting(monkeypatch, sprinkle._Placement, "node")
    for clauses, counts in (("", (62, 16, 128)), (" group by r3.b", (122, 16, 48)),
                            (" order by r7.a0", (62, 16, 128)),
                            (" group by r3.b order by r3.b", (122, 16, 96))):
        steps.clear()
        res = sprinkle.optimize_single(parse_query(twelve_join_chain_sql() + clauses, catalog),
                                       catalog, limit=12)
        assert memo.count_nodes(res.jd)[2] == 208012
        plans = memo.plan_count_for(res.dag, res.dag.query_roots["q1"])
        assert (len(own_steps(steps, res.jd)), filled(res.jd), plans) == counts, clauses


def test_no_plan_of_the_twelve_join_chain_lies_above_rounding():
    # each eq-node's costliest plan, inputs first: the final dag holds no
    # plan above the optimum's rounding, flat or ordered
    catalog = chain_catalog(12)
    for clauses in ("", " order by r7.a0"):
        res = sprinkle.optimize_single(parse_query(twelve_join_chain_sql() + clauses, catalog),
                                       catalog, limit=12)
        dag, worst = res.dag, {}
        for eq_id in reversed(memo.topological_order(dag)):
            worst[eq_id] = max((op.op_cost + sum(worst[c] for c in op.children)
                                for op in map(dag.op_nodes.__getitem__,
                                              dag.eq_nodes[eq_id].child_ops)), default=0.0)
        assert worst[dag.query_roots["q1"]] <= memo.within_rounding(res.plan.cum_cost), clauses


TWO_RELATION_ORDERS = (
    # (ORDER BY, optimum): department's op-nodes split the three relations
    # two ways, and only one of them has an input that covers both order
    # relations; in the first query sorting below that join costs more
    ("department.dname, employee.fname", 53500.0),
    ("department.dname, project.pname", 51050.0))


def two_relation_order_sql(order):
    return ("select * from department, employee, project where employee.dno = "
            "department.dnumber and project.dnum = department.dnumber order by " + order)


def test_an_order_by_over_two_relations_keeps_its_cost(company_catalog):
    complete = joindag.build_complete_history(company_catalog, company_catalog.graph.edges)
    for order, optimum in TWO_RELATION_ORDERS:
        query = parse_query(two_relation_order_sql(order), company_catalog)
        ndag = naive.build_naive_dag(query, company_catalog)
        assert costplan.best_plan(ndag, ndag.query_roots["q1"]).cum_cost == optimum
        assert brute_force_cost(query, company_catalog) == optimum
        for history in (None, complete):   # cold, and warm over the whole schema
            plan = sprinkle.optimize_single(query, company_catalog, history=history).plan
            assert plan.cum_cost == optimum, (order, history)
            (sort,) = [n for n in walk_plan(plan) if n.kind == KIND_ORDERBY]
            assert (sort is plan) == (optimum == 53500.0), (order, history)


def test_cold_tpch_q4_groups_below_its_joinfilter(tpch_catalog):
    query = parse_query(fixture_sql("tpch", "q4"), tpch_catalog)
    res = sprinkle.optimize_single(query, tpch_catalog)
    assert res.plan.cum_cost == pytest.approx(3211601.0, rel=memo.SIZE_RTOL)
    gb = next(n for n in walk_plan(res.plan) if n.kind == KIND_GROUPBY)
    assert gb is not res.plan.children[0]   # below the root's joins, not above them


# -- only landings whose bound can reach the optimum get a pass -------------------

def reference_tiers(dag, dp):
    """The plain tables, every landing's (landing, its tier's tables, bound,
    root totals) and each root's optimum, found by one DP pass over the
    nodes above each landing: the tier loop of `_select_floors` with no
    landing skipped."""
    order = memo.topological_order(dag)[::-1]
    cells = {}
    for eq_id in order:
        node = dag.eq_nodes[eq_id]
        ordered = dp.holds_order(node.signature[0])
        if node.is_base:
            cells[eq_id] = dp.leaf(node.signature[0][0], node.est_size, ordered)
            continue
        ops = [dag.op_nodes[op_id] for op_id in node.child_ops]
        cells[eq_id] = dp.node([(op, [cells[c] for c in op.children]) for op in ops], ordered)
    full, roots = dp.width - 1, set(dag.query_roots.values())
    total = lambda cell: dp.total(cell.best[full], cell.size[full])  # noqa: E731
    flat = min(total(cells[r]) for r in roots)
    tiers = []
    for i, landing in enumerate(order):
        if not dp.grouping <= set(dag.eq_nodes[landing].signature[0]):
            continue
        tier = {landing: dp.landing(cells[landing])}
        for up in order[i + 1:]:
            ops = [op for op in map(dag.op_nodes.__getitem__, dag.eq_nodes[up].child_ops)
                   if any(c in tier for c in op.children)]
            if ops:
                tier[up] = dp.node([(op, [tier.get(c, cells[c]) for c in op.children])
                                    for op in ops], dp.holds_order(dag.eq_nodes[up].signature[0]))
        tiers.append((landing, tier, dp.bound(cells[landing], tier[landing], flat),
                      {r: total(tier[r]) for r in roots & tier.keys()}))
    best = {r: min(totals.get(r, math.inf) for *_, totals in tiers) for r in roots}
    return cells, tiers, best


def landing_bounds(dag, dp):
    """(bound, least root total of its tier) of every landing."""
    return [(bound, min(totals.values())) for *_, bound, totals in reference_tiers(dag, dp)[1]]


def tables(cells):
    """Each cell's least costs at each S it can hold: a cell of the price
    table keeps set 0 alone, as nothing may sit at or below its node."""
    return {eq_id: [cell.best[s] for s in sprinkle._Placement.sets(cell.mask)]
            for eq_id, cell in cells.items()}


def bounded_landing_inputs(tpch_catalog):
    """(sql, catalog): grouped variants of cyclic random queries, with and
    without a having, an order-by and a retained projection, and tpch q3, q4
    and tq1, as they are and with a having."""
    cases = []
    for sql, catalog in cyclic_random_queries(12):
        variants = clause_variants(sql, parse_query(sql, catalog), catalog)
        cases += [(variant, catalog) for variant in variants if "group by" in variant]
    for name in ("q3", "q4", "tq1"):
        sql = fixture_sql("tpch", name).strip()
        cases += [(sql, tpch_catalog), (sql.replace("\norder by", " having count(*) > 2\norder by")
                                        if "order by" in sql else sql + " having count(*) > 2",
                                        tpch_catalog)]
    return cases


def test_landing_bounds_never_exceed_their_totals(tpch_catalog):
    # on the memo and on each plan, a landing's bound is at most the least
    # root total of its pass, up to the rounding of sums taken in another
    # order; the pass prices every landing that can tie a root's optimum,
    # and skipping the others leaves the optimum and every table exact
    for sql, catalog in bounded_landing_inputs(tpch_catalog):
        query, jd = joindag_for(sql, catalog)
        dp = sprinkle._block_placement(query, catalog, sqlfront.output_attrs(query, catalog))
        cells, tiers, best = reference_tiers(jd, dp)
        passed = sprinkle._select_floors(jd, dp)
        assert passed.optimum == best, sql
        assert tables(passed.cells) == tables(cells), sql
        reference = {landing: tables(tier) for landing, tier, *_ in tiers}
        priced = {next(iter(tier)): tables(tier) for tier in passed.tiers}
        assert all(reference[landing] == t for landing, t in priced.items()), sql
        for landing, _, _, totals in tiers:
            if any(t <= memo.within_rounding(best[r]) for r, t in totals.items()):
                assert landing in priced, sql
        landings = landing_bounds(jd, dp)
        for plan in itertools.islice(enumerate_plans(jd, jd.query_roots["q1"]), 40):
            one = memo.Dag()
            memo.register_root(one, "q1", intern_plan(one, plan))
            landings += landing_bounds(one, dp)
        assert all(bound <= memo.within_rounding(total) for bound, total in landings), sql


def test_landing_bound_holds_for_a_having_that_grows_its_input():
    # a parsed having's ssf is at most 1, so the landing's ratio r is too; the
    # bound caps r at 1 all the same, as only then does every op off the
    # landing's path cost at least r times its plain cost
    having = HavingCondition(func="count", relation=None, attribute="*",
                             operator=">", literal=5, ssf=4.0)
    dp = sprinkle._Placement((), group_by=(("t", "g"),), having=having, d=1e9)
    one = memo.Dag()
    memo.register_root(one, "q1", intern_plan(one, grouped_join(1000.0, 50.0, 0.01)))
    landings = landing_bounds(one, dp)
    assert len(landings) == 2
    assert all(bound <= total for bound, total in landings)


def test_cold_grouped_tpch_blocks_pass_over_few_nodes(tpch_catalog, monkeypatch):
    # the memo pass is the only DP a block runs: each eq-node priced once,
    # from the price table where nothing may sit at or below it (3 of tq1's
    # 36, 6 of q4's 24) and by a step elsewhere, and one step per node above
    # each landing whose bound can reach the optimum (a pass for every
    # landing takes 184 steps on tq1 and 75 on q4)
    steps = counting(monkeypatch, sprinkle._Placement, "node")
    for name, counts in (("tq1", (59, 3)), ("q4", (27, 6))):
        steps.clear()
        res = sprinkle.optimize_single(parse_query(fixture_sql("tpch", name), tpch_catalog),
                                       tpch_catalog)
        assert (len(own_steps(steps, res.jd)), filled(res.jd)) == counts, name


def test_a_cold_flat_block_sorts_its_join_dag_once(company_catalog, monkeypatch):
    # every sort over the join dag's own node objects counts, under any
    # view; plan extraction sorts the final dag, a different dag
    calls = []
    order = memo.topological_order
    monkeypatch.setattr(memo, "topological_order",
                        lambda dag, *root: calls.append(dag) or order(dag, *root))
    query = parse_query(fixture_sql("company", "q2"), company_catalog)
    res = sprinkle.optimize_single(query, company_catalog)
    jd_nodes = {id(node) for node in res.jd.eq_nodes.values()}
    assert sum(not jd_nodes.isdisjoint(map(id, dag.eq_nodes.values())) for dag in calls) == 1
    assert memo.count_nodes(res.jd)[::2] == memo.count_nodes(
        sprinkle.extract_query_joindag(res.history, query, company_catalog, "q1"))[::2]


def test_groupby_stage_keeps_one_signature_class(company_catalog):
    sql = ("select employee.dno, count(*) "
           "from employee, works_on, project "
           "where employee.ssn = works_on.ssn and works_on.pno = project.pnumber "
           "group by employee.dno")
    q = parse_query(sql, company_catalog)
    res = sprinkle.optimize_single(q, company_catalog)
    root_sigs = {res.dag.eq_nodes[r].signature
                 for r in res.dag.query_roots.values()}
    assert len(root_sigs) == 1


# -- projection stage ----------------------------------------------------------

def test_root_projection_retained_and_elided():
    catalog = chain_catalog(1)
    narrow = parse_query("select r0.b from r0, r1 where r0.a0 = r1.a1", catalog)
    res = sprinkle.optimize_single(narrow, catalog)
    assert res.plan.kind == KIND_PROJECT and res.plan.detail == "project(r0.b)"
    star = parse_query("select * from r0, r1 where r0.a0 = r1.a1", catalog)
    res2 = sprinkle.optimize_single(star, catalog)
    assert res2.plan.kind != KIND_PROJECT


def test_projection_is_size_and_cost_neutral_at_the_root():
    catalog = chain_catalog(1)
    narrow = parse_query("select r0.b from r0, r1 where r0.a0 = r1.a1", catalog)
    star = parse_query("select * from r0, r1 where r0.a0 = r1.a1", catalog)
    with_proj = sprinkle.optimize_single(narrow, catalog).plan
    without = sprinkle.optimize_single(star, catalog).plan
    assert with_proj.est_size == without.est_size
    assert with_proj.cum_cost == without.cum_cost + without.est_size


def test_shared_run_adds_interior_projections(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    shared, plans, history = sprinkle.optimize_many(
        [("q1", q1), ("q2", q2)], company_catalog)
    assert plans["q1"].cum_cost == 57600.0
    assert plans["q2"].cum_cost == 18660.0
    assert history.version == 2
    root_eqs = set(shared.query_roots.values())
    interior = {op.detail
                for eq_id, node in shared.eq_nodes.items()
                if eq_id not in root_eqs
                for op_id in node.child_ops
                for op in (shared.op_nodes[op_id],)
                if op.kind == KIND_PROJECT}
    assert "project(works_on.pno, works_on.ssn)" in interior
    assert "project(employee.fname, employee.ssn)" in interior


def outputs(queries, catalog):
    """The `sprinkle_projects` argument for `queries`: each id's output attributes."""
    return {qid: sqlfront.output_attrs(query, catalog) for qid, query in queries}


def interior_projections(shared):
    return {memo.signature_text(shared.eq_nodes[op.children[0]].signature): op.detail
            for op in shared.op_nodes.values()
            if op.kind == KIND_PROJECT and op.children[0] not in shared.query_roots.values()}


def test_interior_projections_follow_consumers_through_higher_ids(tpch_catalog):
    # a second join order interned after the first hangs new, higher-id
    # eq-nodes under the existing root: eq ids are not topological
    catalog = chain_catalog(3)
    dag = memo.Dag()
    r0, r1, r2, r3 = (memo.ensure_base(dag, f"r{i}", 1000.0) for i in range(4))

    def join(a, b, i):
        return costplan.intern_op(dag, KIND_JOIN, f"r{i}.a0 = r{i + 1}.a1", (a, b), 0.01)

    r01 = join(r0, r1, 0)
    r012 = join(r01, r2, 1)
    root = join(r012, r3, 2)
    r12 = join(r1, r2, 1)
    r123 = join(r12, r3, 2)
    assert join(r0, r123, 0) == root < r12 < r123
    memo.register_root(dag, "q1", root)
    r23 = join(r2, r3, 2)
    memo.register_root(dag, "q2", r23)
    queries = [("q1", "select r0.b, r2.b from r0, r1, r2, r3 where r0.a0 = r1.a1 "
                      "and r1.a0 = r2.a1 and r2.a0 = r3.a1"),
               ("q2", "select r3.b from r2, r3 where r2.a0 = r3.a1")]
    shared = sprinkle.sprinkle_projects(
        dag, outputs([(qid, parse_query(sql, catalog)) for qid, sql in queries], catalog),
        catalog)
    projections = {op.children[0]: op.detail for op in shared.op_nodes.values()
                   if op.kind == KIND_PROJECT and op.children[0] not in (root, r23)}
    # r12 needs what the root needs of r123 (r1.a1 for its join with r0,
    # r2.b for the output), and r01 what the root needs of r012
    assert projections == {r01: "project(r0.b, r1.a0)",
                           r012: "project(r0.b, r2.a0, r2.b)",
                           r12: "project(r1.a1, r2.a0, r2.b)",
                           r123: "project(r1.a1, r2.b)"}
    queries = [(q, parse_query(fixture_sql("tpch", q), tpch_catalog))
               for q in ("q1", "q2", "q3", "q4", "tq1")]
    shared, _, _ = sprinkle.optimize_many(queries, tpch_catalog)
    projections = interior_projections(shared)
    # tq1 groups {customer,nation,region,supplier}: its consumers need the
    # grouping key and both join keys
    assert projections["{customer,nation,region,supplier} j[customer.nationkey = "
                       "supplier.nationkey; nation.nationkey = supplier.nationkey; "
                       "nation.regionkey = region.regionkey] u[region.name = 'asia']"] == \
        "project(customer.custkey, nation.name, supplier.suppkey)"


def test_interior_projections_retain_what_consumers_need(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    shared, _, _ = sprinkle.optimize_many([("q1", q1), ("q2", q2)],
                                          company_catalog)
    # every projection keeps exactly the attributes some consumer references
    for eq_id, node in shared.eq_nodes.items():
        sig = node.signature
        if not sig[3]:
            continue
        consumed = set()
        for other in shared.eq_nodes.values():
            for op_id in other.child_ops:
                op = shared.op_nodes[op_id]
                if eq_id in op.children:
                    consumed |= sprinkle._op_refs(op.kind, op.detail)
        for attr in consumed:
            rel = attr.split(".")[0]
            if rel in sig[0]:
                assert attr in sig[3]


def test_single_query_mode_adds_no_interior_projections(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    res = sprinkle.optimize_single(q1, company_catalog)
    projs = [op for op in res.dag.op_nodes.values() if op.kind == KIND_PROJECT]
    assert len(projs) == 1  # the root projection only


def test_optimize_many_matches_single_runs(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    singles = {qid: sprinkle.optimize_single(q, company_catalog).plan.cum_cost
               for qid, q in (("q1", q1), ("q2", q2))}
    _, plans, _ = sprinkle.optimize_many([("q1", q1), ("q2", q2)],
                                         company_catalog)
    assert {k: p.cum_cost for k, p in plans.items()} == singles


def test_optimize_many_rejects_a_repeated_query_id(monkeypatch, company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    optimized = counting(monkeypatch, sprinkle, "optimize_single")
    with pytest.raises(ValidationError, match="query id 'q' is repeated"):
        sprinkle.optimize_many([("q", q1), ("q", q2)], company_catalog)
    assert not optimized


def test_sprinkle_projects_extends_the_dag_it_is_given(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    queries = [("q1", q1), ("q2", q2)]
    for qs in (queries[:1], queries):
        dag = memo.Dag()
        for query_id, query in qs:
            jd = sprinkle.optimize_single(query, company_catalog).jd
            memo.register_root(dag, query_id, memo.merge_below(dag, jd, jd.query_roots["q1"]))
        ops = len(dag.op_nodes)
        assert sprinkle.sprinkle_projects(dag, outputs(qs, company_catalog),
                                          company_catalog) is dag
        assert len(dag.op_nodes) > ops


def enumerate_and_intern(queries, catalog):
    """`optimize_many` as it merged before `memo.merge_below`: every plan of
    each query's result dag, in query-id order, interned into the shared
    dag."""
    ordered = sorted(queries, key=lambda pair: pair[0])
    grown, shared = joindag.empty_history(catalog), memo.Dag()
    for query_id, query in ordered:
        res = sprinkle.optimize_single(query, catalog, history=grown, query_id=query_id)
        grown = res.history
        for plan in enumerate_plans(res.dag, res.dag.query_roots[query_id]):
            root = intern_plan(shared, plan)
        memo.register_root(shared, query_id, root)
    sprinkle.sprinkle_projects(shared, outputs(ordered, catalog), catalog)
    return shared, {qid: costplan.best_plan(shared, shared.query_roots[qid])
                    for qid, _ in queries}


def shared_facts(shared, plans):
    """What a shared dag and its plans show with node ids left out."""
    def sig(eq_id):
        return shared.eq_nodes[eq_id].signature

    arcs = {(sig(eq_id), op.kind, op.detail, tuple(map(sig, op.children))):
            (op.op_cost.hex(), op.factor)
            for eq_id, node in shared.eq_nodes.items()
            for op in map(shared.op_nodes.__getitem__, node.child_ops)}
    return {"arc signatures": memo.arc_signature_set(shared),
            "sizes": {n.signature: n.est_size.hex() for n in shared.eq_nodes.values()},
            "arcs": arcs,
            "roots": {qid: sig(eq_id) for qid, eq_id in shared.query_roots.items()},
            "plans": {qid: (plan_key(p), p.cum_cost.hex()) for qid, p in plans.items()}}


def connected_part_sql(catalog, rng, max_selects=2):
    """SELECT * over a random connected part of the largest FK-connected
    component (one relation, or all of it) with random selects."""
    comp = max(catalog.graph.components(), key=len)
    edges = [e for e in catalog.graph.edges if set(e.relations()) <= comp]
    rels, size = {rng.choice(sorted(comp))}, rng.randint(1, len(comp))
    while len(rels) < size:
        rels.add(rng.choice(sorted({r for e in edges for r in e.relations()
                                    if set(e.relations()) & rels} - rels)))
    conds = [f"{e.left[0]}.{e.left[1]} = {e.right[0]}.{e.right[1]}"
             for e in edges if set(e.relations()) <= rels]
    conds += [f"{rng.choice(sorted(rels))}.b > {rng.randint(1, 40)}"
              for _ in range(rng.randint(0, max_selects))]
    return (f"select * from {', '.join(sorted(rels))}"
            + (" where " + " and ".join(conds) if conds else ""))


def three_query_sets(count):
    """(queries, catalog) per set: three queries over one `random_schema`
    catalog, every other set's graph with a cycle, each query over a
    connected part of it, flat, grouped, ordered, or both."""
    rng = random.Random(1906)
    sets = []
    while len(sets) < count:
        catalog = random_schema(rng, max_edges=8)
        comp = max(catalog.graph.components(), key=len)
        cyclic = sum(1 for e in catalog.graph.edges if set(e.relations()) <= comp) >= len(comp)
        if cyclic != (len(sets) % 2 == 1):
            continue
        queries = []
        for i in range(3):
            query = parse_query(connected_part_sql(catalog, rng), catalog)
            rel = sorted(query.tables)[0]
            sql = render_query(query) + ("", f" group by {rel}.b", f" order by {rel}.a0",
                                         f" group by {rel}.b order by {rel}.b")[
                                             (len(sets) + i) % 4]
            queries.append((f"q{i}", parse_query(sql, catalog)))
        sets.append((queries, catalog))
    return sets


def symmetric_star(n):
    """A star of n 1000-row leaves around a 1000-row centre, jsf 0.01: all
    of its join orders tie."""
    relations = [{"name": f"r{i}", "cardinality": 1000.0,
                  "attributes": [{"name": "a0", "distinct": 100},
                                 {"name": "a1", "distinct": 100},
                                 {"name": "b", "distinct": 50}]} for i in range(n + 1)]
    edges = [{"left": "r0.a0", "right": f"r{i}.a1", "jsf": 0.01} for i in range(1, n + 1)]
    return make_catalog(relations, edges)


def test_the_place_stage_attaches_each_kept_op_node_once(monkeypatch):
    # the 5040 join orders of a warm 7-leaf star all tie, and the final
    # dag holds them all: the walk attaches each of its 448 op-nodes once,
    # not once per plan that holds it
    star = symmetric_star(7)
    query = parse_query("select * from " + ", ".join(f"r{i}" for i in range(8)) + " where "
                        + " and ".join(f"r0.a0 = r{i}.a1" for i in range(1, 8)), star)
    history = joindag.build_incremental(joindag.empty_history(star), extract_join_set(query),
                                        star, 8)
    attached = counting(monkeypatch, memo, "attach_op")
    res = sprinkle.optimize_single(query, star, history=history)
    assert len(attached) == len(res.dag.op_nodes) == 448
    assert memo.plan_count_for(res.dag, res.dag.query_roots["q1"]) == 5040
    assert memo.arc_signature_set(res.dag) == memo.arc_signature_set(res.jd)


def test_optimize_many_merges_the_memos_node_for_node(monkeypatch, company_catalog,
                                                      tpch_catalog):
    """The shared dag and plans of `optimize_many` are those of the
    enumerate-and-intern merge, on the fixture sets, 40 random three-query
    sets and a star whose 720 join orders tie; each merge leaves its source
    as it was."""
    cases = []
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        queries = [(path.stem, parse_query(path.read_text(), catalog))
                   for path in sorted((FIXTURES / group).glob("*.sql"))]
        cases.append(([(qid, q) for qid, q in queries if q.subquery is None], catalog))
    cases += three_query_sets(40)
    star = symmetric_star(6)
    cases.append(([(qid, parse_query(
        f"select * from {', '.join(f'r{i}' for i in range(k + 1))} where "
        + " and ".join(f"r0.a0 = r{i}.a1" for i in range(1, k + 1)) + extra, star))
        for qid, k, extra in (("full", 6, ""), ("part", 4, " and r2.b > 9"))], star))
    merge, untouched = memo.merge_below, []

    def recording(dst, src, root):
        before = memo.dag_to_doc(src)
        out = merge(dst, src, root)
        untouched.append(memo.dag_to_doc(src) == before)
        return out

    monkeypatch.setattr(memo, "merge_below", recording)
    cyclic = grouped = ordered = 0
    for queries, catalog in cases:
        shared, plans, _ = sprinkle.optimize_many(queries, catalog)
        oracle = enumerate_and_intern(queries, catalog)
        assert shared_facts(shared, plans) == shared_facts(*oracle), queries
        cyclic += any(op.kind == memo.KIND_JOINFILTER for op in shared.op_nodes.values())
        grouped += any(q.group_by for _, q in queries)
        ordered += any(q.order_by for _, q in queries)
    assert len(untouched) == sum(len(queries) for queries, _ in cases) and all(untouched)
    assert memo.plan_count_for(shared, shared.query_roots["full"]) == 720   # the star, last
    assert cyclic >= 10 and grouped >= 30 and ordered >= 30


# -- end-to-end orchestration --------------------------------------------------

def test_optimize_single_company_q1(company_catalog):
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    res = sprinkle.optimize_single(q, company_catalog)
    assert res.plan.cum_cost == 57600.0
    assert res.combinations_considered == 2
    assert memo.count_nodes(res.jd)[::2] == (6, 2)
    assert memo.count_nodes(res.dag) == (8, 5, 1)
    assert res.history.version == 1
    assert set(res.history.known_joins) == {
        "employee.ssn = works_on.ssn", "project.pnumber = works_on.pno"}


def test_history_reuse_across_queries(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    first = sprinkle.optimize_single(q1, company_catalog)
    second = sprinkle.optimize_single(q2, company_catalog,
                                      history=first.history)
    assert second.history.version == 2
    assert len(second.history.known_joins) == 3
    assert second.plan.cum_cost == 18660.0
    # rerunning q1 against the grown history changes nothing about its plan
    again = sprinkle.optimize_single(q1, company_catalog,
                                     history=second.history)
    assert again.plan.cum_cost == 57600.0


def test_extract_query_joindag_subset(company_catalog):
    from conftest import make_catalog  # noqa: F401  (kept for symmetry)
    history = joindag.build_complete_history(company_catalog, company_catalog.graph.edges)
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    jd = sprinkle.extract_query_joindag(history, q, company_catalog, "q1")
    assert memo.count_nodes(jd) == (6, 4, 2)
    root = jd.eq_nodes[jd.query_roots["q1"]]
    assert root.signature[0] == ("employee", "project", "works_on")
    # extraction from the 5-join history equals a 2-join standalone build
    small = joindag.build_complete_history(
        company_catalog,
        tuple(j for j in company_catalog.graph.edges
              if j.canonical() in set(root.signature[1])))
    assert {n.signature for n in jd.eq_nodes.values()} == \
        {n.signature for n in small.dag.eq_nodes.values()}
    assert memo.arc_signature_set(jd) == memo.arc_signature_set(small.dag)


def reference_extract_query_joindag(history, query, catalog, query_id):
    """The join dag's extraction as it first was, kept verbatim: every
    reachable op-node is attached again into a new dag."""
    out = memo.Dag()
    if not query.joins:
        (rel,) = query.tables
        root = memo.ensure_base(out, rel, float(catalog.relation(rel).cardinality))
        memo.register_root(out, query_id, root)
        return out
    bases = {t: float(catalog.relation(t).cardinality) for t in sorted(query.tables)}
    join_texts = tuple(sorted(j.canonical() for j in extract_join_set(query)))
    src_root = joindag.query_join_root(history, bases, join_texts)
    mapping: dict[int, int] = {}

    def clone(eq_id: int) -> int:
        if eq_id not in mapping:
            node = history.dag.eq_nodes[eq_id]
            if node.is_base:
                mapping[eq_id] = memo.ensure_base(out, node.signature[0][0], node.est_size)
            for op_id in sorted(node.child_ops):
                op = history.dag.op_nodes[op_id]
                mapping[eq_id] = memo.attach_op(
                    out, op.kind, op.detail, tuple(clone(c) for c in op.children),
                    node.est_size, op.op_cost, op.factor)
        return mapping[eq_id]

    memo.register_root(out, query_id, clone(src_root))
    return out


def extraction_cases(tmp_path):
    """(history, query, catalog): every flat fixture query against a built,
    saved and reloaded history of its schema (the schema's FK joins and
    every fixture query's), and cyclic `random_schema` queries against a
    history built in this process."""
    for schema in ("company", "tpch"):
        catalog = load_catalog((FIXTURES / schema / "schema.json").read_text())
        queries = [parse_query(path.read_text(), catalog)
                   for path in sorted((FIXTURES / schema).glob("*.sql"))]
        flat = [q for q in queries if q.subquery is None]
        joins = {j.canonical(): j for q in flat for j in extract_join_set(q)}
        joins.update((j.canonical(), j) for j in catalog.graph.edges)
        path = str(tmp_path / f"{schema}.json")
        joindag.save_history(joindag.build_complete_history(
            catalog, tuple(joins[t] for t in sorted(joins))), path)
        history = joindag.load_history(path)
        for query in flat:
            yield history, query, catalog
    rng = random.Random(8)
    cyclic = 0
    while cyclic < 10:
        catalog = random_schema(rng)
        comp = max(catalog.graph.components(), key=len)
        if sum(e.left[0] in comp for e in catalog.graph.edges) < len(comp):
            continue  # no cycle
        cyclic += 1
        query = parse_query(connected_query_sql(catalog, rng), catalog)
        yield (joindag.build_incremental(joindag.empty_history(catalog),
                                         extract_join_set(query), catalog, 8),
               query, catalog)


def arc_costs(dag):
    """Each arc's op cost and factor, by its id-free entry in
    `memo.arc_signature_set`."""
    return {(node.signature, op.kind, op.detail,
             tuple(dag.eq_nodes[c].signature for c in op.children)): (op.op_cost, op.factor)
            for node in dag.eq_nodes.values()
            for op in map(dag.op_nodes.__getitem__, node.child_ops)}


def check_join_dag(history, query, catalog, history_arg, attached):
    """The join dag of `query` read from `history` against the reference
    extraction, ids aside, and `optimize_single`'s count of its eq-nodes,
    `history_arg` the history it is passed; `attached` records each
    `memo.attach_op` call.  Returns the join dag."""
    expected = reference_extract_query_joindag(history, query, catalog, "q1")
    roots, n_ops = memo.dag_roots(history.dag), len(history.dag.op_nodes)
    attached.clear()
    jd = sprinkle.extract_query_joindag(history, query, catalog, "q1")
    assert attached == []
    sizes = {node.signature: node.est_size for node in jd.eq_nodes.values()}
    assert sizes == {node.signature: node.est_size for node in expected.eq_nodes.values()}
    assert memo.arc_signature_set(jd) == memo.arc_signature_set(expected)
    assert arc_costs(jd) == arc_costs(expected)
    if query.joins:   # the history's own nodes, exactly those below the query's
        reached = {history.dag.find_eq(sig) for sig in sizes}
        assert jd.eq_nodes.keys() == reached
        assert all(jd.eq_nodes[i] is history.dag.eq_nodes[i] for i in reached)
        assert all(jd.op_nodes[i] is history.dag.op_nodes[i] for i in jd.op_nodes)
    (root,) = jd.query_roots.values()
    assert jd.query_roots == {"q1": root}
    assert jd.eq_nodes[root].signature == expected.eq_nodes[expected.query_roots["q1"]].signature
    for eq_id, node in jd.eq_nodes.items():
        assert jd.find_eq(node.signature) == eq_id
        for op_id in node.child_ops:   # re-attaching reads the op-node, and writes nothing
            op = jd.op_nodes[op_id]
            assert memo.attach_op(jd, op.kind, op.detail, op.children, node.est_size,
                                  op.op_cost, op.factor) == eq_id
    assert not history.dag.query_roots   # the query root is the view's alone
    assert (memo.dag_roots(history.dag), len(history.dag.op_nodes)) == (roots, n_ops)
    result = sprinkle.optimize_single(query, catalog, history=history_arg)
    assert len(result.jd.eq_nodes) == len(expected.eq_nodes)
    return jd


def test_query_joindag_is_a_copy_of_the_history(tmp_path, monkeypatch, tpch_catalog):
    """A warm block's join dag holds the history's own nodes below the
    query's full-join node, with the sizes, arcs, costs and factors the
    reference extraction attaches again into a copy, and attaches none."""
    attach = memo.attach_op
    calls = []
    monkeypatch.setattr(memo, "attach_op",
                        lambda *a, **k: calls.append(a[1]) or attach(*a, **k))
    cases = list(extraction_cases(tmp_path))
    assert len(cases) == 7 + 10
    for history, query, catalog in cases:
        check_join_dag(history, query, catalog, history, calls)
    # a warm tpch block whose joins are a part of its history's
    history = joindag.build_complete_history(tpch_catalog, tpch_catalog.graph.edges)
    query = parse_query(fixture_sql("tpch", "q3"), tpch_catalog)
    jd = check_join_dag(history, query, tpch_catalog, history, calls)
    assert len(jd.eq_nodes) < len(history.dag.eq_nodes)


def test_extract_single_relation_query(company_catalog):
    q = parse_query("select employee.fname from employee "
                    "where employee.salary > 50000", company_catalog)
    history = joindag.empty_history(company_catalog)
    jd = sprinkle.extract_query_joindag(history, q, company_catalog, "q7")
    assert memo.count_nodes(jd) == (1, 0, 1)
    assert jd.eq_nodes[jd.query_roots["q7"]].est_size == 1000.0


def test_nested_query_pipeline(company_catalog):
    q = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    res = sprinkle.optimize_single(q, company_catalog)
    assert res.plan.cum_cost == 525555.0
    assert res.combinations_considered == 3  # outer 2! plus inner 0!
    assert res.inner is not None
    assert res.inner.query_id == "q1.inner"
    assert res.inner.plan.cum_cost == 55.0
    key = plan_key(res.plan)
    assert "subq1.pnumber" in key                      # link join survives
    assert "project.plocation = 'hyderabad'" in key    # inner block spliced in


def test_a_nested_query_returns_the_history_its_inner_block_grew(company_catalog):
    # the outer block is optimized cold over a synthetic catalog, so the
    # history a nested query hands on is the one its inner block grew
    q = parse_query("select employee.fname from employee where employee.dno in "
                    "(select department.dnumber from department, dept_locations "
                    "where department.dnumber = dept_locations.dnumber "
                    "and dept_locations.dlocation = 'houston')", company_catalog)
    history = joindag.empty_history(company_catalog)
    res = sprinkle.optimize_single(q, company_catalog, history=history)
    assert not history.known_joins
    assert res.history is res.inner.history
    assert list(res.history.known_joins) == ["department.dnumber = dept_locations.dnumber"]


FROM_SUBQUERY = ("select s.fname, project.pname from (select employee.fname, employee.ssn "
                 "from employee where employee.salary > 50000) s, works_on, project "
                 "where s.ssn = works_on.ssn and works_on.pno = project.pnumber")


def test_from_subquery_pipeline(company_catalog):
    q = parse_query(FROM_SUBQUERY, company_catalog)
    assert (q.subquery.form, q.subquery.alias) == ("from", "s")
    assert parse_query(render_query(q), company_catalog) == q
    assert "(select employee.fname, employee.ssn from employee" in render_query(q)
    assert {"s.fname", "s.ssn"} <= sqlfront.all_query_attrs(q, company_catalog)
    res = sprinkle.optimize_single(q, company_catalog)
    assert res.plan.cum_cost == 1052200.0
    assert res.inner.query_id == "q1.inner"
    key = plan_key(res.plan)
    assert "(base s)" not in key                                  # the inner block spliced in
    assert "(select [employee.salary > 50000] (base employee))" in key
    assert "(base works_on)" in key and "(base project)" in key
    with pytest.raises(ValidationError, match="nested"):
        naive.build_naive_dag(q, company_catalog)


def test_a_from_view_named_as_a_catalog_relation_is_optimized_as_the_view(company_catalog):
    # the alias `employee` is a view over works_on: 5000 rows, pno with 50 values
    q = parse_query("select employee.pno from (select works_on.ssn, works_on.pno "
                    "from works_on) employee, project where employee.pno = project.pnumber",
                    company_catalog)
    res = sprinkle.optimize_single(q, company_catalog)
    assert res.inner.plan.est_size == 5000.0
    assert plan_key(res.plan) == (
        "(project [project(employee.pno)] (join [employee.pno = project.pnumber] "
        "(project [project(works_on.pno, works_on.ssn)] (base works_on)) (base project)))")
    # the join compares 5000 * 50 pairs and keeps 5000 (jsf 1/50); each projection costs 5000
    assert res.plan.cum_cost == 5000.0 + 5000 * 50 + 5000.0


def test_a_having_without_group_by_is_refused(company_catalog):
    # the parser refuses it first, so the query is built by hand
    grouped = parse_query("select works_on.pno, count(*) from works_on group by works_on.pno "
                          "having count(*) > 2", company_catalog)
    query = dataclasses.replace(grouped, group_by=())
    with pytest.raises(ValidationError, match="having without group-by"):
        sprinkle._block_placement(query, company_catalog,
                                  sqlfront.output_attrs(query, company_catalog))


def test_optimize_many_rejects_nested(company_catalog):
    q = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    with pytest.raises(ValidationError):
        sprinkle.optimize_many([("q1", q)], company_catalog)


def test_differential_against_exhaustive_baseline():
    rng = random.Random(77001)
    checked = 0
    while checked < 60:
        catalog = random_schema(rng)
        sql = connected_query_sql(catalog, rng)
        query = parse_query(sql, catalog)
        if query.n_operations() > 6:
            continue
        res = sprinkle.optimize_single(query, catalog)
        ndag = naive.build_naive_dag(query, catalog)
        best = costplan.best_plan(ndag, ndag.query_roots["q1"])
        assert res.plan.cum_cost == pytest.approx(best.cum_cost, rel=1e-9), sql
        checked += 1


# -- a join dag's numbering reaches no output ----------------------------------

def renumbered(dag, rng):
    """A copy of `dag` whose eq ids, op ids and op order under each eq-node
    are permuted at random, with its key index rebuilt to match."""
    eq_id = dict(zip(dag.eq_nodes, rng.sample(range(len(dag.eq_nodes)), len(dag.eq_nodes))))
    op_id = dict(zip(dag.op_nodes, rng.sample(range(len(dag.op_nodes)), len(dag.op_nodes))))
    out = memo.Dag()
    out._bits = tuple(map(dict, dag._bits))   # the keys are read in `dag`'s registry
    for old in sorted(dag.eq_nodes, key=eq_id.__getitem__):
        node = dag.eq_nodes[old]
        ops = [op_id[o] for o in node.child_ops]
        rng.shuffle(ops)
        out.eq_nodes[eq_id[old]] = memo.EqNode(eq_id[old], node.signature, node.est_size,
                                               node.text, node.key, ops)
        out._key_index[node.key] = eq_id[old]
    for old in sorted(dag.op_nodes, key=op_id.__getitem__):
        op = dag.op_nodes[old]
        out.op_nodes[op_id[old]] = op._replace(
            id=op_id[old], children=tuple(eq_id[c] for c in op.children))
    out.query_roots = {q: eq_id[root] for q, root in dag.query_roots.items()}
    out._next_eq, out._next_op = len(out.eq_nodes), len(out.op_nodes)
    return out


def numbering_inputs(company_catalog, tpch_catalog):
    """(sql, catalog): every fixture query, and 24 queries over cyclic
    `random_schema` join graphs, flat, grouped, ordered, or both."""
    cases = [(path.read_text(), catalog)
             for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog))
             for path in sorted((FIXTURES / group).glob("*.sql"))]
    rng = random.Random(77)
    cyclic = 0
    while cyclic < 24:
        catalog = random_schema(rng, max_edges=8)
        comp = max(catalog.graph.components(), key=len)
        if sum(1 for e in catalog.graph.edges if set(e.relations()) <= comp) < len(comp):
            continue
        sql = connected_query_sql(catalog, rng, max_selects=3)
        rel = sorted(comp)[0]
        sql += ("", f" group by {rel}.b", f" order by {rel}.a0",
                f" group by {rel}.b order by {rel}.b")[cyclic % 4]
        cases.append((sql, catalog))
        cyclic += 1
    return cases


def test_join_dag_numbering_reaches_no_output(monkeypatch, company_catalog, tpch_catalog):
    """Every stage after the join dag, and `best_plan`, give the same final
    dag, plan and cost bits over a join dag renumbered at random: what lets
    every block read its history in place, under the history's ids."""
    rng = random.Random(2024)
    extract = sprinkle.extract_query_joindag
    moved = 0
    for sql, catalog in numbering_inputs(company_catalog, tpch_catalog):
        query = parse_query(sql, catalog)
        expected = sprinkle.optimize_single(query, catalog)
        for _ in range(2):
            jds = []

            def shuffled(*args, **kwargs):
                jds.append(extract(*args, **kwargs))
                jds.append(renumbered(jds[-1], rng))
                return jds[-1]

            monkeypatch.setattr(sprinkle, "extract_query_joindag", shuffled)
            got = sprinkle.optimize_single(query, catalog)
            monkeypatch.setattr(sprinkle, "extract_query_joindag", extract)
            assert memo.dag_to_doc(got.dag) == memo.dag_to_doc(expected.dag), sql
            assert plan_key(got.plan) == plan_key(expected.plan), sql
            assert got.plan.cum_cost.hex() == expected.plan.cum_cost.hex(), sql
            moved += any(memo.dag_to_doc(a) != memo.dag_to_doc(b)
                         for a, b in zip(jds[::2], jds[1::2]))
    assert moved > 50


# -- a cold block leaves the history it built ---------------------------------

def cold_inputs(company_catalog, tpch_catalog):
    """(query, catalog) of every flat fixture query with joins and of 12
    random connected queries."""
    out = []
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        for path in sorted((FIXTURES / group).glob("*.sql")):
            query = parse_query(path.read_text(), catalog)
            if query.subquery is None and query.joins:
                out.append((query, catalog))
    rng = random.Random(31)
    while len(out) < 18:
        catalog = random_schema(rng, max_edges=8)
        query = parse_query(connected_query_sql(catalog, rng), catalog)
        if query.joins:
            out.append((query, catalog))
    return out


def test_cold_block_leaves_the_history_it_built(company_catalog, tpch_catalog, tmp_path):
    for query, catalog in cold_inputs(company_catalog, tpch_catalog):
        joins = extract_join_set(query)
        built = joindag.build_complete_history(catalog, joins)
        for history in (None, joindag.empty_history(catalog)):
            result = sprinkle.optimize_single(query, catalog, history=history)
            assert memo.dag_to_doc(result.history.dag) == memo.dag_to_doc(built.dag)
            assert not result.history.dag.query_roots and not built.dag.query_roots
            assert memo.dag_roots(result.history.dag) == memo.dag_roots(built.dag)
            assert result.history.dag._key_index == built.dag._key_index
            assert result.history.dag._bits == built.dag._bits
            paths = [tmp_path / "cold.json", tmp_path / "built.json"]
            joindag.save_history(result.history, str(paths[0]))
            joindag.save_history(built, str(paths[1]))
            assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cold_join_dag_reads_the_history_in_place(monkeypatch, company_catalog, tpch_catalog):
    """A cold block's history, built for its joins alone, lies below its
    root: the join dag holds all of it, read as the warm block's is."""
    attach = memo.attach_op
    calls = []
    monkeypatch.setattr(memo, "attach_op",
                        lambda *a, **k: calls.append(a[1]) or attach(*a, **k))
    for query, catalog in cold_inputs(company_catalog, tpch_catalog):
        history = joindag.build_complete_history(catalog, extract_join_set(query))
        jd = check_join_dag(history, query, catalog, None, calls)
        assert jd.eq_nodes == history.dag.eq_nodes and jd.op_nodes == history.dag.op_nodes
        assert "q1" not in history.dag.query_roots


# -- the price table ------------------------------------------------------------

def price_histories(company_catalog, tpch_catalog):
    """The complete history of each fixture schema, over its FK joins and
    every join of its flat fixture queries, and of the first 10 seeded
    `random_schema` catalogs whose join graph has a cycle, over their FK
    joins."""
    out = []
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        joins = {cond.canonical(): cond for cond in catalog.graph.edges}
        for path in sorted((FIXTURES / group).glob("*.sql")):
            query = parse_query(path.read_text(), catalog)
            if query.subquery is None:
                joins.update((cond.canonical(), cond) for cond in extract_join_set(query))
        out.append(joindag.build_complete_history(catalog, tuple(joins[t] for t in sorted(joins))))
    rng = random.Random(20260)
    while len(out) < 12:
        catalog = random_schema(rng, max_edges=8)
        if any(sum(1 for e in catalog.graph.edges if set(e.relations()) <= component)
               >= len(component) for component in catalog.graph.components()):
            out.append(joindag.build_complete_history(catalog, catalog.graph.edges))
    return out


def price_all(history):
    """Fill a history's table with every eq-node below its roots, by the
    pass of a block with nothing to place over each root's join dag, and
    return the table as `priced_by_text` reads it."""
    for root in memo.dag_roots(history.dag):
        sprinkle._select_floors(history.prices.below(root), sprinkle._PLAIN)
    return priced_by_text(history)


def priced_by_text(history):
    """Each eq-node in a history's table, by its signature text: its size
    and least cost as hex, and, above a base, the op-nodes the state walk
    keeps at its set 0 as (kind, detail, input texts), so that ids do not
    count."""
    dag, out = history.dag, {}
    for eq_id, cell in history.prices.nodes.items():
        entry = (cell.size[0].hex(), cell.best[0].hex())
        if not dag.eq_nodes[eq_id].is_base:
            entry += tuple((op.kind, op.detail, tuple(dag.eq_nodes[c].text for c in op.children))
                           for op, _ in sprinkle._kept_alternatives(cell, 0))
        out[dag.eq_nodes[eq_id].text] = entry
    return out


def test_growing_a_priced_history_prices_like_a_fresh_build(company_catalog):
    # company's joins in three batches, the second and third each joining
    # two components of the version before; each version is priced by a
    # join-only block over its largest component and then in full
    catalog = company_catalog
    joins = sorted(catalog.graph.edges, key=lambda cond: cond.canonical())
    history = joindag.build_complete_history(catalog, tuple(joins[:2]))
    versions = [(history, price_all(history))]
    same = joindag.build_incremental(history, tuple(joins[:1]), catalog)
    assert same.dag is history.dag and same.prices is history.prices   # no new join
    for batch in (joins[2:4], joins[4:]):
        old = versions[-1][0]
        history = joindag.build_incremental(old, tuple(batch), catalog)
        assert history.prices is not old.prices
        assert not history.prices.nodes and not history.prices.views
        components = sorted(memo.dag_roots(history.dag),
                            key=lambda root: -len(history.dag.eq_nodes[root].signature[0]))
        bases, texts = history.dag.eq_nodes[components[0]].signature[:2]
        query = parse_query("select * from " + ", ".join(bases) + " where "
                            + " and ".join(texts), catalog)
        sprinkle.optimize_single(query, catalog, history=history)
        fresh = joindag.build_complete_history(catalog, tuple(history.known_joins.values()))
        expected = price_all(fresh)
        block = priced_by_text(history)
        assert block and block == {text: expected[text] for text in block}
        assert price_all(history) == expected
        versions.append((history, expected))
    assert len(versions[-1][1]) > len(versions[0][1])
    for history, priced in versions:   # a later version leaves an earlier one's table as it was
        assert priced_by_text(history) == priced


def test_a_warm_join_only_block_takes_no_step_and_sorts_no_join_dag(monkeypatch, company_catalog,
                                                                   tpch_catalog):
    # the first block over a history version's root fills its table and
    # keeps the root's view and order; each later one takes every price and
    # the order from them.  Whatever its projection, each block gives the
    # cold block's final dag, to its registry, plan and cost bits
    history = price_histories(company_catalog, tpch_catalog)[1]
    flat = dataclasses.replace(parse_query(fixture_sql("tpch", "tq1"), tpch_catalog),
                               selects=(), group_by=(), having=None, order_by=())
    queries = [flat, dataclasses.replace(flat, projections=(flat.projections[0],))]
    colds = [sprinkle.optimize_single(query, tpch_catalog) for query in queries]
    steps = counting(monkeypatch, sprinkle._Placement, "node")
    sorted_dags = []
    order = memo.topological_order
    monkeypatch.setattr(memo, "topological_order",
                        lambda dag, *root: sorted_dags.append(dag) or order(dag, *root))
    history_nodes = {id(node) for node in history.dag.eq_nodes.values()}
    for block in range(4):
        steps.clear()
        sorted_dags.clear()
        filled = len(history.prices.nodes)
        query, cold = queries[block % 2], colds[block % 2]
        warm = sprinkle.optimize_single(query, tpch_catalog, history=history)
        assert warm.history.prices is history.prices and warm.jd.prices is history.prices
        assert own_steps(steps, warm.jd) == []
        assert memo.dag_to_doc(warm.dag) == memo.dag_to_doc(cold.dag)
        assert (warm.dag._bits, warm.dag._key_index) == (cold.dag._bits, cold.dag._key_index)
        assert (warm.dag._next_eq, warm.dag._next_op) == (cold.dag._next_eq, cold.dag._next_op)
        assert plan_key(warm.plan) == plan_key(cold.plan)
        assert warm.plan.cum_cost.hex() == cold.plan.cum_cost.hex()
        sorts = sum(not history_nodes.isdisjoint(map(id, dag.eq_nodes.values()))
                    for dag in sorted_dags)
        assert (sorts, len(history.prices.nodes) > filled) == ((block == 0,) * 2)
    assert colds[0].plan.kind != colds[1].plan.kind or \
        plan_key(colds[0].plan) != plan_key(colds[1].plan)


def test_grouped_and_ordered_blocks_read_the_price_tables_own_cells(company_catalog,
                                                                    tpch_catalog):
    # tq1 grouped, ordered, and both, over tpch's complete history: each
    # eq-node with no select on its relations that does not cover the
    # order-by's, a leaf or not, takes the table's own cell, the one every
    # block shares, and every other eq-node a DP step's cell of its own
    history = price_histories(company_catalog, tpch_catalog)[1]
    tq1 = parse_query(fixture_sql("tpch", "tq1"), tpch_catalog)
    blocks = [dataclasses.replace(tq1, order_by=()),
              dataclasses.replace(tq1, group_by=(), projections=(tq1.projections[0],)), tq1]
    for query in blocks:
        jd = sprinkle.extract_query_joindag(history, query, tpch_catalog, "q1")
        dp = sprinkle._block_placement(query, tpch_catalog,
                                       sqlfront.output_attrs(query, tpch_catalog))
        passed = sprinkle._select_floors(jd, dp)
        selected = {cond.relation for cond in query.selects}
        ordering = {item.relation for item in query.order_by}
        shared = set()
        for eq_id, node in jd.eq_nodes.items():
            bases = set(node.signature[0])
            if not bases & selected and not (ordering and ordering <= bases):
                assert passed.cells[eq_id] is history.prices.nodes[eq_id], node.text
                shared.add(eq_id)
            else:
                assert passed.cells[eq_id] is not history.prices.nodes.get(eq_id), node.text
        leaves = {eq_id for eq_id in shared if jd.eq_nodes[eq_id].is_base}
        # customer, lineitem and supplier, and nation but under the order-by
        assert len(leaves) == 4 - bool(ordering), query
        assert len(shared) > len(leaves), query
