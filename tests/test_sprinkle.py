"""Operator sprinkling: placement rules, stages, and the full pipeline."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sprinkleqo import costplan, joindag, memo, naive, sprinkle, sqlfront
from sprinkleqo.catalog import load_catalog
from sprinkleqo.costplan import base_plan, op_plan, plan_key
from sprinkleqo.errors import DagError, ValidationError
from sprinkleqo.memo import (KIND_GROUPBY, KIND_HAVING, KIND_JOIN,
                             KIND_JOINFILTER, KIND_ORDERBY, KIND_PROJECT, KIND_SELECT)
from sprinkleqo.sqlfront import (HavingCondition, JoinCondition, OrderItem,
                                 SelectCondition, extract_join_set, parse_query)

from conftest import FIXTURES, chain_catalog, fixture_sql, make_catalog, random_schema, \
    connected_query_sql

sizes = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
factors = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


# -- joint select placement against literal oracles ---------------------------

def path_to_relation(plan, relation):
    """Nodes from the plan root down to `relation`'s base leaf."""
    node = plan
    path = [node]
    while node.kind != "base":
        for child in node.children:
            if relation in sprinkle.plan_bases(child):
                node = child
                path.append(node)
                break
        else:
            raise AssertionError(f"relation {relation!r} not reachable in plan")
    assert node.relation == relation
    return path


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
        candidate = sprinkle._rebuild_with_selects(plan, placed)
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
        placed = sprinkle.place_selects_on_plan(plan, selects)
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


def test_subset_dp_placement_equals_the_product_search():
    for plan, selects in random_plans_with_selects(4242, 150):
        placed = sprinkle.place_selects_on_plan(plan, selects)
        oracle = product_placement(plan, selects)
        assert plan_key(placed) == plan_key(oracle)
        assert placed.cum_cost == oracle.cum_cost


def test_nonselective_filter_stays_at_the_root():
    # ssf=1 never shrinks anything; the root position ties and wins
    plan = op_plan(KIND_JOIN, "a.x = b.x",
                   (base_plan("a", 100.0), base_plan("b", 100.0)), 0.01)
    cond = SelectCondition("a", "y", ">", 0, ssf=1.0)
    placed = sprinkle.place_selects_on_plan(plan, (cond,))
    assert placed.kind == KIND_SELECT and placed.children[0].kind == KIND_JOIN


def test_stacked_selects_apply_most_selective_first():
    plan = base_plan("r0", 1000.0)
    weak = SelectCondition("r0", "b", ">", 1, ssf=0.5)
    strong = SelectCondition("r0", "b", "<", 9, ssf=0.1)
    placed = sprinkle.place_selects_on_plan(plan, (weak, strong))
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
    placed = sprinkle.place_selects_on_plan(plan, selects)
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
    with pytest.raises(ValidationError):
        sprinkle.sprinkle_selects(jd, (cond,), company_catalog)


def test_select_on_a_relation_the_plan_lacks_rejected():
    plan = op_plan(KIND_JOIN, "a.x = b.x",
                   (base_plan("a", 100.0), base_plan("b", 100.0)), 0.01)
    selects = (SelectCondition("a", "y", ">", 0, ssf=0.1),
               SelectCondition("c", "y", ">", 0, ssf=0.1))
    with pytest.raises(DagError, match="'c' not a base of this plan"):
        sprinkle.place_selects_on_plan(plan, selects)


# -- family pruning against the enumerate-then-prune stage --------------------

def enumerate_then_prune_stage(dag, decorate, *, split_classes=False, bound=None):
    """The stage loop before family pruning: every plan of `costplan.
    enumerate_plans`, each dropped when `bound(plan)` or its decorated cost
    exceeds the running best."""
    fresh = memo.Dag()
    fresh.meta = dict(dag.meta)
    for query_id, root in sorted(dag.query_roots.items()):
        kept = []
        running_best = math.inf
        for plan in costplan.enumerate_plans(dag, root):
            if bound is not None and bound(plan) > running_best:
                continue
            decorated = decorate(plan)
            if decorated.cum_cost > running_best:
                continue
            running_best = decorated.cum_cost
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
        jd, lambda p: sprinkle.place_selects_on_plan(p, selects),
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


def kept_plans(stage):
    """Run `stage()`; returns its dag, the plans it interned and the plans
    it placed selects on, each in order."""
    kept, placed = [], []
    intern, place = costplan.intern_plan, sprinkle.place_selects_on_plan

    def recording_intern(dag, plan):
        kept.append((plan_key(plan), plan.cum_cost.hex()))
        return intern(dag, plan)

    def recording_place(plan, selects):
        placed.append(plan_key(plan))
        return place(plan, selects)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(costplan, "intern_plan", recording_intern)
        patch.setattr(sprinkle, "place_selects_on_plan", recording_place)
        dag = stage()
    return dag, kept, placed


def is_subsequence(short, long):
    items = iter(long)
    return all(any(x == y for y in items) for x in short)


def test_pruned_stages_keep_the_plans_of_enumerate_then_prune():
    for sql, catalog in stage_inputs():
        query, jd = joindag_for(sql, catalog)
        pruned, kept, placed = kept_plans(
            lambda: sprinkle.sprinkle_selects(jd, query.selects, catalog))
        oracle, oracle_kept, oracle_placed = kept_plans(
            lambda: enumerate_then_prune_selects(jd, query.selects))
        assert kept == oracle_kept, sql
        assert is_subsequence(placed, oracle_placed), sql  # floors prune at least as much
        assert memo.dag_to_doc(pruned) == memo.dag_to_doc(oracle), sql

        rel = query.selects[0].relation if query.selects else sorted(query.tables)[0]
        group_by = ((rel, "b"),)
        d = sqlfront.groupby_distinct_product(group_by, catalog)
        grouped, kept, _ = kept_plans(
            lambda: sprinkle.sprinkle_groupby(pruned, group_by, None, catalog))
        _, oracle_kept, _ = kept_plans(lambda: enumerate_then_prune_stage(
            pruned, lambda p: sprinkle.place_groupby_on_plan(p, group_by, None, d),
            split_classes=True))
        assert kept == oracle_kept, sql

        order_by = (OrderItem(rel, "a0"),)
        _, kept, _ = kept_plans(lambda: sprinkle.sprinkle_orderby(grouped, order_by))
        _, oracle_kept, _ = kept_plans(lambda: enumerate_then_prune_stage(
            grouped, lambda p: sprinkle.place_orderby_on_plan(p, order_by)))
        assert kept == oracle_kept, sql


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
        floor, _ = sprinkle._select_floors(jd, query.selects)
        least = math.inf
        for plan in costplan.enumerate_plans(jd, root):
            cost = sprinkle.place_selects_on_plan(plan, query.selects).cum_cost
            assert floor[root] <= cost + memo.SIZE_RTOL * max(1.0, abs(cost)), sql
            least = min(least, cost)
        # the memo DP places all selects below the root exactly
        assert floor[root] == pytest.approx(least, rel=1e-12), sql
        # the two floors size the same products in different orders
        for eq_id, old in leaf_select_floors(jd, query.selects).items():
            assert floor[eq_id] >= old * (1 - 1e-12), (sql, eq_id)


def reference_select_floors(dag, selects):
    """The select stage's floors computed by their own loop over the memo,
    with private tables: the reference the shared DP step must reproduce
    bit for bit."""
    ordered = sorted(selects, key=lambda s: (s.canonical(),))
    width = 1 << len(ordered)
    subsets = sprinkle._subsets(len(ordered))
    stack_cost, stack_size = sprinkle._stack_factors(ordered)
    on_relation: dict[str, int] = {}
    for i, cond in enumerate(ordered):
        on_relation[cond.relation] = on_relation.get(cond.relation, 0) | 1 << i
    consumed = {c for op in dag.op_nodes.values() for c in op.children}
    mask: dict[int, int] = {}
    size: dict[int, list[float]] = {}   # eq-node -> output size, by T
    best: dict[int, list[float]] = {}   # math.inf where T has a select `eq` lacks
    op_floor: dict[int, float] = {}
    for eq_id in reversed(memo.topological_order(dag)):
        node = dag.eq_nodes[eq_id]
        out, least = [math.inf] * width, [math.inf] * width
        size[eq_id], best[eq_id] = out, least
        if node.is_base:
            mask[eq_id] = m = on_relation.get(node.signature[0][0], 0)
            for t in subsets[m]:
                out[t] = node.est_size * stack_size[t]
                least[t] = node.est_size * stack_cost[t]
            continue
        below = [math.inf] * width   # least op cost plus children's costs, by U
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
            op_floor[op_id] = costplan.op_cost(op.kind, inputs[-1][0])   # the last U is m
        mask[eq_id] = m
        for t in subsets[m] if eq_id in consumed else (m,):
            least[t] = min([below[t]] + [below[u] + out[u] * stack_cost[t ^ u]
                                         for u in subsets[t][:-1]])
    return {eq_id: min(costs) for eq_id, costs in best.items()}, op_floor


def test_select_floors_equal_the_reference_exactly():
    for sql, catalog in stage_inputs():
        query, jd = joindag_for(sql, catalog)
        assert sprinkle._select_floors(jd, query.selects) == \
            reference_select_floors(jd, query.selects), sql


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
    placed = families = 0
    place, within = sprinkle.place_selects_on_plan, costplan.plans_within

    def counting_place(plan, selects):
        nonlocal placed
        placed += 1
        return place(plan, selects)

    def counting_within(dag, root, floor, op_floor, limit):
        def counting_limit():
            nonlocal families
            families += 1
            return limit()
        return within(dag, root, floor, op_floor, counting_limit)

    monkeypatch.setattr(sprinkle, "place_selects_on_plan", counting_place)
    oracle = enumerate_then_prune_selects(jd, query.selects)
    oracle_placed, placed = placed, 0
    monkeypatch.setattr(costplan, "plans_within", counting_within)
    pruned = sprinkle.sprinkle_selects(jd, query.selects, catalog)
    # the unpruned walk decorates 40320 plans and checks 220224 families;
    # the per-plan leaf bound lets 34 plans through to placement, the memo
    # DP's floors 22
    assert placed < oracle_placed == 34
    assert placed == 22
    assert families < 10000
    assert costplan.best_plan(pruned, pruned.query_roots["q1"]).cum_cost == \
        costplan.best_plan(oracle, oracle.query_roots["q1"]).cum_cost


# -- group-by / having / order-by walks ---------------------------------------

def grouped_join(t_size, b_size, jsf):
    return op_plan(KIND_JOIN, "t.x = b.x",
                   (base_plan("t", t_size), base_plan("b", b_size)), jsf)


def test_groupby_descends_when_grouping_early_wins():
    plan = grouped_join(1000.0, 100.0, 0.01)
    placed = sprinkle.place_groupby_on_plan(plan, (("t", "g"),), None, 5.0)
    # val2 = 1000 + 5*100 beats val1 = 100000 + 1000: group below the join
    assert placed.kind == KIND_JOIN
    gb = next(c for c in placed.children if c.kind == KIND_GROUPBY)
    assert gb.detail.startswith("groupby(t.g)@")
    assert gb.children[0].relation == "t"
    assert placed.est_size == pytest.approx(0.01 * 5 * 100)


def test_groupby_tie_stays_at_the_root():
    plan = grouped_join(10.0, 10.0, 0.1)  # val1 = 100 + 10 == val2 = 10 + 100
    placed = sprinkle.place_groupby_on_plan(plan, (("t", "g"),), None, 50.0)
    assert placed.kind == KIND_GROUPBY
    assert placed.children[0].kind == KIND_JOIN


def test_having_rides_directly_above_the_groupby():
    plan = grouped_join(1000.0, 100.0, 0.01)
    having = HavingCondition(func="count", relation=None, attribute="*",
                             operator=">", literal=5, ssf=0.2)
    placed = sprinkle.place_groupby_on_plan(plan, (("t", "g"),), having, 5.0)
    assert placed.kind == KIND_JOIN
    hv = next(c for c in placed.children if c.kind == KIND_HAVING)
    assert hv.children[0].kind == KIND_GROUPBY
    assert hv.factor == 0.2


def test_orderby_defaults_to_the_root():
    plan = grouped_join(1000.0, 100.0, 0.01)
    placed = sprinkle.place_orderby_on_plan(plan, (OrderItem("t", "g"),))
    assert placed.kind == KIND_ORDERBY and placed.children[0].kind == KIND_JOIN


def test_orderby_descends_when_the_join_grows():
    plan = grouped_join(10.0, 100.0, 0.5)
    # val2 = 10 + 1000 < val1 = 1000 + 500: sort the small input first
    placed = sprinkle.place_orderby_on_plan(plan, (OrderItem("t", "g"),))
    assert placed.kind == KIND_JOIN
    ob = next(c for c in placed.children if c.kind == KIND_ORDERBY)
    assert ob.children[0].relation == "t"


def test_orderby_never_crosses_a_groupby():
    inner = op_plan(KIND_GROUPBY, "groupby(t.g)@{t}",
                    (base_plan("t", 10.0),), 5.0)
    plan = op_plan(KIND_JOIN, "t.x = b.x", (inner, base_plan("b", 100.0)), 0.5)
    placed = sprinkle.place_orderby_on_plan(plan, (OrderItem("t", "g"),))
    assert placed.kind == KIND_ORDERBY  # blocked: stays above the join
    assert placed.children[0].kind == KIND_JOIN


def landing(plan, kind):
    """(child indices from the root to the `kind` node, plan_key of its input)."""
    if plan.kind == kind:
        return (), plan_key(plan.children[0])
    for i, child in enumerate(plan.children):
        found = landing(child, kind)
        if found is not None:
            return (i,) + found[0], found[1]
    return None


@example(10.0, 100.0, 100.0, 0.5, 0.5)  # both descend to the leaf t
@given(sizes, sizes, sizes, factors, factors)
def test_groupby_and_orderby_land_together_when_d_covers_t(t, b1, b2, j1, j2):
    inner = op_plan(KIND_JOIN, "t.x = b1.x", (base_plan("t", t), base_plan("b1", b1)), j1)
    plan = op_plan(KIND_JOIN, "t.y = b2.y", (inner, base_plan("b2", b2)), j2)
    d = max(t, inner.est_size)  # >= |t| at every join the walk can cross
    grouped = sprinkle.place_groupby_on_plan(plan, (("t", "g"),), None, d)
    ordered = sprinkle.place_orderby_on_plan(plan, (OrderItem("t", "g"),))
    assert landing(grouped, KIND_GROUPBY) == landing(ordered, KIND_ORDERBY)


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


def interior_projections(shared):
    return {memo.signature_text(shared.eq_nodes[op.children[0]].signature): op.detail
            for op in shared.op_nodes.values()
            if op.kind == KIND_PROJECT and op.children[0] not in shared.query_roots.values()}


def test_interior_projections_follow_consumers_through_higher_ids(company_catalog,
                                                                   tpch_catalog):
    # optimize_many interns q2's plans after q1's, hanging new, higher-id
    # children under existing parents: eq ids are not topological
    queries = [(q, parse_query(fixture_sql("company", q), company_catalog))
               for q in ("q1", "q2")]
    shared, _, _ = sprinkle.optimize_many(queries, company_catalog)
    assert any(child > eq_id for eq_id, node in shared.eq_nodes.items()
               for op_id in node.child_ops for child in shared.op_nodes[op_id].children)
    projections = interior_projections(shared)
    assert projections["{department,project} j[department.dnumber = project.dnum] "
                       "u[project.plocation = 'hyderabad']"] == \
        "project(department.dname, project.pname, project.pnumber)"
    queries = [(q, parse_query(fixture_sql("tpch", q), tpch_catalog))
               for q in ("q1", "q2", "q3", "q4", "tq1")]
    shared, _, _ = sprinkle.optimize_many(queries, tpch_catalog)
    projections = interior_projections(shared)
    assert projections["{customer,orders} j[customer.custkey = orders.custkey] "
                       "u[orders.orderdate < '1995-01-01'; orders.orderdate >= '1994-01-01']"] == \
        "project(customer.nationkey, orders.orderkey)"


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


# -- end-to-end orchestration --------------------------------------------------

def test_optimize_single_company_q1(company_catalog):
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    res = sprinkle.optimize_single(q, company_catalog)
    assert res.plan.cum_cost == 57600.0
    assert res.combinations_considered == 2
    assert (res.jd_eq_nodes, res.jd_plans) == (6, 2)
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
    joins = tuple(JoinCondition.make(e.left, e.right, e.jsf)
                  for e in company_catalog.graph.edges)
    history = joindag.build_complete_history(company_catalog, joins)
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    jd = sprinkle.extract_query_joindag(history, q, company_catalog, "q1")
    assert memo.count_nodes(jd) == (6, 4, 2)
    root = jd.eq_nodes[jd.query_roots["q1"]]
    assert root.signature[0] == ("employee", "project", "works_on")
    # extraction from the 5-join history equals a 2-join standalone build
    small = joindag.build_complete_history(
        company_catalog,
        tuple(j for j in joins if j.canonical() in set(root.signature[1])))
    assert {n.signature for n in jd.eq_nodes.values()} == \
        {n.signature for n in small.dag.eq_nodes.values()}
    assert memo.arc_signature_set(jd) == memo.arc_signature_set(small.dag)


def reference_extract_query_joindag(history, query, catalog, query_id):
    """The join dag's extraction before it became a copy, kept verbatim:
    every reachable op-node is attached again."""
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


def copy_cases(tmp_path):
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
        joins.update((j.canonical(), j) for j in (
            JoinCondition.make(e.left, e.right, e.jsf) for e in catalog.graph.edges))
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


def test_query_joindag_is_a_copy_of_the_history(tmp_path, monkeypatch):
    attach = memo.attach_op
    calls = []
    monkeypatch.setattr(memo, "attach_op",
                        lambda *a, **k: calls.append(a[1]) or attach(*a, **k))
    cases = list(copy_cases(tmp_path))
    assert len(cases) == 7 + 10
    for history, query, catalog in cases:
        expected = memo.dag_to_doc(reference_extract_query_joindag(
            history, query, catalog, "q1"))
        calls.clear()
        jd = sprinkle.extract_query_joindag(history, query, catalog, "q1")
        assert calls == []
        assert memo.dag_to_doc(jd) == expected
        for eq_id, node in jd.eq_nodes.items():
            assert jd.find_eq(node.signature) == eq_id
        n_ops = len(jd.op_nodes)
        for eq_id, node in jd.eq_nodes.items():
            for op_id in node.child_ops:
                op = jd.op_nodes[op_id]
                assert memo.attach_op(jd, op.kind, op.detail, op.children, node.est_size,
                                      op.op_cost, op.factor) == eq_id
        assert len(jd.op_nodes) == n_ops
        assert memo.dag_to_doc(jd) == expected


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
