"""Size estimation, costing conventions, and plan enumeration/extraction."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import costplan, memo, naive, sprinkle
from sprinkleqo.costplan import (Plan, base_plan, best_plan, join_cost, join_size, op_plan,
                                 plan_key, unary_cost, unary_size)
from sprinkleqo.errors import DagError
from sprinkleqo.memo import KIND_SELECT
from sprinkleqo.sqlfront import parse_query

from conftest import (FIXTURES, clause_variants, connected_query_sql, enumerate_plans,
                      fixture_sql, intern_plan, make_catalog, random_schema)

sizes = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
factors = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


@given(sizes, sizes, factors)
def test_join_size_rule(a, b, jsf):
    assert join_size(a, b, jsf) == jsf * a * b
    assert join_cost(a, b) == a * b


@given(sizes, factors)
def test_select_size_rule(a, ssf):
    assert unary_size("select", a, ssf) == ssf * a
    assert unary_cost(a) == a


def test_unary_conventions():
    assert unary_size("groupby", 3.0, 10.0) == 3.0  # capped at input
    assert unary_size("groupby", 500.0, 10.0) == 10.0
    assert unary_size("project", 42.0) == 42.0
    assert unary_size("orderby", 42.0) == 42.0
    assert unary_size("having", 20.0, 0.5) == 10.0
    assert unary_size("joinfilter", 100.0, 0.25) == 25.0
    assert unary_cost(17.0) == 17.0


def test_each_cost_formula_has_the_landing_bounds_property(join_cost_formula):
    # `op_plan` prices by the swapped definitions; the landing bound scales
    # the costs above a landing by r, its output over its input, so each
    # cost is at least r times itself at the unscaled size, for r <= 1, up
    # to rounding, and rises with each input
    join, unary = costplan.join_cost, costplan.unary_cost
    a, b = base_plan("a", 3.0), base_plan("b", 5.0)
    assert (op_plan("join", "a.x = b.x", (a, b), 0.1).op_cost,
            op_plan("select", "a.x > 1", (a,), 0.1).op_cost) == (join(3.0, 5.0), unary(3.0))
    rng = random.Random(42)
    for _ in range(2000):
        a, b, r = rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6), rng.random()
        assert r * join(a, b) <= memo.within_rounding(join(r * a, b)), (a, b, r)
        assert r * join(a, b) <= memo.within_rounding(join(a, r * b)), (a, b, r)
        assert r * unary(a) <= memo.within_rounding(unary(r * a)), (a, r)
        assert join(r * a, b) <= join(a, b) and join(a, r * b) <= join(a, b), (a, b, r)
        assert unary(r * a) <= unary(a), (a, r)


def test_unknown_kind_rejected():
    with pytest.raises(DagError, match="unknown op kind 'cartesian'"):
        unary_size("cartesian", 2.0, 1.0)
    with pytest.raises(DagError, match="unknown op kind 'cartesian'"):
        op_plan("cartesian", "x", (base_plan("a", 2.0),), 1.0)


def test_op_plan_accumulates_costs():
    a = base_plan("a", 100.0)
    b = base_plan("b", 50.0)
    j = op_plan("join", "a.x = b.x", (a, b), 0.01)
    assert j.est_size == 50.0
    assert j.op_cost == 5000.0
    assert j.cum_cost == 5000.0
    s = op_plan("select", "a.y > 3", (j,), 0.1)
    assert s.est_size == 5.0
    assert s.cum_cost == 5050.0


def test_plan_key_distinguishes_shape():
    a, b = base_plan("a", 10.0), base_plan("b", 10.0)
    left = op_plan("join", "a.x = b.x", (a, b), 0.1)
    right = op_plan("join", "a.x = b.x", (b, a), 0.1)
    assert plan_key(left) != plan_key(right)


def company_naive(company_catalog, name="q1"):
    q = parse_query(fixture_sql("company", name), company_catalog)
    dag = naive.build_naive_dag(q, company_catalog, 8)
    return dag, dag.query_roots["q1"]


def count_plans_recursive(dag, eq_id):
    """Independent plan counter: product over op children, sum over ops."""
    node = dag.eq_nodes[eq_id]
    if not node.child_ops:
        return 1
    total = 0
    for op_id in node.child_ops:
        op = dag.op_nodes[op_id]
        combo = 1
        for child in op.children:
            combo *= count_plans_recursive(dag, child)
        total += combo
    return total


def test_enumerate_matches_independent_count(company_catalog):
    dag, root = company_naive(company_catalog)
    plans = enumerate_plans(dag, root)
    assert len(plans) == count_plans_recursive(dag, root) == 18
    assert len({plan_key(p) for p in plans}) == len(plans)


def test_best_plan_is_the_enumerated_minimum(company_catalog):
    dag, root = company_naive(company_catalog)
    plans = enumerate_plans(dag, root)
    best = best_plan(dag, root)
    assert best.cum_cost == min(p.cum_cost for p in plans)
    assert best.cum_cost == 57600.0


def test_best_plan_tie_break_is_deterministic():
    # symmetric chain: both join orders cost exactly 200, canonical text wins
    dag = memo.Dag()
    a = memo.ensure_base(dag, "a", 10.0)
    b = memo.ensure_base(dag, "b", 10.0)
    c = memo.ensure_base(dag, "c", 10.0)
    jab, jbc = "a.x = b.x", "b.y = c.y"
    ab = memo.attach_op(dag, "join", jab, (a, b), 10.0, 100.0, 0.1)
    bc = memo.attach_op(dag, "join", jbc, (b, c), 10.0, 100.0, 0.1)
    top = memo.attach_op(dag, "join", jbc, (ab, c), 10.0, 100.0, 0.1)
    assert memo.attach_op(dag, "join", jab, (bc, a), 10.0, 100.0, 0.1) == top
    costs = [p.cum_cost for p in enumerate_plans(dag, top)]
    assert costs.count(min(costs)) == 2
    best = best_plan(dag, top)
    assert best.cum_cost == 200.0
    assert best.detail == jab
    assert {plan_key(best_plan(dag, top)) for _ in range(3)} == {plan_key(best)}


def reference_best_plan(dag, root_eq):
    """`costplan.best_plan` as it was before it walked iteratively: the
    oracle of the plan it returns."""
    cache = {}

    def best(eq_id):
        if eq_id in cache:
            return cache[eq_id]
        node = dag.eq_nodes[eq_id]
        if node.is_base:
            plan = base_plan(node.signature[0][0], node.est_size)
        else:
            candidates = []
            for op_id in node.child_ops:
                op = dag.op_nodes[op_id]
                children = tuple(best(c) for c in op.children)
                cost = op.op_cost + sum(c.cum_cost for c in children)
                candidates.append((cost, op.sort_key(), op, children))
            cost, _, op, children = min(candidates, key=lambda c: (c[0], c[1]))
            plan = Plan(kind=op.kind, detail=op.detail, relation=None,
                        children=children, factor=op.factor,
                        est_size=node.est_size, op_cost=op.op_cost, cum_cost=cost)
        cache[eq_id] = plan
        return plan

    return best(root_eq)


def test_best_plan_equals_the_recursive_walk_on_naive_and_joindag_dags(company_catalog,
                                                                      tpch_catalog):
    """Every eq-node of the naive dag and of the joindag mode's final dag of
    each fixture query (the nested one joindag only), of random queries,
    and of grouped and ordered variants of half of those: the ties of
    symmetric graphs, and the place stage's equal-ssf stacks, group-by
    landings and root projections included."""
    cases = []
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        for path in sorted((FIXTURES / group).glob("*.sql")):
            cases.append((path.read_text(), catalog))
    rng = random.Random(4242)
    for i in range(20):
        catalog = random_schema(rng)
        sql = connected_query_sql(catalog, rng, max_selects=2)
        cases.append((sql, catalog))
        if i % 2:
            cases += [(variant, catalog)
                      for variant in clause_variants(sql, parse_query(sql, catalog), catalog)]
    checked = 0
    for sql, catalog in cases:
        query = parse_query(sql, catalog)
        dags = [("joindag", sprinkle.optimize_single(query, catalog).dag)]
        if query.subquery is None:
            dags.append(("naive", naive.build_naive_dag(query, catalog,
                                                        limit=query.n_operations())))
        for mode, dag in dags:
            for eq_id in dag.eq_nodes:
                got, expected = best_plan(dag, eq_id), reference_best_plan(dag, eq_id)
                assert got == expected, (mode, sql)
                assert plan_key(got) == plan_key(expected)
                assert got.cum_cost.hex() == expected.cum_cost.hex()
            checked += 1
    assert checked == 175   # 88 queries, all but the nested one in both modes


def test_best_plan_walks_a_dag_deeper_than_the_stack():
    # a select chain longer than the recursion limit
    dag = memo.Dag()
    eq = memo.ensure_base(dag, "a", 1000.0)
    depth = sys.getrecursionlimit() + 200
    for i in range(depth):
        eq = costplan.intern_op(dag, KIND_SELECT, f"s{i:05d}", (eq,), 1.0)
    plan = best_plan(dag, eq)
    assert plan.cum_cost == 1000.0 * depth
    assert plan.detail == f"s{depth - 1:05d}"
    node, steps = plan, 0
    while node.children:
        node, steps = node.children[0], steps + 1
    assert steps == depth and node.relation == "a"
    with pytest.raises(DagError, match="unknown eq-node"):
        best_plan(dag, max(dag.eq_nodes) + 1)


def test_best_plan_cost_that_overflows_is_a_dag_error():
    dag = memo.Dag()
    eq = memo.ensure_base(dag, "a", 1.5e308)
    for i in range(2):   # each op costs 1.5e308, finite; their sum is not
        eq = costplan.intern_op(dag, KIND_SELECT, f"s{i}", (eq,), 1.0)
    with pytest.raises(DagError, match="overflows"):
        best_plan(dag, eq)


def star_catalog(spokes: int):
    """A hub r0 joined to each of r1 .. r<spokes> on its own attribute."""
    relations = [{"name": "r0", "cardinality": 5000.0,
                  "attributes": [{"name": f"k{i}", "distinct": 100}
                                 for i in range(1, spokes + 1)]}]
    relations += [{"name": f"r{i}", "cardinality": 100.0 * i,
                   "attributes": [{"name": "a", "distinct": 50}, {"name": "b", "distinct": 20}]}
                  for i in range(1, spokes + 1)]
    return make_catalog(relations, [{"left": f"r0.k{i}", "right": f"r{i}.a", "jsf": 0.01}
                                    for i in range(1, spokes + 1)])


def test_best_plan_builds_one_plan_per_node_of_the_plan_it_returns(tpch_catalog, monkeypatch):
    """Winners first, then only the returned tree gets `Plan`s: on naive
    dags, whose eq-nodes mostly lie off the winning plan."""
    star = star_catalog(5)
    cases = [(fixture_sql("tpch", "tq1"), tpch_catalog),
             ("select * from r0, r1, r2, r3, r4, r5 where " + " and ".join(
                 [f"r0.k{i} = r{i}.a" for i in range(1, 6)] + ["r3.b > 4"]), star)]
    made = []

    def counted(*args, **kwargs):
        made.append(Plan(*args, **kwargs))
        return made[-1]

    for sql, catalog in cases:
        query = parse_query(sql, catalog)
        dag = naive.build_naive_dag(query, catalog, limit=query.n_operations())
        root = dag.query_roots["q1"]
        expected = best_plan(dag, root)
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(costplan, "Plan", counted)
            plan = best_plan(dag, root)
        assert plan == expected
        nodes = costplan.inputs_first(plan)
        assert len(nodes) < len(dag.eq_nodes)
        assert sorted(map(id, made)) == sorted(map(id, nodes))


def test_intern_plan_round_trip(company_catalog):
    dag, root = company_naive(company_catalog)
    fresh = memo.Dag()
    new_root = None
    for plan in enumerate_plans(dag, root):
        new_root = intern_plan(fresh, plan)
    assert {n.signature for n in fresh.eq_nodes.values()} == \
        {n.signature for n in dag.eq_nodes.values()}
    assert memo.plan_count_for(fresh, new_root) == 18
    assert best_plan(fresh, new_root).cum_cost == 57600.0


def deep_select_chain(depth):
    """A join under a chain of `depth` selects, built without recursion."""
    plan = op_plan("join", "a.x = b.x", (base_plan("a", 1000.0), base_plan("b", 1000.0)), 0.001)
    for i in range(depth):
        plan = op_plan(KIND_SELECT, f"s{i}", (plan,), 1.0)
    return plan


def test_intern_plan_interns_a_plan_deeper_than_the_stack():
    # a select chain longer than the recursion limit, interned inputs first
    # and left to right, as the chain is attached here
    depth = sys.getrecursionlimit() + 200
    dag = memo.Dag()
    root = intern_plan(dag, deep_select_chain(depth))
    expected = memo.Dag()
    top = memo.attach_op(expected, "join", "a.x = b.x",
                         (memo.ensure_base(expected, "a", 1000.0),
                          memo.ensure_base(expected, "b", 1000.0)), 1000.0, 1e6, 0.001)
    for i in range(depth):
        top = memo.attach_op(expected, KIND_SELECT, f"s{i}", (top,), 1000.0, 1000.0, 1.0)
    assert root == top
    assert memo.dag_to_doc(dag) == memo.dag_to_doc(expected)


def test_plan_key_of_a_plan_deeper_than_the_stack():
    depth = sys.getrecursionlimit() + 200
    expected = "(join [a.x = b.x] (base a) (base b))"
    for i in range(depth):
        expected = f"(select [s{i}] {expected})"
    assert plan_key(deep_select_chain(depth)) == expected


def test_to_doc_and_splice_of_a_plan_deeper_than_the_stack():
    # the join's input a, a view, is replaced by an inner plan: each select
    # above it is priced again, the join over inner's 10 rows instead of 1000
    depth = sys.getrecursionlimit() + 200
    inner = op_plan(KIND_SELECT, "v.y > 1", (base_plan("v", 100.0),), 0.1)
    spliced = sprinkle._splice_plan(deep_select_chain(depth), "a", inner)
    doc, node = spliced.to_doc(), spliced
    for _ in range(depth):
        assert (doc["kind"], doc["predicate"], doc["cum_cost"]) == \
            (KIND_SELECT, node.detail, node.cum_cost)
        (doc,), (node,) = doc["children"], node.children
    assert node.cum_cost == 100.0 + 10.0 * 1000.0 and doc["est_size"] == 10.0
    assert doc["children"][0] == inner.to_doc()
    assert spliced.cum_cost == node.cum_cost + depth * 10.0


def test_plan_to_doc_shape():
    a = base_plan("a", 10.0)
    s = op_plan("select", "a.x > 1", (a,), 0.2)
    doc = s.to_doc()
    assert doc["kind"] == "select"
    assert doc["predicate"] == "a.x > 1"
    assert doc["children"][0] == {"kind": "base", "relation": "a",
                                  "est_size": 10.0, "op_cost": 0.0,
                                  "cum_cost": 0.0}


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=1.0, max_value=1e4),
       factors, factors)
def test_structural_identities(a, b, jsf, ssf):
    # pushing a select below a join scales the join cost by ssf exactly
    ra, rb = base_plan("a", a), base_plan("b", b)
    pushed = op_plan("join", "j", (op_plan("select", "s", (ra,), ssf), rb), jsf)
    rooted = op_plan("select", "s", (op_plan("join", "j", (ra, rb), jsf),), ssf)
    assert pushed.est_size == pytest.approx(rooted.est_size, rel=1e-12)
    assert pushed.cum_cost == pytest.approx(a + ssf * a * b, rel=1e-12)
    assert rooted.cum_cost == pytest.approx(a * b + jsf * a * b, rel=1e-12)
