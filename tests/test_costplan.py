"""Size estimation, costing conventions, and plan enumeration/extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import costplan, memo, naive
from sprinkleqo.costplan import (base_plan, best_plan, enumerate_plans,
                                 estimate_size, intern_plan, op_cost, op_plan,
                                 plan_key, plan_signature)
from sprinkleqo.errors import DagError
from sprinkleqo.sqlfront import parse_query

from conftest import fixture_sql

sizes = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
factors = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


@given(sizes, sizes, factors)
def test_join_size_rule(a, b, jsf):
    assert estimate_size("join", (a, b), jsf) == jsf * a * b
    assert op_cost("join", (a, b)) == a * b


@given(sizes, factors)
def test_select_size_rule(a, ssf):
    assert estimate_size("select", (a,), ssf) == ssf * a
    assert op_cost("select", (a,)) == a


def test_unary_conventions():
    assert estimate_size("groupby", (3.0,), 10.0) == 3.0  # capped at input
    assert estimate_size("groupby", (500.0,), 10.0) == 10.0
    assert estimate_size("project", (42.0,)) == 42.0
    assert estimate_size("orderby", (42.0,)) == 42.0
    assert estimate_size("having", (20.0,), 0.5) == 10.0
    assert estimate_size("joinfilter", (100.0,), 0.25) == 25.0
    for kind in ("select", "project", "groupby", "having", "orderby",
                 "joinfilter"):
        assert op_cost(kind, (17.0,)) == 17.0


def test_unknown_kind_rejected():
    with pytest.raises(DagError):
        estimate_size("cartesian", (2.0,), 1.0)
    with pytest.raises(DagError):
        op_cost("cartesian", (2.0,))


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


def test_plan_signature_reflects_applied_conditions():
    a, b = base_plan("a", 10.0), base_plan("b", 10.0)
    j = op_plan("join", "a.x = b.x", (a, b), 0.1)
    s = op_plan("select", "a.y > 3", (j,), 0.1)
    sig = plan_signature(s)
    assert sig[0] == ("a", "b")
    assert sig[1] == ("a.x = b.x",)
    assert sig[2] == ("a.y > 3",)


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
