"""Exhaustive baseline: permutation space, fixed suffix, incremental rebuild."""

import math

import pytest

from sprinkleqo import costplan, memo, naive
from sprinkleqo.errors import LimitExceededError, ValidationError
from sprinkleqo.sqlfront import parse_query

from conftest import check_estimates, fixture_sql, incremental_naive_add

SUFFIX_KINDS = {memo.KIND_GROUPBY, memo.KIND_HAVING, memo.KIND_PROJECT,
                memo.KIND_ORDERBY}


def suffix_stack(dag, root_eq):
    """(kind, detail, factor) of the fixed unary chain, bottom-up."""
    out = []
    eq = root_eq
    while True:
        node = dag.eq_nodes[eq]
        if len(node.child_ops) != 1:
            break
        op = dag.op_nodes[node.child_ops[0]]
        if op.kind not in SUFFIX_KINDS:
            break
        out.append((op.kind, op.detail, op.factor))
        eq = op.children[0]
    return list(reversed(out)), eq


def test_permutation_count_is_factorial(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    assert naive.permutations_considered(q1) == math.factorial(4) == 24
    assert naive.permutations_considered(q2) == math.factorial(6) == 720


def test_company_q1_expansion_is_frozen(company_catalog):
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    dag = naive.build_naive_dag(q, company_catalog)
    assert memo.count_nodes(dag) == (16, 26, 18)
    best = costplan.best_plan(dag, dag.query_roots["q1"])
    assert best.cum_cost == 57600.0


def test_suffix_order_group_project_order(tpch_catalog):
    # grouped cheapest at the root: group-by, projection, order-by, bottom-up
    q = parse_query(fixture_sql("tpch", "q1"), tpch_catalog)
    dag = naive.build_naive_dag(q, tpch_catalog)
    stack, _ = suffix_stack(dag, dag.query_roots["q1"])
    assert [s[0] for s in stack] == [memo.KIND_GROUPBY, memo.KIND_PROJECT,
                                     memo.KIND_ORDERBY]
    assert stack[0][1:] == ("groupby(lineitem.quantity)", 50.0)
    # q3 groups cheapest on {customer, orders}, below the lineitem join: the
    # group-by names that landing, and the order-by sorts the grouped rows
    q = parse_query(fixture_sql("tpch", "q3"), tpch_catalog)
    dag = naive.build_naive_dag(q, tpch_catalog)
    best = costplan.best_plan(dag, dag.query_roots["q1"])
    assert best.cum_cost == 8212200.0   # 8213400 grouped at the root
    path = [best]
    while path[-1].kind != memo.KIND_GROUPBY:
        path.append(next(c for c in path[-1].children if c.kind != "base"))
    assert [p.kind for p in path] == [memo.KIND_PROJECT, memo.KIND_JOIN,
                                      memo.KIND_ORDERBY, memo.KIND_GROUPBY]
    gb = path[-1]
    assert gb.detail.startswith("groupby(orders.orderkey)@{customer,orders} ")
    assert gb.factor == 10000.0  # distinct count of the grouping key


def test_suffix_includes_having(company_catalog):
    sql = ("select employee.dno, count(*) from employee "
           "group by employee.dno having count(*) > 5")
    q = parse_query(sql, company_catalog)
    dag = naive.build_naive_dag(q, company_catalog)
    stack, base_eq = suffix_stack(dag, dag.query_roots["q1"])
    kinds = [s[0] for s in stack]
    assert kinds == [memo.KIND_GROUPBY, memo.KIND_HAVING, memo.KIND_PROJECT]
    having = stack[1]
    assert having[1] == "having count(*) > 5"  # prefixed apart from selects
    assert having[2] == 0.1  # catalog default selectivity
    assert dag.eq_nodes[base_eq].is_base  # no joins or selects below


def test_single_relation_query_costs(tpch_catalog):
    q = parse_query(fixture_sql("tpch", "q1"), tpch_catalog)
    dag = naive.build_naive_dag(q, tpch_catalog)
    assert memo.count_nodes(dag) == (5, 4, 1)
    best = costplan.best_plan(dag, dag.query_roots["q1"])
    # select over 40000, then groupby/project/orderby over 4000, 50, 50 rows
    assert best.cum_cost == 40000.0 + 4000.0 + 50.0 + 50.0


def test_projection_elided_for_full_width(company_catalog):
    sql = ("select * from employee, department "
           "where employee.dno = department.dnumber")
    q = parse_query(sql, company_catalog)
    dag = naive.build_naive_dag(q, company_catalog)
    assert all(op.kind != memo.KIND_PROJECT for op in dag.op_nodes.values())
    root = dag.eq_nodes[dag.query_roots["q1"]]
    assert root.signature[3] == ()
    assert root.signature[0] == ("department", "employee")


def test_projection_kept_for_narrow_output(company_catalog):
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    dag = naive.build_naive_dag(q, company_catalog)
    stack, _ = suffix_stack(dag, dag.query_roots["q1"])
    assert [s[0] for s in stack] == [memo.KIND_PROJECT]
    assert stack[0][1] == ("project(employee.fname, employee.lname, "
                           "project.pname)")


def test_nested_query_rejected(company_catalog):
    q = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    with pytest.raises(ValidationError):
        naive.build_naive_dag(q, company_catalog)


def test_operation_limit(tpch_catalog):
    q = parse_query(fixture_sql("tpch", "tq1"), tpch_catalog)
    with pytest.raises(LimitExceededError) as exc:
        naive.build_naive_dag(q, tpch_catalog, limit=8)
    assert exc.value.n == 9 and exc.value.limit == 8
    naive.build_naive_dag(q, tpch_catalog, limit=9)  # and 9 is enough


def test_incremental_add_equals_fresh_combined(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    grown = incremental_naive_add([("q1", q1), ("q2", q2)], company_catalog)

    combined = naive.build_naive_dag(q1, company_catalog, query_id="q1")
    naive.build_naive_dag(q2, company_catalog, query_id="q2", dag=combined)

    sigs = lambda d: {n.signature for n in d.eq_nodes.values()}
    assert sigs(grown) == sigs(combined)
    assert memo.arc_signature_set(grown) == memo.arc_signature_set(combined)
    assert set(grown.query_roots) == {"q1", "q2"}


def test_shared_memo_reuses_overlap(company_catalog):
    q1 = parse_query(fixture_sql("company", "q1"), company_catalog)
    q2 = parse_query(fixture_sql("company", "q2"), company_catalog)
    alone = naive.build_naive_dag(q2, company_catalog)
    combined = naive.build_naive_dag(q1, company_catalog, query_id="q1")
    naive.build_naive_dag(q2, company_catalog, query_id="q2", dag=combined)
    eq_alone, op_alone, _ = memo.count_nodes(alone)
    eq_both, op_both, _ = memo.count_nodes(combined)
    # q1's space is a strict subset of q2's except for its own suffix nodes
    assert eq_both < eq_alone + 16
    assert op_both < op_alone + 26


def test_grouped_queries_at_different_landings_share_one_memo(tpch_catalog):
    # q1 groups at its root, q3 and q4 below it: each landing is named in its
    # group-by's text, so their sizes never meet in one eq-node
    queries = [(qid, parse_query(fixture_sql("tpch", qid), tpch_catalog))
               for qid in ("q1", "q3", "q4")]
    shared = incremental_naive_add(queries, tpch_catalog)
    check_estimates(shared)
    for qid, query in queries:
        alone = naive.build_naive_dag(query, tpch_catalog)
        assert (costplan.best_plan(shared, shared.query_roots[qid]).cum_cost
                == costplan.best_plan(alone, alone.query_roots["q1"]).cum_cost)
    assert [costplan.best_plan(shared, shared.query_roots[qid]).cum_cost
            for qid, _ in queries] == [44100.0, 8212200.0, 3211601.0]


def test_an_ordered_base_relation_costs_one_unary_op(request, company_catalog,
                                                     join_cost_formula):
    """Naive's sort-on-top step prices the order-by by `costplan.unary_cost`
    of the size under it, the definition `join_cost_formula` swaps: the
    order-by's position is chosen by input size alone under any rising
    unary cost, so only a pinned value shows a sort cost written inline.
    On company, `employee` (1000 rows) sorted reads 1000 under unary cost a
    and 2000 under 2a."""
    dag = memo.Dag()
    employee = memo.ensure_base(dag, "employee",
                                float(company_catalog.relation("employee").cardinality))
    costs = naive._costs(dag, [employee], frozenset({"employee"}))
    expected = {"a*b": 1000.0, "a+b": 1000.0, "a*b+a+b": 2000.0}
    assert costs.sorted[employee] == costplan.unary_cost(1000.0) == expected[
        request.node.callspec.params["join_cost_formula"]]
    assert costs.least[employee] == 0.0
