"""Every dag the program builds obeys the memo's rule: each op-node's output
signature strictly extends its inputs', and its sizes and costs are what its
inputs give (the `check_estimates` oracle); every history also saves and
loads back as the same document and the same dag, ids included."""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import joindag, memo, naive, sprinkle
from sprinkleqo.sqlfront import parse_query

from conftest import check_estimates, connected_query_sql, fixture_sql, random_schema

FLAT_FIXTURES = [("company", "q1"), ("company", "q2"), ("tpch", "q1"), ("tpch", "q2"),
                 ("tpch", "q3"), ("tpch", "q4"), ("tpch", "tq1")]


def signature_extends(out, sig) -> bool:
    """`out` holds every base, join and unary part of `sig`, and more; and a
    projection of `sig`, if any, is also `out`'s."""
    parts = list(zip(out[:3], sig[:3]))
    grows = any(set(o) > set(s) for o, s in parts) or bool(out[3] and not sig[3])
    return (grows and all(set(o) >= set(s) for o, s in parts)
            and sig[3] in ((), out[3]))


def assert_obeys_the_rule(dag):
    for node in dag.eq_nodes.values():
        for op_id in node.child_ops:
            for child in dag.op_nodes[op_id].children:
                assert signature_extends(node.signature, dag.eq_nodes[child].signature)
    check_estimates(dag)


def assert_history_obeys_the_rule(history):
    assert_obeys_the_rule(history.dag)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "history.json")
        joindag.save_history(history, path)
        back = joindag.load_history(path)
    assert memo.arc_signature_set(back.dag) == memo.arc_signature_set(history.dag)
    assert memo.dag_to_doc(back.dag) == memo.dag_to_doc(history.dag)
    assert joindag._history_doc(back) == joindag._history_doc(history)


def test_signature_extends_spots_each_way_of_not_extending():
    base = memo.base_signature("a")
    sel = memo.extend_signature(base, memo.KIND_SELECT, "a.x > 1")
    projected = memo.extend_signature(sel, memo.KIND_PROJECT, "project(a.x)")
    assert signature_extends(sel, base) and signature_extends(projected, sel)
    assert not signature_extends(sel, sel)
    assert not signature_extends(base, sel)
    assert not signature_extends(sel, projected)  # a projection dropped
    assert not signature_extends(
        memo.make_signature(["a"], (), ["a.x > 1"], ["a.y"]), projected)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_histories_and_naive_dags_over_random_schemas(seed):
    rng = random.Random(seed)
    catalog = random_schema(rng)
    history = joindag.build_complete_history(catalog, catalog.graph.edges, limit=8)
    assert_history_obeys_the_rule(history)
    query = parse_query(connected_query_sql(catalog, rng, max_selects=2), catalog)
    if query.n_operations() <= 7:
        assert_obeys_the_rule(naive.build_naive_dag(query, catalog))


@pytest.mark.parametrize("group, name", FLAT_FIXTURES)
def test_fixture_dags(group, name, company_catalog, tpch_catalog):
    catalog = company_catalog if group == "company" else tpch_catalog
    query = parse_query(fixture_sql(group, name), catalog)
    res = sprinkle.optimize_single(query, catalog)
    assert_history_obeys_the_rule(res.history)
    assert_obeys_the_rule(res.dag)
    assert_obeys_the_rule(sprinkle.extract_query_joindag(res.history, query, catalog, "q1"))
    assert_obeys_the_rule(naive.build_naive_dag(query, catalog, limit=9))


def test_shared_multi_query_dags(company_catalog, tpch_catalog):
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        queries = [(name, parse_query(fixture_sql(g, name), catalog))
                   for g, name in FLAT_FIXTURES if g == group]
        shared, _, history = sprinkle.optimize_many(queries, catalog)
        assert_obeys_the_rule(shared)
        assert_history_obeys_the_rule(history)
