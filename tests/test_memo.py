"""Memo table: interning, signatures, op attachment, counts, DOT, round-trip."""

import math
import os
import random
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import costplan, joindag, memo, naive, sprinkle
from sprinkleqo.errors import DagError
from sprinkleqo.memo import (Dag, KIND_GROUPBY, KIND_HAVING, KIND_JOIN, KIND_JOINFILTER,
                             KIND_PROJECT, KIND_SELECT, OpNode, SIZE_RTOL,
                             arc_signature_set, attach_op, base_signature,
                             count_nodes, dag_to_doc, ensure_base,
                             export_dot, extend_signature, intern_eq,
                             join_signature, merge_below, plan_count_for, register_root,
                             signature_text)
from sprinkleqo.sqlfront import parse_query

from conftest import FIXTURES, make_catalog, random_schema


def two_base_dag():
    dag = Dag()
    a = ensure_base(dag, "a", 100.0)
    b = ensure_base(dag, "b", 200.0)
    return dag, a, b


def test_intern_same_signature_returns_same_id():
    dag = Dag()
    sig = base_signature("a")
    assert intern_eq(dag, sig, 10.0) == intern_eq(dag, sig, 10.0)
    assert len(dag.eq_nodes) == 1


def test_intern_size_collision_raises():
    dag = Dag()
    sig = base_signature("a")
    intern_eq(dag, sig, 10.0)
    intern_eq(dag, sig, 10.0 * (1 + SIZE_RTOL / 10))  # inside tolerance
    with pytest.raises(DagError, match="size"):
        intern_eq(dag, sig, 11.0)


@pytest.mark.parametrize("cost", [2.5e6, 3.0, 1.0, 0.5, 1e-12, 0.0, -0.5, -1.0, -4.0e3])
def test_within_rounding_is_the_tie_bound(cost):
    # a cost ties `cost` up to 1e-9 of |cost|, or up to 1e-9 itself when
    # |cost| < 1: the bound ties, and the next float up does not
    at = cost + 1e-9 * max(1.0, abs(cost))
    assert at <= memo.within_rounding(cost) < math.nextafter(at, math.inf)
    assert cost < memo.within_rounding(cost)


def test_join_signature_is_order_insensitive():
    sa, sb = base_signature("a"), base_signature("b")
    assert join_signature(sa, sb, "a.x = b.x") == join_signature(sb, sa, "a.x = b.x")


def test_extend_signature_routes_by_kind():
    sig = base_signature("a")
    sel = extend_signature(sig, KIND_SELECT, "a.x > 3")
    assert "a.x > 3" in sel[2]
    jf = extend_signature(sig, KIND_JOINFILTER, "a.x = b.x")
    assert "a.x = b.x" in jf[1]  # joinfilter counts as an applied join
    pr = extend_signature(sig, KIND_PROJECT, "project(a.x, a.y)")
    assert pr[3] == ("a.x", "a.y")


def test_commuted_select_orders_share_one_node():
    dag = Dag()
    a = ensure_base(dag, "a", 100.0)
    s1 = extend_signature(dag.eq_nodes[a].signature, KIND_SELECT, "a.x > 1")
    s12 = extend_signature(s1, KIND_SELECT, "a.y > 2")
    s2 = extend_signature(dag.eq_nodes[a].signature, KIND_SELECT, "a.y > 2")
    s21 = extend_signature(s2, KIND_SELECT, "a.x > 1")
    assert s12 == s21
    assert intern_eq(dag, s12, 1.0) == intern_eq(dag, s21, 1.0)


def test_attach_op_deduplicates_and_checks_children():
    dag, a, b = two_base_dag()
    top1 = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1)
    top2 = attach_op(dag, KIND_JOIN, "a.x = b.x", (b, a), 2000.0, 20000.0, factor=0.1)
    assert top1 == top2  # children are canonicalized before dedup
    assert len(dag.op_nodes) == 1
    assert dag.eq_nodes[top1].signature == join_signature(
        dag.eq_nodes[a].signature, dag.eq_nodes[b].signature, "a.x = b.x")
    with pytest.raises(DagError, match="two children"):
        attach_op(dag, KIND_JOIN, "a.x = b.x", (a,), 1.0, 1.0, factor=0.1)
    with pytest.raises(DagError, match="dangling"):
        attach_op(dag, KIND_JOIN, "other", (a, 999), 1.0, 1.0, factor=0.1)


def test_reattaching_an_op_node_keeps_every_check():
    dag, a, b = two_base_dag()
    top = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1)
    sel = attach_op(dag, KIND_SELECT, "a.x > 1", (a,), 10.0, 100.0, factor=0.1)
    before = dag_to_doc(dag)
    # the swapped join is the same op-node under the same eq-node
    assert attach_op(dag, KIND_JOIN, "a.x = b.x", (b, a), 2000.0, 20000.0, factor=0.1) == top
    assert attach_op(dag, KIND_SELECT, "a.x > 1", (a,), 10.0, 100.0, factor=0.1) == sel
    # an existing op-node's size is checked as interning its eq-node checks it
    with pytest.raises(DagError) as exc:
        attach_op(dag, KIND_JOIN, "a.x = b.x", (b, a), 3000.0, 20000.0, factor=0.1)
    assert str(exc.value) == ("signature collision with inconsistent est_size: "
                              "'{a,b} j[a.x = b.x]' has 2000.0 vs 3000.0")
    with pytest.raises(DagError) as fresh:
        intern_eq(dag, dag.eq_nodes[top].signature, 3000.0)
    assert str(fresh.value) == str(exc.value)
    # every other check runs before the lookup
    for call, match in [
            ((KIND_JOIN, "a.x = b.x", (a, b), float("inf"), 20000.0), "overflows"),
            ((KIND_SELECT, "a.x > 1", (a,), 10.0, float("nan")), "overflows"),
            ((KIND_SELECT, "a.x > 1", (999,), 10.0, 100.0), "dangling"),
            ((KIND_JOIN, "a.x = b.x", (a, b, b), 2000.0, 20000.0), "two children"),
            ((KIND_SELECT, "a.x > 1", (a, a), 10.0, 100.0), "one child"),
            (("scan", "a.x > 1", (a,), 10.0, 100.0), "unknown op kind")]:
        with pytest.raises(DagError, match=match):
            attach_op(dag, *call, factor=0.1)
    assert dag_to_doc(dag) == before


NAN, INF = float("nan"), float("inf")


def selected(dag, eq, detail, est_size=10.0):
    """`eq` under a select `detail` of ssf 0.1 that yields `est_size` rows."""
    return attach_op(dag, KIND_SELECT, detail, (eq,), est_size, 100.0, factor=0.1)


def other_order(dag, a):
    """`a` under `a.y > 2`, once `a.x > 1` then `a.y > 2` yield 1.0 rows."""
    selected(dag, selected(dag, a, "a.x > 1"), "a.y > 2", 1.0)
    return selected(dag, a, "a.y > 2")


# (the arguments of a malformed attach_op call over two_base_dag's a, b and
# their join ab, the DagError text it raises)
MALFORMED_ATTACHES = [
    (lambda dag, a, b, ab: ("scan", "a.x > 1", (a,), 10.0, 100.0),
     "unknown op kind 'scan'"),
    (lambda dag, a, b, ab: ("scan", "a.x > 1", (a,), 10.0, INF),   # the kind first
     "unknown op kind 'scan'"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (a, b), INF, 20000.0),
     "join 'a.y = b.y': estimate overflows (est_size inf, op_cost 20000.0)"),
    (lambda dag, a, b, ab: (KIND_SELECT, "a.x > 1", (999,), NAN, 100.0),   # finiteness first
     "select 'a.x > 1': estimate overflows (est_size nan, op_cost 100.0)"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (a, 999), 1.0, NAN),
     "join 'a.y = b.y': estimate overflows (est_size 1.0, op_cost nan)"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (998, 999), 1.0, 1.0),
     "dangling child eq-node 998"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (a, 999), 1.0, 1.0),
     "dangling child eq-node 999"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (a, b, 999), 1.0, 1.0),   # children first
     "dangling child eq-node 999"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (a, b, b), 1.0, 1.0),
     "join ops take exactly two children"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (a,), 1.0, 1.0),
     "join ops take exactly two children"),
    (lambda dag, a, b, ab: (KIND_SELECT, "a.x > 1", (a, 999), 1.0, 1.0),
     "dangling child eq-node 999"),
    (lambda dag, a, b, ab: (KIND_HAVING, "count(*) > 1", (a, b), 1.0, 1.0),
     "having ops take exactly one child"),
    (lambda dag, a, b, ab: (KIND_PROJECT, "project(a.x)", (), 1.0, 1.0),
     "project ops take exactly one child"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.y = b.y", (ab, b), 1.0, 1.0),
     "join 'a.y = b.y' of '{a,b} j[a.x = b.x]' and '{b}': "
     "inputs must be disjoint and unprojected"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.x = b.x", (projected_a(dag, a), b), 1.0, 1.0),
     "join 'a.x = b.x' of '{a} p[a.x]' and '{b}': inputs must be disjoint and unprojected"),
    (lambda dag, a, b, ab: (KIND_SELECT, "a.x > 1", (attach_op(
        dag, KIND_SELECT, "a.x > 1", (a,), 10.0, 100.0, factor=0.1),), 1.0, 10.0),
     "select 'a.x > 1' is already applied in '{a} u[a.x > 1]'"),
    (lambda dag, a, b, ab: (KIND_JOINFILTER, "a.x = b.x", (ab,), 1.0, 2000.0),
     "joinfilter 'a.x = b.x' is already applied in '{a,b} j[a.x = b.x]'"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.x = b.x", (ensure_base(dag, "c", 10.0), ab), 1.0, 1.0),
     "join 'a.x = b.x' is already applied in '{a,b} j[a.x = b.x]'"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.x = b.x", (ab, ensure_base(dag, "0", 10.0)), 1.0, 1.0),
     "join 'a.x = b.x' is already applied in '{a,b} j[a.x = b.x]'"),   # the second input
    (lambda dag, a, b, ab: (KIND_PROJECT, "project(a.y)", (projected_a(dag, a),), 1.0, 1.0),
     "'project(a.y)' does not extend '{a} p[a.x]'"),
    (lambda dag, a, b, ab: (KIND_PROJECT, "project()", (a,), 1.0, 1.0),
     "'project()' does not extend '{a}'"),
    (lambda dag, a, b, ab: (KIND_JOIN, "a.x = b.x", (b, a), 3000.0, 20000.0),   # op found
     "signature collision with inconsistent est_size: '{a,b} j[a.x = b.x]' has 2000.0 vs 3000.0"),
    (lambda dag, a, b, ab: (KIND_SELECT, "a.x > 1", (projected_a(dag, attach_op(
        dag, KIND_SELECT, "a.x > 1", (a,), 10.0, 100.0, factor=0.1)),), 10.0, 10.0),
     "select 'a.x > 1' is already applied in '{a} u[a.x > 1] p[a.x]'"),
    (lambda dag, a, b, ab: (KIND_SELECT, "a.x > 1", (other_order(dag, a),), 5.0, 10.0),
     "signature collision with inconsistent est_size: '{a} u[a.x > 1; a.y > 2]' has 1.0 vs 5.0"),
]
MALFORMED_IDS = ["unknown-kind", "unknown-kind-inf-cost", "inf-size", "dangling-with-nan-size",
                 "dangling-join-with-nan-cost", "two-dangling", "dangling-right",
                 "three-children-dangling", "three-children", "one-child-join",
                 "dangling-select", "two-child-having", "no-child-project", "overlapping-join",
                 "projected-join-input", "condition-applied-twice",
                 "joinfilter-of-applied-join", "join-of-applied-join",
                 "join-of-applied-join-second-input", "project-over-projected",
                 "empty-project", "size-of-a-found-op", "reapplied-under-a-projection",
                 "size-of-a-found-eq-node"]


@pytest.mark.parametrize("call, message", MALFORMED_ATTACHES, ids=MALFORMED_IDS)
def test_malformed_attach_op_raises_its_exact_text(call, message):
    """Every malformed call's DagError text, the first broken rule's where
    a call breaks two, and the dag unchanged."""
    dag, a, b = two_base_dag()
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1)
    args = call(dag, a, b, ab)
    before = dag_to_doc(dag)
    with pytest.raises(DagError) as exc:
        attach_op(dag, *args, factor=0.1)
    assert str(exc.value) == message
    assert dag_to_doc(dag) == before


def given_numbers_decide(message: str) -> bool:
    """Whether a malformed attach_op call fails on the size or cost it was
    given, which `costplan.intern_op` computes instead."""
    return "overflows" in message or "collision" in message


@pytest.mark.parametrize("call, message", [
    case for case in MALFORMED_ATTACHES if not given_numbers_decide(case[1])], ids=[
    name for case, name in zip(MALFORMED_ATTACHES, MALFORMED_IDS)
    if not given_numbers_decide(case[1])])
def test_malformed_intern_op_raises_attach_op_s_text(call, message):
    """`costplan.intern_op` enters the attach step that `attach_op` enters,
    and raises its DagError texts, never a bare KeyError, IndexError or
    ValueError.  Calls that fail on their given size or cost are left out:
    intern_op computes both from its inputs once it has read them."""
    dag, a, b = two_base_dag()
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1)
    kind, detail, children, _, _ = call(dag, a, b, ab)
    before = dag_to_doc(dag)
    with pytest.raises(DagError) as exc:
        costplan.intern_op(dag, kind, detail, children, factor=0.1)
    assert str(exc.value) == message
    assert dag_to_doc(dag) == before


@pytest.mark.parametrize("kind, detail, children, factor, message", [
    (KIND_JOIN, "x", (0, 99), 0.1, "dangling child eq-node 99"),
    (KIND_JOIN, "x", (), 0.1, "join ops take exactly two children"),
    (KIND_SELECT, "x", (), 0.1, "select ops take exactly one child"),
    (KIND_JOIN, "x", (0, 1, 1), 0.1, "join ops take exactly two children"),
    (KIND_SELECT, "x", (0, 1), 0.1, "select ops take exactly one child"),
    (KIND_JOIN, "a.y = b.y", (0, 1), 1e307,
     "join 'a.y = b.y': estimate overflows (est_size inf, op_cost 20000.0)"),
    (KIND_SELECT, "a.x > 1", (0,), math.inf,
     "select 'a.x > 1': estimate overflows (est_size inf, op_cost 100.0)"),
], ids=["dangling", "no-child-join", "no-child-select", "three-child-join", "two-child-select",
        "overflowing-join", "overflowing-select"])
def test_intern_op_refuses_what_it_cannot_read_or_size(kind, detail, children, factor, message):
    """What raised a bare KeyError, IndexError or ValueError out of
    `costplan.intern_op` raises `attach_op`'s DagError, and an estimate it
    computes that overflows is refused with the text `attach_op` gives a
    given one."""
    dag, a, b = two_base_dag()
    assert (a, b) == (0, 1)
    before = dag_to_doc(dag)
    with pytest.raises(DagError) as exc:
        costplan.intern_op(dag, kind, detail, children, factor)
    assert str(exc.value) == message
    assert dag_to_doc(dag) == before


def test_every_copy_records_the_eq_node_above_each_op_node():
    """Each op-node sits under the one eq-node its key derives, in the dag,
    its clone and a view below `top` (which leaves out the select above
    it); re-attaching it finds it there and writes nothing."""
    dag, top = diamond_dag()
    attach_op(dag, KIND_SELECT, "a.x > 1", (top,), 0.06, 0.6, factor=0.1)
    expected = {dag.op_nodes[op_id].sort_key(): eq_id
                for eq_id, node in dag.eq_nodes.items() for op_id in node.child_ops}
    assert len(expected) == len(dag.op_nodes) == 5
    for copy in (dag, dag.clone(), dag.below(top)):
        above = {copy.op_nodes[op_id].sort_key(): eq_id
                 for eq_id, node in copy.eq_nodes.items() for op_id in node.child_ops}
        assert above == {k: eq_id for k, eq_id in expected.items() if eq_id in copy.eq_nodes}
        before = dag_to_doc(copy)
        for eq_id, node in copy.eq_nodes.items():
            for op_id in node.child_ops:
                kind, detail, children = copy.op_nodes[op_id].sort_key()
                assert attach_op(copy, kind, detail, children[::-1],
                                 copy.eq_nodes[eq_id].est_size, 1.0, factor=0.5) == eq_id
        assert dag_to_doc(copy) == before


def test_op_nodes_are_immutable_records():
    op = OpNode(3, KIND_JOIN, "a.x = b.x", (0, 1), 200.0, 0.01)
    assert op.factor == 0.01 and op.sort_key() == (KIND_JOIN, "a.x = b.x", (0, 1))
    assert OpNode(0, KIND_PROJECT, "project(a.x)", (0,), 1.0).factor is None
    with pytest.raises(AttributeError):
        op.op_cost = 0.0


def projected_a(dag, a):
    return attach_op(dag, KIND_PROJECT, "project(a.x)", (a,), 100.0, 100.0)


@pytest.mark.parametrize("kind, detail, inputs, match", [
    (KIND_SELECT, "a.x > 1", lambda dag, a, b: (attach_op(
        dag, KIND_SELECT, "a.x > 1", (a,), 10.0, 100.0, factor=0.1),), "already applied"),
    (KIND_JOINFILTER, "a.x = b.x", lambda dag, a, b: (attach_op(
        dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1),),
     "already applied"),
    (KIND_JOIN, "a.x = b.x", lambda dag, a, b: (attach_op(
        dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1),
        ensure_base(dag, "c", 10.0)), "already applied"),
    (KIND_JOIN, "a.y = b.y", lambda dag, a, b: (attach_op(
        dag, KIND_JOIN, "a.x = b.x", (a, b), 2000.0, 20000.0, factor=0.1), b),
     "disjoint"),
    (KIND_PROJECT, "project(a.y)", lambda dag, a, b: (projected_a(dag, a),), "extend"),
    (KIND_JOIN, "a.x = b.x", lambda dag, a, b: (projected_a(dag, a), b), "unprojected"),
], ids=["reapplied-select", "joinfilter-of-applied-join", "join-of-applied-join",
        "overlapping-join",
        "project-over-projected", "join-over-projected"])
def test_non_extending_op_rejected(kind, detail, inputs, match):
    dag, a, b = two_base_dag()
    children = inputs(dag, a, b)
    before = dag_to_doc(dag)
    with pytest.raises(DagError, match=match):
        attach_op(dag, kind, detail, children, 1.0, 1.0, factor=0.1)
    assert dag_to_doc(dag) == before


def test_register_root_requires_known_node():
    dag = Dag()
    with pytest.raises(DagError, match="unknown"):
        register_root(dag, "q1", 5)
    a = ensure_base(dag, "a", 10.0)
    register_root(dag, "q1", a)
    assert dag.query_roots["q1"] == a


def diamond_dag():
    """Two alternative join orders for {a, b, c}: 2 plans at the root."""
    dag = Dag()
    a = ensure_base(dag, "a", 10.0)
    b = ensure_base(dag, "b", 20.0)
    c = ensure_base(dag, "c", 30.0)
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2.0, 200.0, factor=0.01)
    bc = attach_op(dag, KIND_JOIN, "b.y = c.y", (b, c), 6.0, 600.0, factor=0.01)
    top = attach_op(dag, KIND_JOIN, "b.y = c.y", (ab, c), 0.6, 60.0, factor=0.01)
    assert attach_op(dag, KIND_JOIN, "a.x = b.x", (a, bc), 0.6, 60.0, factor=0.01) == top
    register_root(dag, "q1", top)
    return dag, top


def test_plan_count_and_node_counts():
    dag, top = diamond_dag()
    assert plan_count_for(dag, top) == 2
    eq, op, plans = count_nodes(dag)
    assert (eq, op, plans) == (6, 4, 2)
    eq_i, op_i, plans_i = count_nodes(dag, internal_only=True)
    assert (eq_i, op_i, plans_i) == (3, 4, 2)


def test_topological_order_puts_consumers_first_whatever_the_ids():
    dag = Dag()
    a = ensure_base(dag, "a", 10.0)
    b = ensure_base(dag, "b", 20.0)
    c = ensure_base(dag, "c", 30.0)
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2.0, 200.0, factor=0.01)
    top = attach_op(dag, KIND_JOIN, "b.y = c.y", (ab, c), 0.6, 60.0, factor=0.01)
    # a new, higher-id class hung below the existing top
    bc = attach_op(dag, KIND_JOIN, "b.y = c.y", (b, c), 6.0, 600.0, factor=0.01)
    assert attach_op(dag, KIND_JOIN, "a.x = b.x", (a, bc), 0.6, 60.0, factor=0.01) == top
    assert bc > top
    order = memo.topological_order(dag)
    assert sorted(order) == sorted(dag.eq_nodes)
    position = {eq: i for i, eq in enumerate(order)}
    for eq_id, node in dag.eq_nodes.items():
        for op_id in node.child_ops:
            for child in dag.op_nodes[op_id].children:
                assert position[eq_id] < position[child]
    assert plan_count_for(dag, top) == 2


def test_clone_is_independent():
    dag, top = diamond_dag()
    other = dag.clone()
    attach_op(other, KIND_SELECT, "a.x > 1", (top,), 0.06, 0.6, factor=0.1)
    assert len(other.eq_nodes) == len(dag.eq_nodes) + 1
    assert count_nodes(dag) == (6, 4, 2)


def assert_consumers_first(dag, order):
    assert sorted(order) == sorted(dag.eq_nodes)
    position = {eq: i for i, eq in enumerate(order)}
    for eq_id, node in dag.eq_nodes.items():
        for op_id in node.child_ops:
            for child in dag.op_nodes[op_id].children:
                assert position[eq_id] < position[child]


def cyclic_histories(count):
    """Complete histories of the first `count` seeded random schemas whose
    join graph has a cycle."""
    rng = random.Random(20260)
    out = []
    while len(out) < count:
        catalog = random_schema(rng, max_edges=8)
        if any(sum(1 for e in catalog.graph.edges if set(e.relations()) <= comp) >= len(comp)
               for comp in catalog.graph.components()):
            out.append(joindag.build_complete_history(catalog, catalog.graph.edges))
    return out


def diamond_history():
    """The diamond's joins, sizes and factors as a complete history: its
    two join orders of {a, b, c}, two plans at its one root."""
    attributes = [{"name": "x", "distinct": 10}, {"name": "y", "distinct": 10}]
    catalog = make_catalog(
        [{"name": r, "cardinality": card, "attributes": attributes}
         for r, card in (("a", 10), ("b", 20), ("c", 30))],
        [{"left": "a.x", "right": "b.x", "jsf": 0.01},
         {"left": "b.y", "right": "c.y", "jsf": 0.01}])
    return joindag.build_complete_history(catalog, catalog.graph.edges)


def reloaded(history):
    """`history` saved and loaded back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "history.json")
        joindag.save_history(history, path)
        return joindag.load_history(path)


def test_count_nodes_counts_a_dag_deeper_than_the_stack():
    # a select chain longer than the recursion limit, counted from its
    # parentless top and from the same top as a registered root
    dag = Dag()
    top = ensure_base(dag, "employee", 1000.0)
    depth = sys.getrecursionlimit() + 200
    for i in range(depth):
        top = attach_op(dag, KIND_SELECT, f"s{i}", (top,), 1000.0, 1000.0, factor=1.0)
    assert count_nodes(dag) == (depth + 1, depth, 1)
    register_root(dag, "q1", top)
    assert count_nodes(dag) == (depth + 1, depth, 1)


def test_below_reads_a_dag_deeper_than_the_stack():
    # a select chain longer than the recursion limit, read from its top and
    # from a node halfway down, which reaches the nodes built before it
    dag = Dag()
    top = ensure_base(dag, "a", 1000.0)
    for i in range(sys.getrecursionlimit() + 200):
        top = attach_op(dag, KIND_SELECT, f"s{i}", (top,), 1000.0, 1000.0, factor=1.0)
    view = dag.below(top)
    assert dag_to_doc(view) == dag_to_doc(dag)
    assert all(view.eq_nodes[i] is node for i, node in dag.eq_nodes.items())
    assert all(view.op_nodes[i] is op for i, op in dag.op_nodes.items())
    half = top // 2
    view = dag.below(half)
    assert sorted(view.eq_nodes) == list(range(half + 1))
    assert sorted(view.op_nodes) == list(range(half))


def test_merge_below_copies_a_dag_deeper_than_the_stack():
    # a select chain longer than the recursion limit, next to a relation
    # below no root it is merged from
    src = Dag()
    ensure_base(src, "b", 20.0)
    top = ensure_base(src, "a", 1000.0)
    for i in range(sys.getrecursionlimit() + 200):
        top = attach_op(src, KIND_SELECT, f"s{i}", (top,), 1000.0, 1000.0 + i, factor=1.0)
    before = dag_to_doc(src)
    dst = Dag()
    root = merge_below(dst, src, top)
    assert dag_to_doc(src) == before
    assert dst.eq_nodes[root].signature == src.eq_nodes[top].signature
    assert arc_signature_set(dst) == arc_signature_set(src)
    assert len(dst.eq_nodes) == len(src.eq_nodes) - 1
    assert sorted(op.op_cost for op in dst.op_nodes.values()) == \
        sorted(op.op_cost for op in src.op_nodes.values())
    assert merge_below(dst, src, top) == root and len(dst.op_nodes) == len(src.op_nodes)


def test_merge_below_finds_the_nodes_its_target_holds():
    """Merging the diamond into a dag that holds one of its join orders
    adds the other, and keeps the target's own sizes and costs."""
    dag, top = diamond_dag()
    dst = Dag()
    a, b = ensure_base(dst, "a", 10.0), ensure_base(dst, "b", 20.0)
    ab = attach_op(dst, KIND_JOIN, "a.x = b.x", (a, b), 2.0 * (1 + 1e-12), 200.5, factor=0.01)
    root = merge_below(dst, dag, top)
    assert arc_signature_set(dst) == arc_signature_set(dag)
    assert count_nodes(dst)[:2] == count_nodes(dag)[:2]
    assert dst.eq_nodes[ab].est_size == 2.0 * (1 + 1e-12)
    assert [op.op_cost for op in dst.op_nodes.values() if op.children == (a, b)] == [200.5]
    assert dst.eq_nodes[root].signature == dag.eq_nodes[top].signature
    assert plan_count_for(dst, root) == 2


def entries_then_ids(dag):
    """The order `topological_order` promises, spelled out: signature entry
    count (a projection counting as one) descending, then id ascending."""
    def entries(eq_id):
        bases, joins, unary, projection = dag.eq_nodes[eq_id].signature
        return len(bases) + len(joins) + len(unary) + (1 if projection else 0)
    return sorted(dag.eq_nodes, key=lambda eq_id: (-entries(eq_id), eq_id))


def test_topological_order_sorts_by_signature_entries_as_nodes_are_added():
    """The order of a dag, and of the dag once nodes are added to it: a new
    class with a higher id hung below an existing parent, a new op-node
    alone between existing classes, a select above the root and a
    projection above that."""
    dag = Dag()
    a, b, c, d = (ensure_base(dag, r, size) for r, size in
                  (("a", 10.0), ("b", 20.0), ("c", 30.0), ("d", 40.0)))
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2.0, 200.0, factor=0.01)
    abc = attach_op(dag, KIND_JOIN, "b.y = c.y", (ab, c), 0.6, 60.0, factor=0.01)
    root = attach_op(dag, KIND_JOIN, "c.z = d.z", (abc, d), 0.24, 24.0, factor=0.01)
    assert memo.topological_order(dag) == [root, abc, ab, a, b, c, d]

    # bc and bcd get higher ids than abc and root, which consume them
    bc = attach_op(dag, KIND_JOIN, "b.y = c.y", (b, c), 6.0, 600.0, factor=0.01)
    bcd = attach_op(dag, KIND_JOIN, "c.z = d.z", (bc, d), 2.4, 240.0, factor=0.01)
    assert attach_op(dag, KIND_JOIN, "a.x = b.x", (a, bcd), 0.24, 24.0, factor=0.01) == root
    assert min(bc, bcd) > max(root, abc)
    assert memo.topological_order(dag) == [root, abc, bcd, ab, bc, a, b, c, d]
    ops = len(dag.op_nodes)
    assert attach_op(dag, KIND_JOIN, "a.x = b.x", (a, bc), 0.6, 60.0, factor=0.01) == abc
    assert len(dag.op_nodes) == ops + 1
    assert memo.topological_order(dag) == [root, abc, bcd, ab, bc, a, b, c, d]

    sel = attach_op(dag, KIND_SELECT, "a.x > 1", (root,), 0.024, 0.24, factor=0.1)
    proj = attach_op(dag, KIND_PROJECT, "project(a.x, b.y, c.z)", (sel,), 0.024, 0.024)
    order = memo.topological_order(dag)
    assert order == [proj, sel, root, abc, bcd, ab, bc, a, b, c, d]
    assert order == entries_then_ids(dag)
    assert_consumers_first(dag, order)


def test_topological_order_is_consumers_first_on_histories_and_their_copies():
    for history in cyclic_histories(10):
        dag = history.dag
        for candidate in (dag, reloaded(history).dag,
                          *(dag.below(root) for root in memo.dag_roots(dag))):
            order = memo.topological_order(candidate)
            assert order == entries_then_ids(candidate)
            assert_consumers_first(candidate, order)


def test_topological_order_is_the_one_key_order_on_fixture_dags(company_catalog, tpch_catalog):
    """The two sorts `topological_order` takes, by id and then stably by
    entry count, give the order one sort by (-entries, id) gives, on each
    fixture schema's complete history and its views, on the final dag of
    every fixture query, and on the naive dag of each the baseline takes."""
    checked = 0
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        history = joindag.build_complete_history(catalog, catalog.graph.edges)
        dags = [history.dag, *(history.dag.below(root) for root in memo.dag_roots(history.dag))]
        for path in sorted((FIXTURES / group).glob("*.sql")):
            query = parse_query(path.read_text(), catalog)
            dags.append(sprinkle.optimize_single(query, catalog).dag)
            if query.subquery is None:
                dags.append(naive.build_naive_dag(query, catalog, limit=query.n_operations()))
        for dag in dags:
            assert memo.topological_order(dag) == entries_then_ids(dag)
            checked += 1
    assert checked == 19


def test_nothing_writes_through_a_dag_read_in_place():
    # two orders of {a,b,c,d} below the root, and cd, which no op-node consumes
    dag = Dag()
    a, b, c, d = (ensure_base(dag, r, size) for r, size in
                  (("a", 10.0), ("b", 20.0), ("c", 30.0), ("d", 40.0)))
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2.0, 200.0, factor=0.01)
    abc = attach_op(dag, KIND_JOIN, "b.y = c.y", (ab, c), 0.6, 60.0, factor=0.01)
    top = attach_op(dag, KIND_JOIN, "c.z = d.z", (abc, d), 0.24, 24.0, factor=0.01)
    bc = attach_op(dag, KIND_JOIN, "b.y = c.y", (b, c), 6.0, 600.0, factor=0.01)
    bcd = attach_op(dag, KIND_JOIN, "c.z = d.z", (bc, d), 2.4, 240.0, factor=0.01)
    assert attach_op(dag, KIND_JOIN, "a.x = b.x", (a, bcd), 0.24, 24.0, factor=0.01) == top
    cd = attach_op(dag, KIND_JOIN, "c.z = d.z", (c, d), 12.0, 1200.0, factor=0.01)
    register_root(dag, "component", top)
    doc, key_index, op_nodes = dag_to_doc(dag), dict(dag._key_index), dict(dag.op_nodes)
    bits = tuple(map(dict, dag._bits))

    view = dag.below(top)
    assert view.eq_nodes == {i: dag.eq_nodes[i] for i in (a, b, c, d, ab, abc, top, bc, bcd)}
    assert all(view.eq_nodes[i] is dag.eq_nodes[i] for i in view.eq_nodes)
    assert not view.query_roots
    register_root(view, "q1", top)
    # existing op-nodes are read, not written
    assert attach_op(view, KIND_JOIN, "c.z = d.z", (abc, d), 0.24, 24.0, factor=0.01) == top
    with pytest.raises(TypeError):   # a new op-node over existing eq-nodes
        attach_op(view, KIND_JOIN, "a.x = b.x", (a, bc), 0.6, 60.0, factor=0.01)
    with pytest.raises(TypeError):   # the op-node map is read-only too
        view.op_nodes[len(dag.op_nodes)] = dag.op_nodes[0]
    with pytest.raises(DagError, match="dangling"):   # over an eq-node outside the view
        attach_op(view, KIND_JOIN, "b.y = c.y", (ab, cd), 0.24, 24.0, factor=0.01)
    with pytest.raises(TypeError):   # a new eq-node
        attach_op(view, KIND_SELECT, "a.x > 1", (top,), 0.024, 0.24, factor=0.1)
    with pytest.raises(TypeError):
        ensure_base(view, "e", 5.0)
    assert dag_to_doc(dag) == doc
    assert (dag._key_index, dag.op_nodes, dag._bits) == (key_index, op_nodes, bits)
    assert dag.query_roots == {"component": top}


def test_attaching_into_a_view_an_op_whose_eq_node_is_outside_it_is_a_dag_error():
    """A view's key index is its whole dag's, so the key of an op over the
    view's nodes may name an eq-node the view leaves out: that is a
    DagError naming the eq-node, not a bare KeyError."""
    dag = Dag()
    a, b = ensure_base(dag, "a", 10.0), ensure_base(dag, "b", 20.0)
    ab = attach_op(dag, KIND_JOIN, "a.x = b.x", (a, b), 2.0, 200.0, factor=0.01)
    selected = attach_op(dag, KIND_SELECT, "a.x > 1", (ab,), 0.2, 2.0, factor=0.1)
    doc = dag_to_doc(dag)
    view = dag.below(ab)
    assert selected == 3 and selected not in view.eq_nodes
    with pytest.raises(DagError, match=r"^select 'a\.x > 1' yields eq-node 3, outside this "
                                       r"view$"):
        attach_op(view, KIND_SELECT, "a.x > 1", (ab,), 0.2, 2.0, factor=0.1)
    assert dag_to_doc(dag) == doc


def test_arc_signature_set_distinguishes_wiring():
    dag, _ = diamond_dag()
    arcs = arc_signature_set(dag)
    assert len(arcs) == 4
    # one arc per op: (parent signature, kind, detail, child signatures)
    kinds = {arc[1] for arc in arcs}
    assert kinds == {KIND_JOIN}


DOT_NODE = re.compile(r'^  (eq|op)\d+ \[shape=(ellipse|box), label=".*"\];$')
DOT_EDGE = re.compile(r"^  (eq|op)(\d+) -> (eq|op)(\d+);$")


def test_export_dot_grammar():
    dag, _ = diamond_dag()
    text = export_dot(dag)
    lines = text.strip().split("\n")
    assert lines[0] == "digraph andor_dag {"
    assert lines[1] == "  rankdir=BT;"
    assert lines[-1] == "}"
    declared = set()
    edges = []
    for line in lines[2:-1]:
        m = DOT_NODE.match(line)
        if m:
            declared.add(line.split()[0])
            continue
        m = DOT_EDGE.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        edges.append((m.group(1) + m.group(2), m.group(3) + m.group(4)))
    for src, dst in edges:
        assert src in declared and dst in declared
        assert src[:2] != dst[:2]  # strictly bipartite arcs
    # no raw newline or unescaped quote can break a label
    for line in lines:
        assert line.count('"') % 2 == 0


def test_export_dot_escapes_label_text():
    dag = Dag()
    a = ensure_base(dag, "a", 10.0)
    attach_op(dag, KIND_SELECT, "a.x = 'o''brien'", (a,), 1.0, 10.0, factor=0.1)
    text = export_dot(dag)
    assert "\\nsize=" in text
    assert "\\\\n" not in text


@pytest.mark.parametrize("detail, shown", [
    ("employee.x\n> 1", r"employee.x\\n> 1"),
    ("employee.x\r\n> 1", r"employee.x\\r\\n> 1"),
    ("employee.x\x0b> 1", r"employee.x\\x0b> 1"),
    ("employee.x\u2028> 1", r"employee.x\\u2028> 1"),
])
def test_export_dot_keeps_a_line_break_in_a_label_on_its_line(detail, shown):
    dag = Dag()
    base = ensure_base(dag, "employee", 1000.0)
    attach_op(dag, KIND_SELECT, detail, (base,), 100.0, 1000.0, factor=0.1)
    lines = export_dot(dag).split("\n")
    assert len(lines) == 9 and lines[-1] == ""
    for line in lines[2:-2]:
        assert DOT_NODE.match(line) or DOT_EDGE.match(line), line
    assert lines[4] == rf'  op0 [shape=box, label="select {shown}\ncost=1000"];'


def test_doc_round_trip_preserves_structure():
    history = diamond_history()
    dag, back = history.dag, reloaded(history).dag
    assert {n.signature for n in back.eq_nodes.values()} == \
        {n.signature for n in dag.eq_nodes.values()}
    assert arc_signature_set(back) == arc_signature_set(dag)
    assert memo.dag_roots(back) == memo.dag_roots(dag) == [4]
    assert not back.query_roots and not dag.query_roots
    assert plan_count_for(back, 4) == 2
    assert dag_to_doc(back) == dag_to_doc(dag)


def test_signature_text_is_stable_and_readable():
    sig = extend_signature(base_signature("a"), KIND_SELECT, "a.x > 1")
    text = signature_text(sig)
    assert "a" in text and "a.x > 1" in text
    assert signature_text(sig) == text



def test_eq_nodes_carry_their_signature_text_through_every_copy():
    dag, top = diamond_dag()
    attach_op(dag, KIND_SELECT, "a.x > 1", (top,), 0.06, 0.6, factor=0.1)
    doc = dag_to_doc(dag)
    for copy in (dag, dag.clone(), dag.below(top), reloaded(diamond_history()).dag):
        for node in copy.eq_nodes.values():
            assert node.text == signature_text(node.signature)
    # the text is not serialized: a document holds what it held before
    assert all(sorted(nd) == ["est_size", "id", "signature"] for nd in doc["eq_nodes"])
    # a join orders its children by that text, so "{r10}" comes before "{r1}"
    dag = Dag()
    r1, r10 = ensure_base(dag, "r1", 10.0), ensure_base(dag, "r10", 10.0)
    top = attach_op(dag, KIND_JOIN, "r1.x = r10.x", (r1, r10), 1.0, 100.0, factor=0.01)
    assert dag.op_nodes[dag.eq_nodes[top].child_ops[0]].children == (r10, r1)

@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["a.x > 1", "a.y > 2", "a.z > 3"]),
                min_size=1, max_size=3, unique=True))
def test_interning_any_select_order_yields_one_chain_top(conds):
    import itertools

    tops = set()
    for perm in itertools.permutations(conds):
        dag = Dag()
        eq = ensure_base(dag, "a", 100.0)
        sig = dag.eq_nodes[eq].signature
        for text in perm:
            sig = extend_signature(sig, KIND_SELECT, text)
        tops.add(sig)
    assert len(tops) == 1


# -- keys ----------------------------------------------------------------------

def derived(dag, kind, detail, children):
    """The signature `attach_op` must give, or the DagError text it must
    raise, by the signature rule stated here over the inputs' signatures,
    join inputs in canonical order: a join takes disjoint, unprojected
    inputs that have not applied its condition and unions them with it; a
    project retains at least
    one attribute of an unprojected input; any other unary op adds a
    condition not yet applied, a joinfilter to the joins and the rest to
    the unary ops.  Before the rule, every child must exist, and a join
    take two, any other op one."""
    for child in children:
        if child not in dag.eq_nodes:
            return None, f"dangling child eq-node {child}"
    if len(children) != (2 if kind == KIND_JOIN else 1):
        return None, (f"{kind} ops take exactly two children" if kind == KIND_JOIN
                      else f"{kind} ops take exactly one child")
    nodes = sorted((dag.eq_nodes[c] for c in children), key=lambda n: n.text)
    bases, joins, unary, projection = nodes[0].signature
    if kind == KIND_JOIN:
        other = nodes[1].signature
        if projection or other[3] or set(bases) & set(other[0]):
            return None, (f"join {detail!r} of {nodes[0].text!r} and {nodes[1].text!r}: "
                          "inputs must be disjoint and unprojected")
        for node in nodes:
            if detail in node.signature[1]:
                return None, f"join {detail!r} is already applied in {node.text!r}"
        return memo.make_signature(bases + other[0], {*joins, *other[1], detail},
                                   {*unary, *other[2]}), None
    if kind == KIND_PROJECT:
        retained = [a.strip() for a in detail[len("project("):-1].split(",") if a.strip()]
        if projection or not retained:
            return None, f"{detail!r} does not extend {nodes[0].text!r}"
        return memo.make_signature(bases, joins, unary, retained), None
    if detail in (joins if kind == KIND_JOINFILTER else unary):
        return None, f"{kind} {detail!r} is already applied in {nodes[0].text!r}"
    if kind == KIND_JOINFILTER:
        return memo.make_signature(bases, joins + (detail,), unary, projection), None
    return memo.make_signature(bases, joins, unary + (detail,), projection), None


def join_refusal(dag, children) -> str:
    """Which rule refuses a join over `children`, in `derived`'s order."""
    nodes = [dag.eq_nodes[c] for c in children]
    if any(node.signature[3] for node in nodes):
        return "projected"
    return "overlapping" if set(nodes[0].signature[0]) & set(nodes[1].signature[0]) else "reapplied"


@pytest.mark.parametrize("seed", range(12))
def test_attach_op_derives_the_eq_node_of_the_signature_rule(seed):
    """Random attach sequences over five relations: joins of disjoint,
    overlapping and projected inputs, joins and unary ops applied again, projects
    over projections, and one text shared by a join, a joinfilter and
    every unary kind.  Each accepted attach returns the eq-node of the
    signature the rule in `derived` gives, new exactly when that signature
    is; each rejected one raises the DagError text the rule names."""
    check_signature_rule(seed, lambda dag, kind, detail, children, sig: attach_op(
        dag, kind, detail, children, float(len(signature_text(sig))) if sig else 1.0, 1.0,
        factor=0.5))


@pytest.mark.parametrize("seed", range(12))
def test_intern_op_derives_the_eq_node_of_the_signature_rule(seed):
    """The sequences of `test_attach_op_derives_the_eq_node_of_the_signature_rule`
    through `costplan.intern_op`, which sizes each op from its inputs.  One
    text is a select in one place and an order-by in another, so every
    factor keeps the size (a group-by's is above every size), and an
    eq-node's size is the product of its base relations'."""
    check_signature_rule(seed, lambda dag, kind, detail, children, sig: costplan.intern_op(
        dag, kind, detail, children, 1e9 if kind == KIND_GROUPBY else 1.0))


def check_signature_rule(seed, attach):
    """`seed`'s random attach sequence, each op attached by
    `attach(dag, kind, detail, children, derived signature or None)`,
    against the rule in `derived`.  Before about one call in ten, the same
    call with a dangling child, or one child too many or too few, drawn
    from a second generator so that the sequence stays the seed's, must be
    refused."""
    rng, broken = random.Random(seed), random.Random(-1 - seed)
    dag, by_signature = Dag(), {}
    for rel in "abcde":
        eq = ensure_base(dag, rel, 10.0)
        by_signature[dag.eq_nodes[eq].signature] = eq
    texts = ["t1", "t2", "t3", "a.x = b.x"]
    unary = [KIND_JOINFILTER, KIND_SELECT, KIND_GROUPBY, memo.KIND_HAVING, memo.KIND_ORDERBY]
    accepted, rejected = 0, set()
    for _ in range(400):
        eqs = sorted(dag.eq_nodes)
        kind = rng.choice([KIND_JOIN] * 4 + unary + [KIND_PROJECT])
        if kind == KIND_JOIN:
            children = (rng.choice(eqs), rng.choice(eqs))
            detail = rng.choice(texts)
        elif kind == KIND_PROJECT:
            children = (rng.choice(eqs),)
            detail = "project(" + ", ".join(rng.sample(["a.x", "b.y", "c.z"], rng.randint(0, 2))) + ")"
        else:
            children = (rng.choice(eqs),)
            detail = rng.choice(texts)
        if broken.random() < 0.1:
            bad = broken.choice([children[:-1] + (dag._next_eq,), children + children[:1],
                                 children[1:]])
            _, error = derived(dag, kind, detail, bad)
            with pytest.raises(DagError) as exc:
                attach(dag, kind, detail, bad, None)
            assert str(exc.value) == error
            rejected.add("dangling" if "dangling" in error else "count")
        sig, error = derived(dag, kind, detail, children)
        if error is not None:
            before = dag_to_doc(dag)
            with pytest.raises(DagError) as exc:
                attach(dag, kind, detail, children, sig)
            assert str(exc.value) == error
            assert dag_to_doc(dag) == before
            rejected.add(kind if kind != KIND_JOIN else join_refusal(dag, children))
            continue
        expected = by_signature.get(sig, dag._next_eq)   # a new signature, a new eq-node
        eq = attach(dag, kind, detail, children, sig)
        assert eq == expected and dag.eq_nodes[eq].signature == sig
        assert dag.find_eq(sig) == eq
        by_signature[sig] = eq
        accepted += 1
    assert accepted > 50 and rejected == {"overlapping", "projected", "reapplied", KIND_PROJECT,
                                          "dangling", "count", *unary}
    assert len({node.key for node in dag.eq_nodes.values()}) == len(dag.eq_nodes)
    for node in dag.eq_nodes.values():
        assert dag.find_eq(node.signature) == node.id


def test_merge_below_reads_keys_in_each_dag_s_own_registry():
    src = Dag()
    a, b, c = (ensure_base(src, r, 10.0) for r in "abc")
    ab = attach_op(src, KIND_JOIN, "a.x = b.x", (a, b), 10.0, 100.0, factor=0.1)
    top = attach_op(src, KIND_JOIN, "b.y = c.y", (ab, c), 10.0, 100.0, factor=0.1)
    bc = attach_op(src, KIND_JOIN, "b.y = c.y", (b, c), 10.0, 100.0, factor=0.1)
    assert attach_op(src, KIND_JOIN, "a.x = b.x", (a, bc), 10.0, 100.0, factor=0.1) == top
    top = attach_op(src, KIND_SELECT, "s1", (top,), 1.0, 10.0, factor=0.1)
    top = attach_op(src, KIND_SELECT, "s2", (top,), 0.1, 1.0, factor=0.1)
    # the target saw every text first, in the other order
    dst = Dag()
    c2, b2, a2 = (ensure_base(dst, r, 10.0) for r in "cba")
    attach_op(dst, KIND_JOIN, "b.y = c.y", (b2, c2), 10.0, 100.0, factor=0.1)
    attach_op(dst, KIND_JOIN, "a.x = b.x", (a2, b2), 10.0, 100.0, factor=0.1)
    s2 = attach_op(dst, KIND_SELECT, "s2", (c2,), 1.0, 10.0, factor=0.1)
    attach_op(dst, KIND_SELECT, "s1", (s2,), 0.1, 1.0, factor=0.1)
    assert all(src._bits[i] != dst._bits[i] for i in range(3))
    root = merge_below(dst, src, top)
    assert arc_signature_set(dst.below(root)) == arc_signature_set(src.below(top))
    assert dst.eq_nodes[root].signature == src.eq_nodes[top].signature


def test_find_eq_of_an_unknown_text_registers_nothing():
    dag, top = diamond_dag()
    bits = tuple(map(dict, dag._bits))
    known = dag.eq_nodes[top].signature
    bases, joins, _, _ = known
    for unknown in (memo.make_signature(bases + ("z",), joins),
                    memo.make_signature(bases, joins + ("z.x = a.x",)),
                    memo.make_signature(bases, joins, ("a.x > 1",))):
        for where in (dag, dag.below(top)):
            assert where.find_eq(unknown) is None
            assert where.find_eq(known) == top
    assert tuple(map(dict, dag._bits)) == bits


def test_a_loaded_history_attaches_as_the_dag_it_was_saved_from(company_catalog):
    history = joindag.build_complete_history(company_catalog, company_catalog.graph.edges)
    built, loaded = history.dag, reloaded(history).dag
    assert dag_to_doc(loaded) == dag_to_doc(built)
    assert (loaded._bits, loaded._key_index) == (built._bits, built._key_index)
    for dag in (built, loaded):
        for eq_id in sorted(dag.eq_nodes):
            node = dag.eq_nodes[eq_id]
            for op_id in node.child_ops:   # an existing op-node, its children swapped
                op = dag.op_nodes[op_id]
                assert attach_op(dag, op.kind, op.detail, op.children[::-1],
                                 node.est_size, op.op_cost, op.factor) == eq_id
            rel = node.signature[0][0]
            attach_op(dag, KIND_SELECT, f"{rel}.x > 1", (eq_id,), node.est_size / 2,
                      node.est_size, factor=0.5)
        attach_op(dag, KIND_JOIN, "x = y", (dag.find_eq(base_signature("employee")),
                                            dag.find_eq(base_signature("department"))),
                  1.0, 1.0, factor=1.0)
    assert dag_to_doc(loaded) == dag_to_doc(built)
