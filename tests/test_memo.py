"""Memo table: interning, signatures, op attachment, counts, DOT, round-trip."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import memo
from sprinkleqo.errors import DagError
from sprinkleqo.memo import (Dag, KIND_GROUPBY, KIND_JOIN, KIND_JOINFILTER,
                             KIND_PROJECT, KIND_SELECT, SIZE_RTOL,
                             arc_signature_set, attach_op, base_signature,
                             count_nodes, dag_from_doc, dag_to_doc, ensure_base,
                             export_dot, extend_signature, intern_eq,
                             join_signature, plan_count_for, register_root,
                             signature_text)


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
    top = intern_eq(dag, join_signature(dag.eq_nodes[a].signature,
                                        dag.eq_nodes[b].signature, "a.x = b.x"),
                    2000.0)
    op1 = attach_op(dag, top, KIND_JOIN, "a.x = b.x", (a, b),
                    op_cost=20000.0, factor=0.1)
    op2 = attach_op(dag, top, KIND_JOIN, "a.x = b.x", (b, a),
                    op_cost=20000.0, factor=0.1)
    assert op1 == op2  # children are canonicalized before dedup
    assert len(dag.op_nodes) == 1
    with pytest.raises(DagError, match="two children"):
        attach_op(dag, top, KIND_JOIN, "a.x = b.x", (a,), op_cost=1.0, factor=0.1)
    with pytest.raises(DagError, match="dangling"):
        attach_op(dag, top, KIND_JOIN, "other", (a, 999), op_cost=1.0, factor=0.1)


def test_attach_same_op_under_second_parent_rejected():
    dag, a, b = two_base_dag()
    top = intern_eq(dag, join_signature(dag.eq_nodes[a].signature,
                                        dag.eq_nodes[b].signature, "a.x = b.x"),
                    2000.0)
    attach_op(dag, top, KIND_JOIN, "a.x = b.x", (a, b), op_cost=1.0, factor=0.1)
    other = intern_eq(dag, extend_signature(dag.eq_nodes[top].signature,
                                            KIND_SELECT, "a.x > 1"), 200.0)
    with pytest.raises(DagError, match="different eq-node"):
        attach_op(dag, other, KIND_JOIN, "a.x = b.x", (a, b),
                  op_cost=1.0, factor=0.1)


def test_cycle_rejected():
    dag = Dag()
    a = ensure_base(dag, "a", 10.0)
    sel = intern_eq(dag, extend_signature(dag.eq_nodes[a].signature,
                                          KIND_SELECT, "a.x > 1"), 1.0)
    attach_op(dag, sel, KIND_SELECT, "a.x > 1", (a,), op_cost=10.0, factor=0.1)
    with pytest.raises(DagError, match="cycl|ancestor"):
        attach_op(dag, a, KIND_SELECT, "loop", (sel,), op_cost=1.0, factor=0.1)


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
    sa, sb, sc = (dag.eq_nodes[x].signature for x in (a, b, c))
    ab = intern_eq(dag, join_signature(sa, sb, "a.x = b.x"), 2.0)
    attach_op(dag, ab, KIND_JOIN, "a.x = b.x", (a, b), op_cost=200.0, factor=0.01)
    bc = intern_eq(dag, join_signature(sb, sc, "b.y = c.y"), 6.0)
    attach_op(dag, bc, KIND_JOIN, "b.y = c.y", (b, c), op_cost=600.0, factor=0.01)
    top_sig = join_signature(dag.eq_nodes[ab].signature, sc, "b.y = c.y")
    top = intern_eq(dag, top_sig, 0.6)
    attach_op(dag, top, KIND_JOIN, "b.y = c.y", (ab, c), op_cost=60.0, factor=0.01)
    attach_op(dag, top, KIND_JOIN, "a.x = b.x", (a, bc), op_cost=60.0, factor=0.01)
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
    dag, top = diamond_dag()
    # a new, higher-id class hung below the existing top
    low = intern_eq(dag, extend_signature(dag.eq_nodes[0].signature, KIND_SELECT,
                                          "a.z > 1"), 1.0)
    attach_op(dag, top, KIND_JOINFILTER, "a.z = c.z", (low,), op_cost=1.0, factor=0.5)
    assert low > top
    order = memo.topological_order(dag)
    assert sorted(order) == sorted(dag.eq_nodes)
    position = {eq: i for i, eq in enumerate(order)}
    for eq_id, node in dag.eq_nodes.items():
        for op_id in node.child_ops:
            for child in dag.op_nodes[op_id].children:
                assert position[eq_id] < position[child]
    assert plan_count_for(dag, top) == 3


def test_clone_is_independent():
    dag, top = diamond_dag()
    other = dag.clone()
    extra = intern_eq(other, extend_signature(other.eq_nodes[top].signature,
                                              KIND_SELECT, "a.x > 1"), 0.06)
    attach_op(other, extra, KIND_SELECT, "a.x > 1", (top,), op_cost=0.6, factor=0.1)
    assert len(other.eq_nodes) == len(dag.eq_nodes) + 1
    assert count_nodes(dag) == (6, 4, 2)


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
    sel = intern_eq(dag, extend_signature(dag.eq_nodes[a].signature,
                                          KIND_SELECT, "a.x = 'o''brien'"), 1.0)
    attach_op(dag, sel, KIND_SELECT, "a.x = 'o''brien'", (a,),
              op_cost=10.0, factor=0.1)
    text = export_dot(dag)
    assert "\\nsize=" in text
    assert "\\\\n" not in text


def test_doc_round_trip_preserves_structure():
    dag, top = diamond_dag()
    doc = dag_to_doc(dag)
    back = dag_from_doc(doc)
    assert {n.signature for n in back.eq_nodes.values()} == \
        {n.signature for n in dag.eq_nodes.values()}
    assert arc_signature_set(back) == arc_signature_set(dag)
    assert back.query_roots.keys() == dag.query_roots.keys()
    assert plan_count_for(back, back.query_roots["q1"]) == 2


def test_doc_round_trip_rejects_corruption():
    dag, _ = diamond_dag()
    doc = dag_to_doc(dag)
    doc["format"] = 99
    with pytest.raises(DagError, match="format"):
        dag_from_doc(doc)


def test_doc_with_a_cycle_is_rejected():
    dag, _ = diamond_dag()
    doc = dag_to_doc(dag)
    # re-hang op 0 (a.x = b.x over a and b) under its own child a
    (arc,) = [arc for arc in doc["arcs"]["eq_to_op"] if arc[1] == 0]
    arc[0] = dag.op_nodes[0].children[0]
    with pytest.raises(DagError, match="cycle"):
        dag_from_doc(doc)


def test_doc_with_an_op_under_two_parents_is_rejected():
    dag, top = diamond_dag()
    doc = dag_to_doc(dag)
    doc["arcs"]["eq_to_op"].append([top, 0])
    with pytest.raises(DagError, match="more than one parent"):
        dag_from_doc(doc)


@pytest.mark.parametrize("section, field, value", [
    ("eq_nodes", "est_size", float("inf")),
    ("op_nodes", "op_cost", float("nan")),
    ("op_nodes", "factor", float("-inf")),
])
def test_doc_with_a_non_finite_number_is_rejected(section, field, value):
    dag, _ = diamond_dag()
    doc = dag_to_doc(dag)
    doc[section][-1][field] = value
    with pytest.raises(DagError, match=f"non-finite {field}"):
        dag_from_doc(doc)


def test_signature_text_is_stable_and_readable():
    sig = extend_signature(base_signature("a"), KIND_SELECT, "a.x > 1")
    text = signature_text(sig)
    assert "a" in text and "a.x > 1" in text
    assert signature_text(sig) == text


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
