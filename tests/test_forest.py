"""Forest replay vs. a literal permutation oracle."""

import itertools
import random

import pytest

from sprinkleqo import forest, memo
from sprinkleqo.costplan import intern_op
from sprinkleqo.forest import JoinOp, SelectOp
from sprinkleqo.memo import KIND_JOIN, KIND_JOINFILTER, KIND_SELECT
from sprinkleqo.sqlfront import JoinCondition

from conftest import random_schema


def replay_all_permutations(relations, conditions):
    """Literal n! oracle: replay every permutation over a fresh forest.

    Returns (eq signature -> est size, arc set) mirroring what a memo built
    from the union of every replay would contain.
    """
    produced = {}
    arcs = set()
    base = {rel: (memo.base_signature(rel), float(card))
            for rel, card in relations.items()}
    for sig, size in base.values():
        produced[sig] = size
    for perm in itertools.permutations(conditions):
        state = dict(base)
        for cond in perm:
            if isinstance(cond, SelectOp):
                child_sig, child_size = state[cond.relation]
                sig = memo.extend_signature(child_sig, memo.KIND_SELECT, cond.text)
                size = cond.ssf * child_size
                arcs.add((sig, memo.KIND_SELECT, cond.text, (child_sig,)))
            else:
                (sa, za), (sb, zb) = state[cond.rel_a], state[cond.rel_b]
                if sa == sb:
                    sig = memo.extend_signature(sa, memo.KIND_JOINFILTER, cond.text)
                    size = cond.jsf * za
                    arcs.add((sig, memo.KIND_JOINFILTER, cond.text, (sa,)))
                else:
                    sig = memo.join_signature(sa, sb, cond.text)
                    size = cond.jsf * za * zb
                    kids = tuple(sorted((sa, sb), key=memo.signature_text))
                    arcs.add((sig, memo.KIND_JOIN, cond.text, kids))
            for rel in sig[0]:
                state[rel] = (sig, size)
            produced.setdefault(sig, size)
    return produced, frozenset(arcs)


def assert_matches_oracle(relations, joins, selects=()):
    dag = memo.Dag()
    trees = forest.expand_forest(dag, relations, tuple(joins), tuple(selects))
    expected, expected_arcs = replay_all_permutations(
        relations, list(joins) + list(selects))
    got = {n.signature: n.est_size for n in dag.eq_nodes.values()}
    assert set(got) == set(expected)
    for sig, size in expected.items():
        assert got[sig] == pytest.approx(size, rel=1e-9)
    assert memo.arc_signature_set(dag) == expected_arcs
    return dag, trees


CHAIN_RELS = {"a": 100.0, "b": 200.0, "c": 50.0}
CHAIN_JOINS = (JoinOp("a.x = b.x", "a", "b", 0.01),
               JoinOp("b.y = c.y", "b", "c", 0.02))


def test_chain_matches_permutation_oracle():
    dag, trees = assert_matches_oracle(CHAIN_RELS, CHAIN_JOINS)
    assert len(set(trees.values())) == 1  # connected: one root tree
    assert set(trees) == set(CHAIN_RELS)


def test_chain_with_selects_matches_oracle():
    selects = (SelectOp("a.z > 5", "a", 0.1), SelectOp("c.w = 'x'", "c", 0.3))
    dag, trees = assert_matches_oracle(CHAIN_RELS, CHAIN_JOINS, selects)
    root = dag.eq_nodes[trees["a"]]
    assert root.signature[1] == ("a.x = b.x", "b.y = c.y")
    assert root.signature[2] == ("a.z > 5", "c.w = 'x'")
    assert root.est_size == pytest.approx(
        0.01 * 0.02 * 0.1 * 0.3 * 100 * 200 * 50, rel=1e-9)


def test_triangle_closes_with_joinfilter():
    rels = {"a": 10.0, "b": 20.0, "c": 30.0}
    joins = (JoinOp("a.x = b.x", "a", "b", 0.1),
             JoinOp("b.y = c.y", "b", "c", 0.1),
             JoinOp("a.z = c.z", "a", "c", 0.5))
    dag, trees = assert_matches_oracle(rels, joins)
    filters = [op for op in dag.op_nodes.values()
               if op.kind == memo.KIND_JOINFILTER]
    # each of the three joins can arrive last, onto an already-joined tree
    assert sorted({op.detail for op in filters}) == sorted(j.text for j in joins)
    for op in filters:
        parent = next(n for n in dag.eq_nodes.values()
                      if op.id in n.child_ops)
        child = dag.eq_nodes[op.children[0]]
        assert parent.est_size == pytest.approx(op.factor * child.est_size, rel=1e-9)
    # the closed triangle has one root whichever edge degenerated
    root = dag.eq_nodes[trees["a"]]
    assert root.signature[0] == ("a", "b", "c")
    assert root.signature[1] == tuple(sorted(j.text for j in joins))


def test_joinfilter_size_uses_single_input():
    rels = {"a": 100.0, "b": 100.0}
    joins = (JoinOp("a.x = b.x", "a", "b", 0.01),
             JoinOp("a.y = b.y", "a", "b", 0.5))
    dag, trees = assert_matches_oracle(rels, joins)
    root = dag.eq_nodes[trees["a"]]
    # 0.01*100*100 = 100 rows, then filter 0.5*100 (not 0.5*100*100)
    assert root.est_size == pytest.approx(50.0, rel=1e-9)


def test_no_conditions_returns_bases():
    dag = memo.Dag()
    trees = forest.expand_forest(dag, {"a": 5.0, "b": 7.0}, ())
    assert len(dag.eq_nodes) == 2 and not dag.op_nodes
    assert dag.eq_nodes[trees["a"]].est_size == 5.0
    assert dag.eq_nodes[trees["b"]].est_size == 7.0


def test_selects_only_stack_per_relation():
    selects = (SelectOp("a.x > 1", "a", 0.5), SelectOp("a.y > 2", "a", 0.5),
               SelectOp("b.z > 3", "b", 0.1))
    dag, trees = assert_matches_oracle({"a": 100.0, "b": 10.0}, (), selects)
    assert dag.eq_nodes[trees["a"]].est_size == pytest.approx(25.0)
    assert dag.eq_nodes[trees["b"]].est_size == pytest.approx(1.0)
    assert trees["a"] != trees["b"]


def test_state_count_is_subset_sized():
    # 4 independent selects on one relation: 2^4 applied-sets -> 16 eq-nodes
    selects = tuple(SelectOp(f"a.x > {i}", "a", 0.5) for i in range(4))
    dag = memo.Dag()
    forest.expand_forest(dag, {"a": 100.0}, (), selects)
    assert len(dag.eq_nodes) == 16
    assert len(dag.op_nodes) == 4 * 2 ** 3  # each select under each other-subset


def random_instance(rng):
    n_rels = rng.randint(2, 4)
    rels = {f"r{i}": float(rng.choice([10, 100, 1000])) for i in range(n_rels)}
    names = sorted(rels)
    edges = set()
    for i in range(1, n_rels):  # spanning chain keeps the graph connected
        edges.add((names[i - 1], names[i]))
    while rng.random() < 0.4 and len(edges) < n_rels * (n_rels - 1) // 2:
        a, b = rng.sample(names, 2)
        edges.add(tuple(sorted((a, b))))
    joins = tuple(JoinOp(f"{a}.k = {b}.k", a, b, rng.choice([0.001, 0.01, 0.1]))
                  for a, b in sorted(edges))
    n_sel = rng.randint(0, max(0, 5 - len(joins)))
    selects = tuple(SelectOp(f"{names[i % n_rels]}.v > {i}", names[i % n_rels],
                             rng.choice([0.1, 0.5]))
                    for i in range(n_sel))
    return rels, joins, selects


def test_random_instances_match_oracle():
    rng = random.Random(20260814)
    for _ in range(60):
        rels, joins, selects = random_instance(rng)
        if len(joins) + len(selects) > 6:
            continue
        assert_matches_oracle(rels, joins, selects)


def test_condition_helpers_use_canonical_text(company_catalog):
    from sprinkleqo.sqlfront import parse_query
    from conftest import fixture_sql
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    jops = forest.join_ops_from_conditions(q.joins)
    sops = forest.select_ops_from_conditions(q.selects)
    assert {j.text for j in jops} == {j.canonical() for j in q.joins}
    assert all(s.relation in {"works_on", "project"} for s in sops)
    assert all(0 < s.ssf <= 1 for s in sops)


def reference_expand_forest(dag, relations, joins, selects=()):
    """The expansion before its steps were memoized, kept verbatim: every
    visit of a step re-attaches its operator."""
    trees: dict[str, int] = {}
    for rel in sorted(relations):
        trees[rel] = memo.ensure_base(dag, rel, relations[rel])

    conditions = sorted(joins + selects, key=lambda c: c.text)
    visited: set[frozenset[str]] = set()
    final_trees: dict[str, int] = {}

    def apply_one(state: dict[str, int], cond) -> dict[str, int]:
        if isinstance(cond, SelectOp):
            eq = intern_op(dag, KIND_SELECT, cond.text, (state[cond.relation],), cond.ssf)
        elif state[cond.rel_a] == state[cond.rel_b]:
            eq = intern_op(dag, KIND_JOINFILTER, cond.text, (state[cond.rel_a],), cond.jsf)
        else:
            eq = intern_op(dag, KIND_JOIN, cond.text,
                           (state[cond.rel_a], state[cond.rel_b]), cond.jsf)
        new_state = dict(state)
        for rel in dag.eq_nodes[eq].signature[0]:
            new_state[rel] = eq
        return new_state

    def expand(state: dict[str, int], applied: frozenset[str]) -> None:
        if len(applied) == len(conditions):
            final_trees.update(state)
            return
        for cond in conditions:
            if cond.text in applied:
                continue
            next_state = apply_one(state, cond)
            next_applied = applied | {cond.text}
            if next_applied not in visited:
                visited.add(next_applied)
                expand(next_state, next_applied)

    if not conditions:
        return dict(trees)
    expand(trees, frozenset())
    return final_trees


def cyclic_schema_instances(with_selects: bool, wanted: int = 12):
    """(relations, joins, selects) from `random_schema` seeds whose join
    graph has a cycle; selects on up to two relations when asked."""
    out = []
    for seed in itertools.count():
        rng = random.Random(seed)
        catalog = random_schema(rng)
        edges = catalog.graph.edges
        rels = {r for e in edges for r in (e.left[0], e.right[0])}
        if len(edges) < len(rels):  # a forest: no cycle
            continue
        relations = {r: float(catalog.relation(r).cardinality) for r in sorted(rels)}
        joins = forest.join_ops_from_conditions(
            [JoinCondition.make(e.left, e.right, e.jsf) for e in edges])
        selects = tuple(SelectOp(f"{r}.b > {i}", r, 0.1 * (i + 1))
                        for i, r in enumerate(sorted(rels)[:2])) if with_selects else ()
        if len(joins) + len(selects) > 8:
            continue
        out.append((relations, joins, selects))
        if len(out) == wanted:
            return out


@pytest.mark.parametrize("with_selects", [False, True])
def test_memoized_steps_build_the_reference_dag(with_selects):
    for relations, joins, selects in cyclic_schema_instances(with_selects):
        docs, trees = [], []
        for expand in (forest.expand_forest, reference_expand_forest):
            dag = memo.Dag()
            # a first call leaves a part of the graph behind, as the history's
            # incremental builds do, so the second one re-visits its steps
            expand(dag, relations, joins[:2])
            trees.append(expand(dag, relations, joins, selects))
            docs.append(memo.dag_to_doc(dag))
        assert docs[0] == docs[1]
        assert trees[0] == trees[1]


def shape(kind, n):
    """Relations and joins of an n-join chain, star or cycle over r0, r1, ..."""
    if kind == "chain":
        pairs = [(f"r{i}", f"r{i + 1}") for i in range(n)]
    elif kind == "star":
        pairs = [("r0", f"r{i + 1}") for i in range(n)]
    else:
        pairs = [(f"r{i}", f"r{(i + 1) % n}") for i in range(n)]
    relations = {r: 100.0 + i for i, r in enumerate(sorted({r for p in pairs for r in p}))}
    joins = tuple(JoinOp(f"{a}.k = {b}.k", a, b, 0.01) for a, b in pairs)
    return relations, joins


@pytest.mark.parametrize("kind,new_calls,old_calls", [
    ("chain", 120, 1024), ("cycle", 232, 1024), ("star", 1024, 1024)])
def test_each_op_node_is_attached_once(monkeypatch, kind, new_calls, old_calls):
    calls = []
    attach = memo.attach_op
    monkeypatch.setattr(memo, "attach_op", lambda *a, **k: calls.append(a[1]) or attach(*a, **k))
    relations, joins = shape(kind, 8)
    counts = []
    for expand in (forest.expand_forest, reference_expand_forest):
        calls.clear()
        dag = memo.Dag()
        expand(dag, relations, joins)
        counts.append((len(calls), len(dag.op_nodes)))
    assert counts == [(new_calls, new_calls), (old_calls, new_calls)]
