"""Forest replay vs. a literal permutation oracle."""

import itertools
import random
from operator import itemgetter

import pytest

from sprinkleqo import forest, joindag, memo, naive
from sprinkleqo.catalog import JoinCondition
from sprinkleqo.costplan import intern_op
from sprinkleqo.memo import Dag, KIND_JOIN, KIND_JOINFILTER, KIND_SELECT
from sprinkleqo.sqlfront import SelectCondition, parse_query

from conftest import FIXTURES, connected_query_sql, random_schema, visited_expand_forest


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
            text = cond.canonical()
            if isinstance(cond, SelectCondition):
                child_sig, child_size = state[cond.relation]
                sig = memo.extend_signature(child_sig, memo.KIND_SELECT, text)
                size = cond.ssf * child_size
                arcs.add((sig, memo.KIND_SELECT, text, (child_sig,)))
            else:
                (sa, za), (sb, zb) = state[cond.left[0]], state[cond.right[0]]
                if sa == sb:
                    sig = memo.extend_signature(sa, memo.KIND_JOINFILTER, text)
                    size = cond.jsf * za
                    arcs.add((sig, memo.KIND_JOINFILTER, text, (sa,)))
                else:
                    sig = memo.join_signature(sa, sb, text)
                    size = cond.jsf * za * zb
                    kids = tuple(sorted((sa, sb), key=memo.signature_text))
                    arcs.add((sig, memo.KIND_JOIN, text, kids))
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
CHAIN_JOINS = (JoinCondition.make(("a", "x"), ("b", "x"), 0.01),
               JoinCondition.make(("b", "y"), ("c", "y"), 0.02))


def test_chain_matches_permutation_oracle():
    dag, trees = assert_matches_oracle(CHAIN_RELS, CHAIN_JOINS)
    assert len(set(trees.values())) == 1  # connected: one root tree
    assert set(trees) == set(CHAIN_RELS)


def test_chain_with_selects_matches_oracle():
    selects = (SelectCondition("a", "z", ">", 5, 0.1),
               SelectCondition("c", "w", "=", "x", 0.3))
    dag, trees = assert_matches_oracle(CHAIN_RELS, CHAIN_JOINS, selects)
    root = dag.eq_nodes[trees["a"]]
    assert root.signature[1] == ("a.x = b.x", "b.y = c.y")
    assert root.signature[2] == ("a.z > 5", "c.w = 'x'")
    assert root.est_size == pytest.approx(
        0.01 * 0.02 * 0.1 * 0.3 * 100 * 200 * 50, rel=1e-9)


def test_triangle_closes_with_joinfilter():
    rels = {"a": 10.0, "b": 20.0, "c": 30.0}
    joins = (JoinCondition.make(("a", "x"), ("b", "x"), 0.1),
             JoinCondition.make(("b", "y"), ("c", "y"), 0.1),
             JoinCondition.make(("a", "z"), ("c", "z"), 0.5))
    dag, trees = assert_matches_oracle(rels, joins)
    filters = [op for op in dag.op_nodes.values()
               if op.kind == memo.KIND_JOINFILTER]
    # each of the three joins can arrive last, onto an already-joined tree
    assert sorted({op.detail for op in filters}) == sorted(j.canonical() for j in joins)
    for op in filters:
        parent = next(n for n in dag.eq_nodes.values()
                      if op.id in n.child_ops)
        child = dag.eq_nodes[op.children[0]]
        assert parent.est_size == pytest.approx(op.factor * child.est_size, rel=1e-9)
    # the closed triangle has one root whichever edge degenerated
    root = dag.eq_nodes[trees["a"]]
    assert root.signature[0] == ("a", "b", "c")
    assert root.signature[1] == tuple(sorted(j.canonical() for j in joins))


def test_joinfilter_size_uses_single_input():
    rels = {"a": 100.0, "b": 100.0}
    joins = (JoinCondition.make(("a", "x"), ("b", "x"), 0.01),
             JoinCondition.make(("a", "y"), ("b", "y"), 0.5))
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
    selects = (SelectCondition("a", "x", ">", 1, 0.5),
               SelectCondition("a", "y", ">", 2, 0.5),
               SelectCondition("b", "z", ">", 3, 0.1))
    dag, trees = assert_matches_oracle({"a": 100.0, "b": 10.0}, (), selects)
    assert dag.eq_nodes[trees["a"]].est_size == pytest.approx(25.0)
    assert dag.eq_nodes[trees["b"]].est_size == pytest.approx(1.0)
    assert trees["a"] != trees["b"]


def test_state_count_is_subset_sized():
    # 4 independent selects on one relation: 2^4 applied-sets -> 16 eq-nodes
    selects = tuple(SelectCondition("a", "x", ">", i, 0.5) for i in range(4))
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
    joins = tuple(JoinCondition.make((a, "k"), (b, "k"), rng.choice([0.001, 0.01, 0.1]))
                  for a, b in sorted(edges))
    n_sel = rng.randint(0, max(0, 5 - len(joins)))
    selects = tuple(SelectCondition(names[i % n_rels], "v", ">", i, rng.choice([0.1, 0.5]))
                    for i in range(n_sel))
    return rels, joins, selects


def test_random_instances_match_oracle():
    rng = random.Random(20260814)
    for _ in range(60):
        rels, joins, selects = random_instance(rng)
        if len(joins) + len(selects) > 6:
            continue
        assert_matches_oracle(rels, joins, selects)


def unmemoized_expand_forest(dag, relations, joins, selects=()):
    """The expansion before its steps were memoized: every visit of a step
    re-attaches its operator."""
    trees: dict[str, int] = {}
    for rel in sorted(relations):
        trees[rel] = memo.ensure_base(dag, rel, relations[rel])

    conditions = sorted(joins + selects, key=lambda c: c.canonical())
    visited: set[frozenset[str]] = set()
    final_trees: dict[str, int] = {}

    def apply_one(state: dict[str, int], cond) -> dict[str, int]:
        text = cond.canonical()
        if isinstance(cond, SelectCondition):
            eq = intern_op(dag, KIND_SELECT, text, (state[cond.relation],), cond.ssf)
        elif state[cond.left[0]] == state[cond.right[0]]:
            eq = intern_op(dag, KIND_JOINFILTER, text, (state[cond.left[0]],), cond.jsf)
        else:
            eq = intern_op(dag, KIND_JOIN, text,
                           (state[cond.left[0]], state[cond.right[0]]), cond.jsf)
        new_state = dict(state)
        for rel in dag.eq_nodes[eq].signature[0]:
            new_state[rel] = eq
        return new_state

    def expand(state: dict[str, int], applied: frozenset[str]) -> None:
        if len(applied) == len(conditions):
            final_trees.update(state)
            return
        for cond in conditions:
            if cond.canonical() in applied:
                continue
            next_state = apply_one(state, cond)
            next_applied = applied | {cond.canonical()}
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
        joins = catalog.graph.edges
        rels = {r for j in joins for r in j.relations()}
        if len(joins) < len(rels):  # a forest: no cycle
            continue
        relations = {r: float(catalog.relation(r).cardinality) for r in sorted(rels)}
        selects = tuple(SelectCondition(r, "b", ">", i, 0.1 * (i + 1))
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
        for expand in (forest.expand_forest, unmemoized_expand_forest):
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
    joins = tuple(JoinCondition.make((a, "k"), (b, "k"), 0.01) for a, b in pairs)
    return relations, joins


@pytest.mark.parametrize("kind,new_calls,old_calls", [
    ("chain", 120, 1024), ("cycle", 232, 1024), ("star", 1024, 1024)])
def test_each_op_node_is_attached_once(monkeypatch, kind, new_calls, old_calls):
    calls = []
    attach = memo.attach_over
    monkeypatch.setattr(memo, "attach_over", lambda *a, **k: calls.append(a[1]) or attach(*a, **k))
    relations, joins = shape(kind, 8)
    counts = []
    for expand in (forest.expand_forest, unmemoized_expand_forest):
        calls.clear()
        dag = memo.Dag()
        expand(dag, relations, joins)
        counts.append((len(calls), len(dag.op_nodes)))
    assert counts == [(new_calls, new_calls), (old_calls, new_calls)]


# -- the bit-mask walk against the frozenset walk it replaced -----------------

def reference_expand_forest(dag: Dag, relations: dict[str, float],
                  joins: tuple[JoinCondition, ...],
                  selects: tuple[SelectCondition, ...] = ()) -> dict[str, int]:
    """`forest.expand_forest` as it was before it walked bit masks: every
    applied-set a frozenset of condition texts and every forest state a
    dict.  The oracle of the ids, nodes and trees the walk gives."""
    trees: dict[str, int] = {}
    for rel in sorted(relations):
        trees[rel] = memo.ensure_base(dag, rel, relations[rel])

    # each condition read once: (text, the relations whose trees it consumes,
    # factor); one relation makes it a select
    conditions = sorted([(j.canonical(), j.relations(), j.jsf) for j in joins]
                        + [(s.canonical(), (s.relation,), s.ssf) for s in selects],
                        key=itemgetter(0))
    visited: set[frozenset[str]] = set()
    final_trees: dict[str, int] = {}
    steps: dict[tuple, int] = {}

    def apply_one(state: dict[str, int], text: str, rels: tuple[str, ...],
                  factor: float) -> int:
        """The eq-node the condition produces over the trees of `state`,
        interned on the first visit of its (text, input eq-nodes) key only."""
        if len(rels) == 1:
            key = (text, state[rels[0]])
        else:
            key = (text, state[rels[0]], state[rels[1]])
        eq = steps.get(key)
        if eq is None:
            if len(rels) == 1:
                eq = intern_op(dag, KIND_SELECT, text, key[1:], factor)
            elif key[1] == key[2]:
                eq = intern_op(dag, KIND_JOINFILTER, text, key[1:2], factor)
            else:
                eq = intern_op(dag, KIND_JOIN, text, key[1:], factor)
            steps[key] = eq
        return eq

    def expand(state: dict[str, int], applied: frozenset[str]) -> None:
        if len(applied) == len(conditions):
            final_trees.update(state)
            return
        for text, rels, factor in conditions:
            if text in applied:
                continue
            eq = apply_one(state, text, rels, factor)
            next_applied = applied | {text}
            if next_applied not in visited:
                visited.add(next_applied)
                next_state = dict(state)
                for rel in dag.eq_nodes[eq].signature[0]:
                    next_state[rel] = eq
                expand(next_state, next_applied)

    if not conditions:
        return dict(trees)
    expand(trees, frozenset())
    return final_trees


def same_as_the_reference(monkeypatch, build, reference=None):
    """`build()` (which expands forests, and returns a dag and anything else
    to compare) run with `forest.expand_forest` and with `reference`
    (`reference_expand_forest` by default): the same dag document, next
    ids, returned trees and result."""
    runs = []
    for expand in (forest.expand_forest, reference or reference_expand_forest):
        trees = []
        monkeypatch.setattr(forest, "expand_forest",
                            lambda *a, expand=expand: trees.append(expand(*a)) or trees[-1])
        dag, *rest = build()
        runs.append((memo.dag_to_doc(dag), dag._next_eq, dag._next_op, trees, rest))
    assert runs[0] == runs[1]
    assert runs[0][3]   # some forest was expanded


def test_bit_mask_walk_builds_the_fixture_histories_of_the_reference(
        monkeypatch, company_catalog, tpch_catalog):
    for catalog in (company_catalog, tpch_catalog):
        def build():
            history = joindag.build_complete_history(catalog, catalog.graph.edges)
            return history.dag, memo.dag_roots(history.dag)
        same_as_the_reference(monkeypatch, build)


def test_bit_mask_walk_builds_the_naive_dags_of_the_reference(
        monkeypatch, company_catalog, tpch_catalog):
    built = 0
    for group, catalog in (("company", company_catalog), ("tpch", tpch_catalog)):
        for path in sorted((FIXTURES / group).glob("*.sql")):
            query = parse_query(path.read_text(), catalog)
            if query.subquery is not None:
                continue
            same_as_the_reference(monkeypatch, lambda: (naive.build_naive_dag(
                query, catalog, limit=query.n_operations()),))
            built += 1
    assert built >= 6


def test_bit_mask_walk_builds_the_random_schema_graphs_of_the_reference(monkeypatch):
    rng = random.Random(1313)
    for _ in range(24):
        catalog = random_schema(rng, max_edges=8)
        joins = catalog.graph.edges
        rels = sorted({r for j in joins for r in j.relations()})
        relations = {r: float(catalog.relation(r).cardinality) for r in rels}
        selects = tuple(SelectCondition(r, "b", ">", i, 0.1 * (i + 1))
                        for i, r in enumerate(rng.sample(rels, rng.randint(0, 2))))

        def build():
            dag = Dag()
            # a first call leaves part of the graph behind, as incremental
            # history builds do
            forest.expand_forest(dag, relations, joins[:2])
            forest.expand_forest(dag, relations, joins, selects)
            return (dag,)
        same_as_the_reference(monkeypatch, build)


# -- the walk without a visited set against the one that kept it ---------------

@pytest.mark.parametrize("kind", ["chain", "star", "cycle"])
def test_the_walk_gives_the_ids_of_the_walk_that_kept_its_visits(monkeypatch, kind):
    """Each applied-set is first visited from the set without its highest
    condition, so recursing only there gives every id the walk with a
    visited set gave: 2 to 8 joins (a cycle needs 3)."""
    for n in range(3 if kind == "cycle" else 2, 9):
        relations, joins = shape(kind, n)

        def build():
            dag = Dag()
            forest.expand_forest(dag, relations, joins)
            return (dag,)
        same_as_the_reference(monkeypatch, build, visited_expand_forest)


def test_the_naive_walk_gives_the_ids_of_the_walk_that_kept_its_visits(monkeypatch):
    """Naive mode's walk, over seeded `random_schema` queries with up to
    three selects, gives the ids of the walk with a visited set."""
    rng, built = random.Random(3939), 0
    for _ in range(40):
        catalog = random_schema(rng, max_edges=6)
        query = parse_query(connected_query_sql(catalog, rng, max_selects=3), catalog)
        if not query.joins:
            continue
        same_as_the_reference(monkeypatch, lambda: (naive.build_naive_dag(
            query, catalog, limit=query.n_operations()),), visited_expand_forest)
        built += bool(query.selects)
    assert built >= 10
