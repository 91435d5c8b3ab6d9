"""Join-order history: builds, incremental growth, lookup, persistence."""

import json
import random

import pytest

from sprinkleqo import joindag, memo
from sprinkleqo.errors import (CatalogError, LimitExceededError,
                               PersistenceError, ValidationError)
from sprinkleqo.sqlfront import JoinCondition

from conftest import make_catalog, random_schema, root_signatures

COMPANY_BASES = ("department", "dept_locations", "employee", "project", "works_on")


def structure(history):
    dag = history.dag
    return ({n.signature for n in dag.eq_nodes.values()},
            memo.arc_signature_set(dag),
            set(history.known_joins),
            root_signatures(dag))


def component_signatures(history):
    """The full-join signature of each component of the history's joins."""
    return {memo.make_signature(rels, texts) for rels, texts in
            joindag._components(history.known_joins)}


def test_complete_build_company(company_catalog):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges)
    assert h.version == 1
    assert len(h.known_joins) == 5
    assert memo.count_nodes(h.dag) == (29, 63, 84)
    assert not h.dag.query_roots   # a history registers no root
    (root,) = map(h.dag.eq_nodes.__getitem__, memo.dag_roots(h.dag))
    assert root.signature[0] == COMPANY_BASES
    assert root.signature[1] == tuple(sorted(h.known_joins))


def test_known_only_rebuild_bumps_version_only(company_catalog):
    joins = company_catalog.graph.edges
    h1 = joindag.build_complete_history(company_catalog, joins)
    h2 = joindag.build_incremental(h1, joins, company_catalog)
    assert h2.version == 2
    assert structure(h2) == structure(h1)


def test_known_only_build_shares_the_dag(company_catalog):
    joins = company_catalog.graph.edges
    h1 = joindag.build_complete_history(company_catalog, joins[:2])
    before = structure(h1)
    h2 = joindag.build_incremental(h1, joins[:1], company_catalog)
    assert h2.dag is h1.dag and h2.known_joins is h1.known_joins
    assert h2.batches is h1.batches and len(h1.batches) == 1
    assert (h1.version, h2.version) == (1, 2)
    # a later build that adds joins copies the shared dag first
    h3 = joindag.build_incremental(h2, joins, company_catalog)
    assert structure(h1) == before and len(h1.batches) == 1
    assert h3.batches[0] == h1.batches[0] and h3.batches[1] == tuple(
        sorted(joins[2:], key=lambda j: j.canonical()))


def test_incremental_build_merges_components(company_catalog):
    joins = {j.canonical(): j for j in company_catalog.graph.edges}
    ew = joins["employee.ssn = works_on.ssn"]
    pd = joins["department.dnumber = project.dnum"]
    wp = joins["project.pnumber = works_on.pno"]
    h = joindag.build_complete_history(company_catalog, (ew, pd))
    assert {sig[0] for sig in root_signatures(h.dag)} == {("employee", "works_on"),
                                                           ("department", "project")}
    assert root_signatures(h.dag) == component_signatures(h)
    merged = joindag.build_incremental(h, (wp,), company_catalog)
    assert {sig[0] for sig in root_signatures(merged.dag)} == {
        ("department", "employee", "project", "works_on")}
    assert root_signatures(merged.dag) == component_signatures(merged)
    assert not merged.dag.query_roots and merged.version == 2


def test_input_history_is_not_mutated(company_catalog):
    joins = company_catalog.graph.edges
    h = joindag.build_complete_history(company_catalog, joins[:2])
    before = structure(h)
    joindag.build_incremental(h, joins, company_catalog)
    assert structure(h) == before and h.version == 1


def test_unknown_relation_rejected(company_catalog):
    bad = JoinCondition.make(("nosuch", "x"), ("employee", "ssn"), 0.1)
    h = joindag.empty_history(company_catalog)
    with pytest.raises(CatalogError):
        joindag.build_incremental(h, (bad,), company_catalog)


def test_catalog_fingerprint_guard(company_catalog, tpch_catalog):
    h = joindag.empty_history(company_catalog)
    with pytest.raises(ValidationError):
        joindag.build_incremental(h, (), tpch_catalog)
    with pytest.raises(ValidationError):
        joindag.verify_catalog(h, tpch_catalog)
    joindag.verify_catalog(h, company_catalog)


def test_per_component_limit(tpch_catalog):
    joins = tpch_catalog.graph.edges  # one 6-edge component
    with pytest.raises(LimitExceededError) as exc:
        joindag.build_complete_history(tpch_catalog, joins, limit=5)
    assert exc.value.n == 6 and exc.value.limit == 5
    h = joindag.build_complete_history(tpch_catalog, joins, limit=6)
    assert memo.count_nodes(h.dag) == (43, 116, 326)


def test_incremental_equals_complete_random_batches():
    rng = random.Random(414243)
    for _ in range(30):
        catalog = random_schema(rng)
        joins = list(catalog.graph.edges)
        if not joins:
            continue
        complete = joindag.build_complete_history(catalog, tuple(joins))
        rng.shuffle(joins)
        h = joindag.empty_history(catalog)
        cut = sorted(rng.sample(range(len(joins) + 1), min(2, len(joins))))
        batches = [joins[:cut[0]], joins[cut[0]:cut[-1]], joins[cut[-1]:]]
        for batch in batches:
            h = joindag.build_incremental(h, tuple(batch), catalog)
            assert root_signatures(h.dag) == component_signatures(h)
        assert structure(h)[:2] == structure(complete)[:2]
        assert structure(h)[2:] == structure(complete)[2:]


def test_the_price_table_keeps_each_roots_walk_and_order():
    """The price table's view of a root is the root's walk, handed with the
    table and the walk's inputs-first order; a later read of the root shares
    the kept maps and order, and a dag the table did not give carries
    neither."""
    rng, roots_read = random.Random(515253), 0
    for _ in range(40):
        catalog = random_schema(rng, max_edges=8)
        joins = list(catalog.graph.edges)
        rng.shuffle(joins)
        h = joindag.empty_history(catalog)
        for k in range(0, len(joins), 2):
            h = joindag.build_incremental(h, tuple(joins[k:k + 2]), catalog)
            for root in memo.dag_roots(h.dag):
                view, walked = h.prices.below(root), h.dag.below(root)
                assert view.eq_nodes == walked.eq_nodes and view.op_nodes == walked.op_nodes
                assert view.prices is h.prices and not view.query_roots
                assert view.order == memo.topological_order(walked)[::-1]
                assert walked.prices is None and walked.order is None
                again = h.prices.below(root)
                assert again is not view and again.eq_nodes is view.eq_nodes
                assert again.order is view.order is h.prices.views[root][2]
                roots_read += 1
    assert roots_read > 60


def test_query_join_root_full_and_subset(company_catalog):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges)
    text = "employee.ssn = works_on.ssn"
    bases = {"employee": 1000.0, "works_on": 5000.0}
    eq = joindag.query_join_root(h, bases, (text,))
    node = h.dag.eq_nodes[eq]
    assert node.signature == memo.make_signature(bases, (text,), (), ())
    assert node.est_size == pytest.approx(0.001 * 1000 * 5000)
    full = joindag.query_join_root(
        h, {"department": 20.0, "dept_locations": 40.0, "employee": 1000.0,
            "project": 50.0, "works_on": 5000.0},
        tuple(sorted(h.known_joins)))
    assert memo.dag_roots(h.dag) == [full]


def test_query_join_root_without_joins_writes_into_no_history(company_catalog):
    # a known-only build shares its input's dag, so a write would reach both
    join = company_catalog.graph.edges[0]   # employee.ssn = works_on.ssn
    h1 = joindag.build_complete_history(company_catalog, (join,))
    h2 = joindag.build_incremental(h1, (join,), company_catalog)
    counts = len(h1.dag.eq_nodes), len(h2.dag.eq_nodes)
    with pytest.raises(ValidationError, match="^base relation not in history: project$"):
        joindag.query_join_root(h2, {"project": 50.0}, ())
    eq = joindag.query_join_root(h2, {"employee": 1000.0}, ())
    assert h2.dag.eq_nodes[eq].signature == memo.base_signature("employee")
    assert (len(h1.dag.eq_nodes), len(h2.dag.eq_nodes)) == counts


def test_query_join_root_missing_condition(company_catalog):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges[:1])
    with pytest.raises(ValidationError, match="not in history"):
        joindag.query_join_root(h, {"employee": 1.0, "department": 1.0},
                                ("department.dnumber = employee.dno",))


def test_query_join_root_unjoined_components(company_catalog):
    joins = {j.canonical(): j for j in company_catalog.graph.edges}
    ew = joins["employee.ssn = works_on.ssn"]
    pd = joins["department.dnumber = project.dnum"]
    h = joindag.build_complete_history(company_catalog, (ew, pd))
    with pytest.raises(ValidationError, match="never joined"):
        joindag.query_join_root(
            h, {"employee": 1.0, "works_on": 1.0, "department": 1.0,
                "project": 1.0},
            (ew.canonical(), pd.canonical()))


def test_save_load_round_trip(company_catalog, tmp_path):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges)
    path = str(tmp_path / "history.json")
    joindag.save_history(h, path)
    loaded = joindag.load_history(path)
    assert loaded.version == h.version
    assert loaded.catalog_fingerprint == h.catalog_fingerprint
    assert structure(loaded) == structure(h)
    joindag.verify_catalog(loaded, company_catalog)
    # saving what was loaded reproduces the file byte for byte
    path2 = str(tmp_path / "again.json")
    joindag.save_history(loaded, path2)
    assert (tmp_path / "again.json").read_text() == \
        (tmp_path / "history.json").read_text()
    assert not list(tmp_path.glob(".tmp-*"))


def test_a_history_grown_over_merging_batches_round_trips(company_catalog, tmp_path):
    # batches 2 and 3 add relations after earlier op-nodes, batch 3 merges
    # the two components, and batch 4 closes a cycle
    joins = {j.canonical(): j for j in company_catalog.graph.edges}
    h = joindag.empty_history(company_catalog)
    for batch in (["employee.ssn = works_on.ssn"],
                  ["department.dnumber = project.dnum"],
                  ["project.pnumber = works_on.pno", "department.dnumber = dept_locations.dnumber"],
                  ["department.dnumber = employee.dno"]):
        h = joindag.build_incremental(h, tuple(joins[t] for t in batch), company_catalog)
    first_join = min(eq for eq, node in h.dag.eq_nodes.items() if not node.is_base)
    assert max(eq for eq, node in h.dag.eq_nodes.items() if node.is_base) > first_join
    assert [h.dag.eq_nodes[root].signature[0] for root in memo.dag_roots(h.dag)] == \
        [COMPANY_BASES]
    assert not h.dag.query_roots and h.version == 4
    path = tmp_path / "history.json"
    joindag.save_history(h, str(path))
    loaded = joindag.load_history(str(path))
    assert structure(loaded) == structure(h)
    assert memo.dag_to_doc(loaded.dag) == memo.dag_to_doc(h.dag)
    assert loaded.batches == h.batches and len(h.batches) == 4
    joindag.save_history(loaded, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def corrupt(path, mutate):
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))


def test_load_rejects_corruption(company_catalog, tmp_path):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges[:2])
    path = tmp_path / "h.json"
    joindag.save_history(h, str(path))

    original = path.read_text()

    corrupt(path, lambda d: d.update(version=99))
    with pytest.raises(PersistenceError, match="checksum"):
        joindag.load_history(str(path))

    path.write_text(original)
    corrupt(path, lambda d: d.update(format=99))
    with pytest.raises(PersistenceError, match="format"):
        joindag.load_history(str(path))

    path.write_text(original)
    corrupt(path, lambda d: d.update(kind="something-else"))
    with pytest.raises(PersistenceError, match="not a join-history"):
        joindag.load_history(str(path))

    path.write_text("{ not json")
    with pytest.raises(PersistenceError, match="JSON"):
        joindag.load_history(str(path))

    with pytest.raises(PersistenceError, match="cannot read"):
        joindag.load_history(str(tmp_path / "missing.json"))


def test_loaded_history_rejects_other_catalog(company_catalog, tpch_catalog,
                                              tmp_path):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges[:1])
    path = str(tmp_path / "h.json")
    joindag.save_history(h, path)
    loaded = joindag.load_history(path)
    with pytest.raises(ValidationError, match="fingerprint"):
        joindag.verify_catalog(loaded, tpch_catalog)


def test_clone_is_independent(company_catalog):
    h = joindag.build_complete_history(company_catalog,
                                       company_catalog.graph.edges[:2])
    c = h.clone()
    c.version = 77
    c.known_joins.clear()
    c.batches.clear()
    memo.ensure_base(c.dag, "zzz", 1.0)
    assert h.version == 1 and len(h.known_joins) == 2 and len(h.batches) == 1
    assert all(n.signature != memo.base_signature("zzz")
               for n in h.dag.eq_nodes.values())
