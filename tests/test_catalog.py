"""Catalog loading, validation, fingerprinting, and selectivity lookup."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import sprinkleqo
from sprinkleqo.catalog import (DEFAULT_SSF, Attribute, Catalog, JoinCondition, Relation,
                                SchemaGraph, components, load_catalog, lookup_ssf, resolve_jsf,
                                view_relation, with_relation)
from sprinkleqo.errors import CatalogError

from conftest import make_catalog

BASIC = {
    "relations": [
        {"name": "a", "cardinality": 100,
         "attributes": [{"name": "x", "distinct": 100, "key": True},
                        {"name": "y", "distinct": 10}]},
        {"name": "b", "cardinality": 1000,
         "attributes": [{"name": "x", "distinct": 100},
                        {"name": "z", "distinct": 7}]},
    ],
    "fk_edges": [{"left": "a.x", "right": "b.x", "jsf": 0.01}],
    "stats": {"default_ssf": 0.2, "overrides": {"b.z > 3": 0.5}},
}


def test_basic_load_shape():
    c = load_catalog(json.dumps(BASIC))
    assert sorted(c.relations) == ["a", "b"]
    assert c.relations["a"].cardinality == 100.0
    assert c.relations["a"].attribute("x").is_key
    assert c.relations["b"].attribute("z").distinct_count == 7
    assert len(c.graph.edges) == 1
    assert c.stats.default_ssf == 0.2


def test_unknown_keys_rejected():
    doc = json.loads(json.dumps(BASIC))
    doc["relations"][0]["typo"] = 1
    with pytest.raises(CatalogError, match="typo"):
        load_catalog(json.dumps(doc))


def test_distinct_exceeding_cardinality_rejected():
    doc = json.loads(json.dumps(BASIC))
    doc["relations"][0]["attributes"][1]["distinct"] = 5000
    with pytest.raises(CatalogError, match="exceeds"):
        load_catalog(json.dumps(doc))


def test_fk_edge_must_reference_known_attributes():
    doc = json.loads(json.dumps(BASIC))
    doc["fk_edges"][0]["left"] = "a.nope"
    with pytest.raises(CatalogError):
        load_catalog(json.dumps(doc))


def test_fk_edges_must_be_a_list():
    doc = json.loads(json.dumps(BASIC))
    doc["fk_edges"] = 5
    with pytest.raises(CatalogError, match="fk_edges must be a list"):
        load_catalog(json.dumps(doc))


def test_fk_edge_endpoint_must_be_a_string():
    doc = json.loads(json.dumps(BASIC))
    doc["fk_edges"][0]["left"] = 7
    with pytest.raises(CatalogError, match="relation.attribute"):
        load_catalog(json.dumps(doc))


@pytest.mark.parametrize("cardinality", [math.nan, math.inf, 10 ** 400],
                         ids=["nan", "inf", "huge-int"])
def test_cardinality_must_be_finite(cardinality):
    doc = json.loads(json.dumps(BASIC))
    doc["relations"][0]["cardinality"] = cardinality
    with pytest.raises(CatalogError, match="finite"):
        load_catalog(json.dumps(doc))


def test_not_json_is_a_catalog_error():
    with pytest.raises(CatalogError):
        load_catalog("{broken")


def test_stats_can_arrive_separately():
    doc = json.loads(json.dumps(BASIC))
    del doc["stats"]
    c = load_catalog(json.dumps(doc), json.dumps({"default_ssf": 0.33}))
    assert c.stats.default_ssf == 0.33


def test_fingerprint_covers_stats():
    base = load_catalog(json.dumps(BASIC))
    doc = json.loads(json.dumps(BASIC))
    doc["stats"]["default_ssf"] = 0.21
    assert load_catalog(json.dumps(doc)).fingerprint != base.fingerprint


def test_fingerprint_ignores_relation_listing_order():
    doc = json.loads(json.dumps(BASIC))
    doc["relations"].reverse()
    assert load_catalog(json.dumps(doc)).fingerprint == \
        load_catalog(json.dumps(BASIC)).fingerprint


def test_right_to_left_edge_loads_sorted_and_keeps_its_fingerprint(
        company_catalog, tpch_catalog):
    doc = json.loads(json.dumps(BASIC))
    doc["fk_edges"][0].update(left="b.x", right="a.x")
    flipped = load_catalog(json.dumps(doc))
    assert flipped.graph.edges == (JoinCondition(("a", "x"), ("b", "x"), 0.01),)
    # the fingerprint hashes each edge's sides as the schema writes them (6 of
    # the 11 fixture edges are written right to left), so saved histories load
    assert flipped.fingerprint != load_catalog(json.dumps(BASIC)).fingerprint
    doc["fk_edges"][0]["jsf"] = 0.5  # not the default 1/100, so a missed edge shows
    flipped = load_catalog(json.dumps(doc))
    assert resolve_jsf(flipped, ("a", "x"), ("b", "x")) == 0.5
    assert resolve_jsf(flipped, ("b", "x"), ("a", "x")) == 0.5
    assert company_catalog.fingerprint == \
        "d71ef00688187d9ad590bdd6221db59eddf8bc2d66a1125e2f328b1196cf9661"
    assert tpch_catalog.fingerprint == \
        "8ceda03a98d5a221927d2b17ac9e3f1014cc4fa0a3b684e0b55706112478b57e"


def test_components_split_and_merge():
    c = make_catalog(
        relations=[{"name": n, "cardinality": 10.0,
                    "attributes": [{"name": "k", "distinct": 5}]}
                   for n in ["p", "q", "r"]],
        fk_edges=[{"left": "p.k", "right": "q.k", "jsf": 0.2}])
    comps = c.graph.components()
    assert frozenset({"p", "q"}) in comps
    assert frozenset({"r"}) in comps


def bfs_components(nodes, edges):
    """Oracle: breadth-first search from each unvisited node in sorted order."""
    out, seen = [], set()
    for start in sorted(nodes):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            here = frontier.pop(0)
            for a, b in edges:
                if a in nodes and b in nodes and here in (a, b):
                    other = b if here == a else a
                    if other not in comp:
                        comp.add(other)
                        frontier.append(other)
        seen |= comp
        out.append(frozenset(comp))
    return out


# node ids 0-9 are in `nodes` only when drawn; 10 and 11 never are
@given(st.sets(st.integers(0, 9)),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=15))
def test_components_match_a_bfs_oracle(node_ids, edge_ids):
    nodes = {f"n{i}" for i in node_ids}
    edges = [(f"n{a}", f"n{b}") for a, b in edge_ids]
    assert components(nodes, edges) == bfs_components(nodes, edges)


def test_resolve_jsf_prefers_fk_edge_then_distinct_rule():
    c = load_catalog(json.dumps(BASIC))
    assert resolve_jsf(c, ("a", "x"), ("b", "x")) == 0.01
    assert resolve_jsf(c, ("b", "x"), ("a", "x")) == 0.01
    # no FK edge between a.y and b.z: fall back to 1/max(distincts)
    assert resolve_jsf(c, ("a", "y"), ("b", "z")) == pytest.approx(1.0 / 10)


def test_resolve_jsf_takes_the_first_of_parallel_edges():
    # two FK edges on one attribute pair: the first in schema order wins,
    # whichever way round either is written or asked
    doc = dict(BASIC, fk_edges=[{"left": "b.x", "right": "a.x", "jsf": 0.02},
                                {"left": "a.x", "right": "b.x", "jsf": 0.05}])
    c = load_catalog(json.dumps(doc))
    assert [e.jsf for e in c.graph.edges] == [0.02, 0.05]
    assert resolve_jsf(c, ("a", "x"), ("b", "x")) == resolve_jsf(c, ("b", "x"), ("a", "x")) == 0.02
    doc["fk_edges"].reverse()
    assert resolve_jsf(load_catalog(json.dumps(doc)), ("b", "x"), ("a", "x")) == 0.05
    # a relation's attributes: the first of a name, and the same error
    rel = c.relation("a")
    with pytest.raises(CatalogError, match=r"^relation 'a' has no attribute 'w'$"):
        rel.attribute("w")
    twice = Relation("t", 1.0, (Attribute("k", 1), Attribute("k", 2)))
    assert twice.attribute("k").distinct_count == 1 and not twice.has_attribute("w")
    # the indexes are no part of equality, hashing or repr
    assert Relation("a", 100.0, rel.attributes) == rel
    assert hash(Relation("a", 100.0, rel.attributes)) == hash(rel)
    assert repr(rel) == ("Relation(name='a', cardinality=100.0, attributes=("
                         "Attribute(name='x', distinct_count=100, is_key=True), "
                         "Attribute(name='y', distinct_count=10, is_key=False)))")
    graph = SchemaGraph(c.graph.nodes, c.graph.edges)
    assert graph == c.graph and hash(graph) == hash(c.graph)
    assert graph != SchemaGraph(c.graph.nodes, c.graph.edges[::-1])
    assert repr(graph) == f"SchemaGraph(nodes={graph.nodes!r}, edges={graph.edges!r})"
    assert Catalog(dict(c.relations), graph, c.stats, c.fingerprint) == c
    assert repr(c) == (f"Catalog(relations={c.relations!r}, graph={graph!r}, "
                       f"stats={c.stats!r}, fingerprint={c.fingerprint!r})")


def test_a_view_replaces_the_relation_of_its_name_and_its_fk_edges():
    c = load_catalog(json.dumps(BASIC))
    view = view_relation(c, "a", {"z": ("b", "z"), "w": ("a", "y")}, 42.0)
    assert view == Relation("a", 42.0, (Attribute("w", 10), Attribute("z", 7)))
    scoped = with_relation(c, view)
    assert scoped.relation("a") is view and scoped.relation("b") is c.relation("b")
    assert scoped.graph.edges == () and scoped.graph.nodes == c.graph.nodes
    assert (scoped.stats, scoped.fingerprint) == (c.stats, c.fingerprint)
    # a.x = b.x was the replaced relation's edge at 0.01; the view has none
    assert resolve_jsf(scoped, ("a", "z"), ("b", "x")) == 1.0 / 100
    # a view of a new name keeps every edge, and the catalog it extends is unchanged
    other = with_relation(c, view_relation(c, "v", {"z": ("b", "z")}, 1.0))
    assert other.graph.edges == c.graph.edges and other.graph.nodes == {"a", "b", "v"}
    assert set(c.relations) == {"a", "b"} and c.relation("a").cardinality == 100.0


def test_lookup_ssf_override_and_default():
    c = load_catalog(json.dumps(BASIC))
    assert lookup_ssf(c, "b", "z", ">", "b.z > 3") == 0.5
    assert lookup_ssf(c, "b", "z", ">", "b.z > 4") == 0.2


def test_default_ssf_constant():
    c = make_catalog(
        relations=[{"name": "t", "cardinality": 10.0,
                    "attributes": [{"name": "k", "distinct": 5}]}],
        fk_edges=[])
    assert c.stats.default_ssf == DEFAULT_SSF


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_distinct_fallback_is_inverse_max(da, db):
    c = make_catalog(
        relations=[
            {"name": "u", "cardinality": float(10 ** 6),
             "attributes": [{"name": "k", "distinct": da}]},
            {"name": "v", "cardinality": float(10 ** 6),
             "attributes": [{"name": "k", "distinct": db}]},
        ],
        fk_edges=[])
    assert resolve_jsf(c, ("u", "k"), ("v", "k")) == 1.0 / max(da, db)


def test_importing_the_catalog_loads_no_optimizer_layer():
    """The package root imports nothing, so a module loads only what it
    imports itself; checked in a fresh interpreter."""
    src = str(pathlib.Path(sprinkleqo.__file__).resolve().parent.parent)
    code = ("import sys, sprinkleqo.catalog; print(' '.join(m for m in ("
            "'sprinkleqo.sprinkle', 'sprinkleqo.naive', 'sprinkleqo.analytics', "
            "'sprinkleqo.cli') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
