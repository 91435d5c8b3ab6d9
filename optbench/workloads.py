"""Seeded inputs for the optimizer benchmark.

Everything here is a pure function of the seed and the fixture files: the
synthetic chain/star/cycle schemas, the FK-connected SQL texts over the
fixture schemas, and the three operation streams.  The optimizer only ever
sees the resulting schema JSON and SQL text.

What the seed may change.  Optimization time is heavy-tailed and depends on
the structure of a query far more than on its constants: on the fixture
schemas one 5-join, 5-select query costs 1-13 s depending on which relations
carry its selects, while a 2-join query costs milliseconds.  The benchmark
has to give the same figures, within its bounds, for every seed on a small
shared machine, so the structure that decides the cost is fixed and the seed
varies everything else:

  fixed   one query per (schema, j, s) cell of the stated ranges, nothing
          capped; the join graph per j; selects dealt round-robin over the
          sorted relations; range predicates (the schema's default
          selectivity); whether a cell's query groups, orders, both or
          neither; the chain/star/cycle graphs and their relations'
          cardinalities and foreign-key distinct counts
  seeded  filter attributes, operators and literals; HAVING or not on a
          grouped query; grouping, aggregate and output columns; the
          synthetic filter columns' distinct counts

Synthetic cardinalities are not seeded because the star queries' search is
sensitive to them: with a +-25% jitter their times moved by up to 60% from
one seed to another, and with +-5% the 8-join star still kept 102 to 192
plans depending on the seed.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_SCHEMAS = ("company", "tpch")

WHY = {
    "select_heavy": "warm-history joindag mode, the paper's reuse case: select "
                    "placement dominates, joindag only clones the history",
    "join_heavy": "cold joindag mode on 5-8 join chains, stars and cycles with "
                  "0-1 selects: join-order work dominates",
    "naive_baseline": "exhaustive mode on the same queries: shares forest, memo and "
                      "costplan but skips sprinkle and joindag",
}

SELECT_HEAVY_J = range(1, 6)
SELECT_HEAVY_S = range(2, 6)
JOIN_HEAVY_SHAPES = ("chain", "star", "cycle")
JOIN_HEAVY_J = range(5, 9)
JOIN_HEAVY_S = range(0, 2)
# Repeats per pass of the items outside the few large ones: select_heavy's
# fixtures and cells with j + s <= 7, join_heavy's chains, stars with j <= 6
# and cycles with j <= 7.  naive_baseline repeats nothing; it makes 12 passes.
LIGHT_REPEATS = 3

# Range predicates take the schema's default selectivity, so the seed picks
# their text but cannot swing the size estimates that decide pruning.
_OPERATORS = ("<", ">", "<=", ">=", "<>")
# Cardinality of relation r<i> in a synthetic schema.
_BASE_CARDS = (10000, 1000, 100, 3000, 300, 30000, 1000, 100, 10000)
_DECORATIONS = ("plain", "group", "order", "group+order")


@dataclass(frozen=True)
class Item:
    """One operation: optimize `sql` against schema `schema` in `mode`."""

    qid: str
    schema: str
    sql: str
    shape: str
    j: int
    s: int
    mode: str  # 'warm', 'cold' (joindag) or 'naive'
    nested: bool = False
    # Samples per pass.  A pass's time goes mostly to a few large queries;
    # the others, where the median lies, are optimized three times per pass
    # so their median sees nine samples a run instead of three.  Which
    # items repeat is fixed by their structure, never by a measured time.
    repeats: int = 1


@dataclass
class Inputs:
    schemas: dict[str, str]  # schema name -> schema JSON text
    streams: dict[str, list[Item]]


# -- synthetic schemas ---------------------------------------------------------

def synthetic_schema(shape: str, j: int, rng: random.Random) -> tuple[str, list[tuple[int, int]]]:
    """Schema JSON for a chain, star or cycle join graph with j edges.

    Chain and star have j+1 relations, a cycle has j.  Every relation has a
    key `k`, a foreign-key column `f`, and two filter columns `a`, `b`.
    Edges join `r<x>.f = r<y>.k`, with the default 1/max(distinct) jsf.
    """
    n = j if shape == "cycle" else j + 1
    relations = []
    for i in range(n):
        card = _BASE_CARDS[i]
        relations.append({
            "name": f"r{i}",
            "cardinality": card,
            "attributes": [
                {"name": "k", "distinct": card, "key": True},
                {"name": "f", "distinct": card // 5},
                {"name": "a", "distinct": rng.randint(2, min(card, 500))},
                {"name": "b", "distinct": rng.randint(2, min(card, 50))},
            ],
        })
    if shape == "chain":
        pairs = [(i, i + 1) for i in range(j)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, j + 1)]
    elif shape == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    doc = {
        "relations": relations,
        "fk_edges": [{"left": f"r{a}.f", "right": f"r{b}.k"} for a, b in pairs],
        "stats": {"default_ssf": 0.1, "overrides": {}},
    }
    return json.dumps(doc, indent=1, sort_keys=True), pairs


def _select_text(rng: random.Random, relation: str, attrs: list[dict]) -> str:
    attr = rng.choice(attrs)
    op = rng.choice(_OPERATORS)
    literal = rng.randint(1, max(2, attr["distinct"]))
    return f"{relation}.{attr['name']} {op} {literal}"


def _deal_selects(rng: random.Random, relations: list[str], attrs_of, s: int) -> list[str]:
    """s distinct select predicates dealt round-robin over the sorted relations."""
    order = sorted(relations)
    out: list[str] = []
    while len(out) < s:
        rel = order[len(out) % len(order)]
        text = _select_text(rng, rel, attrs_of(rel))
        if text not in out:
            out.append(text)
    return out


def _sql(select_list: str, relations, conditions, tail: str = "") -> str:
    sql = f"select {select_list} from {', '.join(sorted(relations))}"
    if conditions:
        sql += " where " + " and ".join(conditions)
    return sql + tail


# -- FK-connected queries over the fixture schemas --------------------------------

def _connected_edges(edges: list[dict], j: int) -> list[dict]:
    """The connected subgraph of j FK edges grown from the schema's last edge.

    Growth walks the edge list backwards and takes the first edge adjacent
    to what is covered, so every seed gets the same join graph per j; on the
    fixture schemas the 5-join graphs close the tpch 5-cycle and the company
    4-cycle, exercising joinfilter.
    """
    rel = lambda ref: ref.split(".")[0]  # noqa: E731
    order = list(reversed(edges))
    chosen = [order[0]]
    covered = {rel(order[0]["left"]), rel(order[0]["right"])}
    while len(chosen) < j:
        edge = next(e for e in order if e not in chosen
                    and (rel(e["left"]) in covered or rel(e["right"]) in covered))
        chosen.append(edge)
        covered |= {rel(edge["left"]), rel(edge["right"])}
    return chosen


def _decorate(rng: random.Random, decoration: str, relations, attrs_of) -> tuple[str, str]:
    """(select list, trailing group-by/having/order-by text) for one query."""
    rels = sorted(relations)
    key_rel = rng.choice(rels)
    key = f"{key_rel}.{rng.choice(attrs_of(key_rel))['name']}"
    agg_rel = rng.choice(rels)
    agg = f"{agg_rel}.{rng.choice(attrs_of(agg_rel))['name']}"
    if decoration == "plain":
        out_rel = rng.choice(rels)
        return f"{key}, {out_rel}.{rng.choice(attrs_of(out_rel))['name']}", ""
    if decoration == "order":
        return f"{key}, {agg}", f" order by {key}"
    tail = f" group by {key}"
    if rng.random() < 0.5:
        tail += f" having count(*) > {rng.randint(1, 20)}"
    if decoration == "group+order":
        tail += f" order by {key}"
    return f"{key}, sum({agg})", tail


def fk_queries(schema_name: str, schema_text: str, rng: random.Random) -> list[Item]:
    """One query per (j, s) cell over a fixture schema; half grouped, half ordered.

    The decoration goes round the diagonals of the (j, s) grid, so every j
    and every s gets each of plain, group, order and group+order.  The
    diagonal through the largest cell, j5s5, is plain: a grouped or ordered
    query is checked by optimizing its core a second time, which for the
    j5s5 cells would add about 8 s to every run.
    """
    doc = json.loads(schema_text)
    attrs = {r["name"]: r["attributes"] for r in doc["relations"]}
    items = []
    for j in SELECT_HEAVY_J:
        edges = _connected_edges(doc["fk_edges"], j)
        relations = sorted({e[side].split(".")[0] for e in edges for side in ("left", "right")})
        joins = [f"{e['left']} = {e['right']}" for e in edges]
        for s in SELECT_HEAVY_S:
            selects = _deal_selects(rng, relations, attrs.get, s)
            decoration = _DECORATIONS[(j + s + 2) % len(_DECORATIONS)]
            select_list, tail = _decorate(rng, decoration, relations, attrs.get)
            items.append(Item(qid=f"{schema_name}/j{j}s{s}", schema=schema_name,
                              sql=_sql(select_list, relations, joins + selects, tail),
                              shape="fk", j=j, s=s, mode="warm",
                              repeats=LIGHT_REPEATS if j + s <= 7 else 1))
    return items


def fixture_items() -> list[Item]:
    """Every fixture .sql verbatim, in warm mode."""
    items = []
    for schema_name in FIXTURE_SCHEMAS:
        for path in sorted((FIXTURES / schema_name).glob("*.sql")):
            sql = path.read_text()
            items.append(Item(qid=f"{schema_name}/{path.stem}", schema=schema_name,
                              sql=sql, shape="fixture", j=-1, s=-1, mode="warm",
                              nested=" in (" in " ".join(sql.lower().split()),
                              repeats=LIGHT_REPEATS))
    return items


def shape_queries(rng: random.Random) -> tuple[dict[str, str], list[Item]]:
    """Synthetic chain/star/cycle schemas and one query per (shape, j, s) cell."""
    schemas: dict[str, str] = {}
    items: list[Item] = []
    for shape in JOIN_HEAVY_SHAPES:
        for j in JOIN_HEAVY_J:
            name = f"{shape}{j}"
            text, pairs = synthetic_schema(shape, j, rng)
            schemas[name] = text
            attrs = {r["name"]: [a for a in r["attributes"] if a["name"] in ("a", "b")]
                     for r in json.loads(text)["relations"]}
            relations = sorted(attrs)
            joins = [f"r{a}.f = r{b}.k" for a, b in pairs]
            for s in JOIN_HEAVY_S:
                selects = _deal_selects(rng, relations, attrs.get, s)
                out = rng.sample(relations, 2)
                select_list = f"{out[0]}.a, {out[1]}.b"
                heavy = (shape == "star" and j >= 7) or (shape == "cycle" and j == 8)
                items.append(Item(qid=f"{name}/s{s}", schema=name,
                                  sql=_sql(select_list, relations, joins + selects),
                                  shape=shape, j=j, s=s, mode="cold",
                                  repeats=1 if heavy else LIGHT_REPEATS))
    return schemas, items


def chain_probe(rng: random.Random) -> tuple[str, Item]:
    """A 4-join chain with 5 selects, for the joindag/naive time ratio."""
    text, pairs = synthetic_schema("chain", 4, rng)
    attrs = {r["name"]: [a for a in r["attributes"] if a["name"] in ("a", "b")]
             for r in json.loads(text)["relations"]}
    relations = sorted(attrs)
    joins = [f"r{a}.f = r{b}.k" for a, b in pairs]
    selects = _deal_selects(rng, relations, attrs.get, 5)
    return text, Item(qid="chain4/s5", schema="chain4",
                      sql=_sql("r0.a, r4.b", relations, joins + selects),
                      shape="chain", j=4, s=5, mode="warm")


def make_inputs(seed: int) -> Inputs:
    """Schemas and the three operation streams for one seed."""
    rng = random.Random(seed)
    schemas = {name: (FIXTURES / name / "schema.json").read_text()
               for name in FIXTURE_SCHEMAS}
    select_heavy = fixture_items()
    for name in FIXTURE_SCHEMAS:
        select_heavy += fk_queries(name, schemas[name], rng)
    shape_schemas, join_heavy = shape_queries(rng)
    schemas.update(shape_schemas)
    naive_baseline = [Item(qid=i.qid, schema=i.schema, sql=i.sql, shape=i.shape,
                           j=i.j, s=i.s, mode="naive")
                      for i in select_heavy + join_heavy if not i.nested]
    return Inputs(schemas=schemas, streams={"select_heavy": select_heavy,
                                            "join_heavy": join_heavy,
                                            "naive_baseline": naive_baseline})
