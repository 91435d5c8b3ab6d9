"""Schema JSON, stats JSON and SQL text, mutated, through `optimize`.

Whatever the mutation, `optimize` in joindag mode, naive mode and (for
stats and SQL edits, which keep the schema a saved history was built
from) joindag mode with `--history` exits 0 with a finite cost, or exits 2
with exactly one `ERR:` line.  A query over the enumeration limit may also exit 3 with
one `ERR:limit:` line; nothing exits 4 (an internal error) or raises.

Each edit is a plain tuple, so a find is pinned as an `@example`.  Schema
and stats edits are (where, i, j, field, value): `where` picks a relation,
an attribute (of relation i), an FK edge, the stats block, one override or
the document itself, indices wrap around, and `value` replaces the field,
or is one of DROP (delete the field), DUPLICATE or REMOVE (copy or delete
the picked item in its list).  SQL edits are (action, i, j, token) over
character positions.
"""

import copy
import json
import math
import pathlib
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from sprinkleqo import joindag
from sprinkleqo.catalog import load_catalog_file

from conftest import FIXTURES, run_cli

GROUPS = ("company", "tpch")
SCHEMAS = {g: json.loads((FIXTURES / g / "schema.json").read_text()) for g in GROUPS}
QUERIES = {g: sorted(p.name for p in (FIXTURES / g).glob("*.sql")) for g in GROUPS}
DROP, DUPLICATE, REMOVE = "<drop>", "<duplicate>", "<remove>"

FIELDS = {
    "relation": ["name", "cardinality", "attributes", "typo"],
    "attribute": ["name", "distinct", "key", "typo"],
    "edge": ["left", "right", "jsf", "typo"],
    "stats": ["default_ssf", "overrides", "typo"],
    "top": ["relations", "fk_edges", "stats", "typo"],
}


def names_of(doc: dict) -> list[str]:
    """Relation and attribute names and qualified references of a schema."""
    out = set()
    for rel in doc["relations"]:
        out.add(rel["name"])
        for attr in rel["attributes"]:
            out.update((attr["name"], f"{rel['name']}.{attr['name']}"))
    return sorted(out)


NAMES = sorted({n for doc in SCHEMAS.values() for n in names_of(doc)})
SELECT_TEXTS = ["works_on.hours > 30", "project.plocation = 'hyderabad'",
                "customer.mktsegment = 'building'", "lineitem.shipdate <= '1998-09-02'"]
VALUES = st.one_of(
    st.sampled_from([DROP, DUPLICATE, REMOVE]),
    st.sampled_from(NAMES),
    st.floats(),
    st.integers(-5, 10**6),
    st.sampled_from([0, 1, 2**63, 10**400, -10**400]),
    st.none(), st.booleans(), st.text(max_size=4),
    st.sampled_from([[], {}, [1], {"a": 1}, ["a.b", "c.d"]]),
)
FIELDS["override"] = SELECT_TEXTS + NAMES + [""]


def edits_of(wheres) -> st.SearchStrategy:
    index = st.integers(0, 9)
    return st.one_of(*[st.tuples(st.just(w), index, index, st.sampled_from(FIELDS[w]), VALUES)
                       for w in wheres])


SCHEMA_EDITS = edits_of(FIELDS)
STATS_EDITS = edits_of(["stats", "override"])
SQL_TOKENS = [
    "select", "from", "where", "and", "or", "group by", "having", "order by",
    "asc", "desc", "in", "date", "(", ")", ",", "*", ".", "=", "<", ">", "<=", ">=",
    "<>", "!=", "'", "''", ";", " ", "\n", "\t", "0", "-1", "1.5", "1e400", "nan",
    "'2020-01-01'", "count(*)", "sum(", "avg(", "(select ", "x", "\x00", "é"]
SQL_ACTIONS = ["delete", "insert", "replace", "duplicate"]
TOKENS = st.one_of(st.sampled_from(NAMES), st.sampled_from(SQL_TOKENS))
SQL_EDITS = st.tuples(st.sampled_from(SQL_ACTIONS), st.integers(0, 400), st.integers(0, 30),
                      TOKENS)


def _pick(items, i):
    return items[i % len(items)] if isinstance(items, list) and items else None


def apply_edit(doc: dict, edit) -> None:
    """Apply one schema or stats edit to a document in place; an edit whose
    target an earlier edit removed does nothing."""
    where, i, j, field, value = edit
    rels = doc.get("relations")
    container, obj = None, None
    if where == "relation":
        container, obj = rels, _pick(rels, i)
    elif where == "attribute":
        rel = _pick(rels, i)
        container = rel.get("attributes") if isinstance(rel, dict) else None
        obj = _pick(container, j)
    elif where == "edge":
        container = doc.get("fk_edges")
        obj = _pick(container, i)
    elif where in ("stats", "override"):
        obj = doc.setdefault("stats", {})
        if where == "override" and isinstance(obj, dict):
            obj = obj.setdefault("overrides", {})
    else:
        obj = doc
    if not isinstance(obj, dict):
        return
    if value in (DUPLICATE, REMOVE):
        if container is not None:
            if value == DUPLICATE:
                container.append(copy.deepcopy(obj))
            else:
                container.remove(obj)
    elif value == DROP:
        obj.pop(field, None)
    else:
        obj[field] = copy.deepcopy(value)  # sampled lists and dicts are shared


def assert_domain_outcome(code: int, stdout: str, stderr: str) -> None:
    if code == 0:
        cost = re.search(r"best_cost=(\S+)", stdout)
        assert cost and math.isfinite(float(cost.group(1))), stdout
        return
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERR:"), stderr
    assert code == 2 or (code == 3 and lines[0].startswith("ERR:limit:")), stderr


def optimize_all_modes(schema: str, query: str, *extra: str,
                       history: str | None = None) -> None:
    runs = [(), ("--mode", "naive")]
    if history is not None:
        runs.append(("--history", history))
    for mode in runs:
        assert_domain_outcome(*run_cli("optimize", "--schema", schema, "--query", query,
                                       *extra, *mode))


def dumps(doc, cut: int | None) -> str:
    """JSON text of a document, truncated to an invalid prefix when `cut` is set."""
    text = json.dumps(doc)
    return text if cut is None else text[:cut % len(text)]


@pytest.fixture(scope="module")
def histories(tmp_path_factory):
    """One history per fixture schema, as `histdag build` saves it."""
    out = {}
    for group in GROUPS:
        catalog = load_catalog_file(str(FIXTURES / group / "schema.json"))
        path = tmp_path_factory.mktemp(group) / "history.json"
        joindag.save_history(joindag.build_complete_history(catalog, catalog.graph.edges),
                             str(path))
        out[group] = str(path)
    return out


@settings(max_examples=80, deadline=None)
@given(group=st.sampled_from(GROUPS), query=st.integers(0, 9),
       edits=st.lists(SCHEMA_EDITS, min_size=1, max_size=4),
       cut=st.none() | st.integers(0, 10**4))
# a distinct count beyond the float range, on an empty relation whose edge
# takes the default jsf, once overflowed converting 1 / distinct
@example(group="company", query=0,
         edits=[("relation", 0, 0, "cardinality", 0),
                ("attribute", 0, 0, "distinct", 10**400),
                ("edge", 0, 0, "jsf", DROP)], cut=None)
def test_mutated_schema_is_run_or_one_error_line(group, query, edits, cut):
    doc = copy.deepcopy(SCHEMAS[group])
    for edit in edits:
        apply_edit(doc, edit)
    with tempfile.TemporaryDirectory() as tmp:
        schema = pathlib.Path(tmp) / "schema.json"
        schema.write_text(dumps(doc, cut))
        optimize_all_modes(str(schema), str(FIXTURES / group / _pick(QUERIES[group], query)))


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(GROUPS), query=st.integers(0, 9),
       edits=st.lists(STATS_EDITS, max_size=4), cut=st.none() | st.integers(0, 10**3))
# an integer selectivity beyond the float range once overflowed in its range check
@example(group="company", query=0, edits=[("stats", 0, 0, "default_ssf", 10**400)],
         cut=None)
@example(group="tpch", query=0, edits=[("override", 0, 0, SELECT_TEXTS[0], -10**400)],
         cut=None)
def test_mutated_stats_is_run_or_one_error_line(group, query, edits, cut, histories):
    doc = {"stats": copy.deepcopy(SCHEMAS[group]["stats"])}
    for edit in edits:
        apply_edit(doc, edit)
    with tempfile.TemporaryDirectory() as tmp:
        stats = pathlib.Path(tmp) / "stats.json"
        stats.write_text(dumps(doc["stats"], cut))
        optimize_all_modes(str(FIXTURES / group / "schema.json"),
                           str(FIXTURES / group / _pick(QUERIES[group], query)),
                           "--stats", str(stats), history=histories[group])


def apply_sql_edit(text: str, edit) -> str:
    action, i, length, token = edit
    i %= len(text) + 1
    span = text[i:i + length]
    if action == "delete":
        return text[:i] + text[i + length:]
    if action == "insert":
        return text[:i] + token + text[i:]
    if action == "replace":
        return text[:i] + token + text[i + length:]
    return text[:i] + span + text[i:]


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(GROUPS), query=st.integers(0, 9),
       edits=st.lists(SQL_EDITS, min_size=1, max_size=4))
def test_mutated_sql_is_run_or_one_error_line(group, query, edits, histories):
    text = (FIXTURES / group / _pick(QUERIES[group], query)).read_text()
    for edit in edits:
        text = apply_sql_edit(text, edit)
    with tempfile.TemporaryDirectory() as tmp:
        sql = pathlib.Path(tmp) / "query.sql"
        sql.write_text(text, encoding="utf-8")
        optimize_all_modes(str(FIXTURES / group / "schema.json"), str(sql),
                           history=histories[group])
