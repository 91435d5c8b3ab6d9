"""Saved histories with a mutated `dag` or `known_joins` section and a
re-sealed checksum.

Whatever the mutation, `histdag show` and `optimize --history` exit 0, or
exit 2 with exactly one `ERR:` line; they never raise.  The mutations touch
signature parts, op kinds, details and children, sizes, costs and factors,
arcs and roots, and the attributes and jsf of known joins.
"""

import json
import math
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import joindag
from sprinkleqo.catalog import load_catalog_file

from conftest import FIXTURES, run_cli

# (schema group, query): tpch's history holds a cycle, so joinfilters
CASES = {"company": "q1", "tpch": "q4"}


def saved_history(group: str) -> str:
    """The JSON text of the history `histdag build` saves for a schema."""
    catalog = load_catalog_file(str(FIXTURES / group / "schema.json"))
    return json.dumps(joindag._history_doc(
        joindag.build_complete_history(catalog, catalog.graph.edges)))


HISTORIES = {group: saved_history(group) for group in CASES}


def texts_of(dag: dict) -> list[str]:
    """Every text of a dag's signatures and op details, to mutate with."""
    return sorted({t for n in dag["eq_nodes"] for part in n["signature"] for t in part}
                  | {o["detail"] for o in dag["op_nodes"]})

NUMBERS = st.one_of(st.floats(), st.integers(-10, 10**6), st.none(), st.booleans(),
                    st.sampled_from(["12", "x", [], {}]))
JUNK = st.one_of(st.none(), st.integers(-2, 3), st.text(max_size=3), st.just([]),
                 st.just({}))


def mutate(draw, doc: dict, texts: list[str]) -> None:
    """Apply one mutation, drawn by `draw`, to a history document in place."""
    dag = doc["dag"]
    eqs, ops, arcs = dag["eq_nodes"], dag["op_nodes"], dag["arcs"]
    ids = st.integers(-1, len(eqs))
    target = draw(st.sampled_from(["signature", "kind", "detail", "children", "est_size",
                                   "op_cost", "factor", "eq_to_op", "op_to_eq", "roots",
                                   "known_joins"]))
    if target == "signature":
        sig = draw(st.sampled_from(eqs))["signature"]
        i = draw(st.integers(0, 3))
        action = draw(st.sampled_from(["drop", "add", "swap", "junk"]))
        if not isinstance(sig[i], list):
            sig[i] = []
        elif action == "drop" and sig[i]:
            sig[i].pop(draw(st.integers(0, len(sig[i]) - 1)))
        elif action == "add":
            sig[i].append(draw(st.sampled_from(texts)))
        elif action == "swap":
            other = draw(st.sampled_from(eqs))["signature"][draw(st.integers(0, 3))]
            sig[i] = list(other) if isinstance(other, list) else other
        else:
            sig[i] = draw(JUNK)
    elif target == "kind":
        draw(st.sampled_from(ops))["kind"] = draw(st.sampled_from(
            ["join", "joinfilter", "select", "project", "groupby", "having",
             "orderby", "bogus", None]))
    elif target == "detail":
        draw(st.sampled_from(ops))["detail"] = draw(st.one_of(st.sampled_from(texts), JUNK))
    elif target == "children":
        draw(st.sampled_from(ops))["children"] = draw(st.one_of(
            st.lists(ids, max_size=3), JUNK))
    elif target in ("est_size", "op_cost", "factor"):
        draw(st.sampled_from(eqs if target == "est_size" else ops))[target] = draw(NUMBERS)
    elif target in ("eq_to_op", "op_to_eq") and arcs[target]:
        pairs = arcs[target]
        action = draw(st.sampled_from(["drop", "duplicate", "retarget"]))
        arc = draw(st.sampled_from(pairs))
        if action == "drop":
            pairs.remove(arc)
        elif action == "duplicate":
            pairs.append(list(arc))
        else:
            arc[draw(st.integers(0, 1))] = draw(st.one_of(ids, JUNK))
    elif target == "roots":
        roots = dag["roots"]
        roots[draw(st.sampled_from(sorted(roots)))] = draw(st.one_of(ids, JUNK))
    elif target == "known_joins":
        known = draw(st.sampled_from(doc["known_joins"]))   # [rel, attr, rel, attr, jsf]
        i = draw(st.integers(0, 4))
        known[i] = draw(NUMBERS if i == 4 else st.one_of(st.sampled_from(texts), JUNK))


def assert_run_or_one_error_line(group: str, doc: dict, error: str | None = None) -> None:
    """Run `histdag show` and `optimize` on `doc`, re-sealed: each exits 0
    without a NaN, or 2 with one `ERR:` line; with `error`, a pattern, each
    must exit 2 with one line that it matches from the start."""
    doc["checksum"] = joindag._checksum({k: v for k, v in doc.items() if k != "checksum"})
    schema = str(FIXTURES / group / "schema.json")
    query = str(FIXTURES / group / f"{CASES[group]}.sql")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "history.json"
        path.write_text(json.dumps(doc))
        for argv in (("histdag", "show", "--schema", schema),
                     ("optimize", "--schema", schema, "--query", query)):
            code, stdout, stderr = run_cli(*argv, "--history", str(path))
            if code == 0 and error is None:
                assert "nan" not in stdout.lower()
            else:
                assert code == 2, stderr
                lines = stderr.splitlines()
                assert len(lines) == 1 and re.match(error or "ERR:", lines[0]), stderr


def set_field(section: str, index: int, **fields):
    return lambda dag: dag[section][index].update(fields)


def retarget_an_arc(dag):
    dag["arcs"]["eq_to_op"][0][0] = "s\x0b"


def repeat_an_eq_node_id(dag):
    dag["eq_nodes"][1]["id"] = dag["eq_nodes"][0]["id"]


def name_an_unknown_child(dag):
    dag["op_nodes"][0]["children"][0] = 10**6


def drop_an_op_to_eq_arc(dag):
    dag["arcs"]["op_to_eq"].pop()


NOT_BUILT = "ERR:io: malformed history file .*: it is not the history its known joins build$"


@pytest.mark.parametrize("edit, error", [
    (set_field("eq_nodes", 0, signature=[[], [], [], []]), "ERR:"),
    (set_field("op_nodes", 0, detail=2), "ERR:"),
    (set_field("op_nodes", 0, factor=None), "ERR:"),
    (retarget_an_arc, "ERR:"),
    (set_field("op_nodes", 0, detail="a\nb"), "ERR:"),
    (repeat_an_eq_node_id, NOT_BUILT),
    (name_an_unknown_child, "ERR:io: malformed history file .*: op-node 0 is not a known "
                            "join over built inputs that hold its relations$"),
    (drop_an_op_to_eq_arc, NOT_BUILT),
], ids=["base-without-relation", "detail-not-a-string", "join-without-factor",
        "arc-end-with-a-line-break", "detail-with-a-line-break", "duplicate-eq-node-id",
        "unknown-child-eq-node", "op-to-eq-arcs-disagree"])
def test_mutation_regressions(edit, error):
    """Mutations the suite found, each of which once raised or printed an
    error over more than one line, and load errors that no random mutation
    is sure to reach, each pinned to its message."""
    doc = json.loads(HISTORIES["tpch"])
    edit(doc["dag"])
    assert_run_or_one_error_line("tpch", doc, error=error)


@pytest.mark.parametrize("fields", [{4: math.nan}, {4: -1.0}, {4: 0.5}, {0: [], 2: []}],
                         ids=["nan-jsf", "negative-jsf", "jsf-not-the-dag-factor",
                              "list-relation-names"])
def test_known_joins_that_contradict_the_dag_are_malformed(fields):
    """A known join names its relations and attributes by strings, and its
    jsf is in (0, 1] and is the factor of the dag's op-nodes for that join;
    0.5 is in range but is not tpch's factor."""
    doc = json.loads(HISTORIES["tpch"])
    for i, value in fields.items():
        doc["known_joins"][0][i] = value
    assert_run_or_one_error_line("tpch", doc, error="ERR:io: malformed history file ")


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(sorted(CASES)), n=st.integers(1, 3), data=st.data())
def test_mutated_history_is_run_or_one_error_line(group, n, data):
    doc = json.loads(HISTORIES[group])
    texts = texts_of(doc["dag"])
    for _ in range(n):
        mutate(data.draw, doc, texts)
    assert_run_or_one_error_line(group, doc)
