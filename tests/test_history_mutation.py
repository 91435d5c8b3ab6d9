"""Saved histories with a mutated `batches`, `relations`, `version` or
`catalog_fingerprint` section and a re-sealed checksum.

Whatever the mutation, `histdag show` and `optimize --history` exit 0 without
a NaN, or exit 2 with exactly one `ERR:` line; they never raise.  The
mutations drop, repeat, move and junk the joins of the batches, empty and
reorder the batches, set a relation's cardinality to any number or none,
leave a relation out or add one, and change the version and fingerprint.
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
    """The JSON text of the history grown from a schema's edges, two joins
    a batch, so that it holds several batches."""
    catalog = load_catalog_file(str(FIXTURES / group / "schema.json"))
    edges = catalog.graph.edges
    history = joindag.empty_history(catalog)
    for i in range(0, len(edges), 2):
        history = joindag.build_incremental(history, edges[i:i + 2], catalog)
    return json.dumps(joindag._history_doc(history))


HISTORIES = {group: saved_history(group) for group in CASES}


def names_of(doc: dict) -> list[str]:
    """Every relation and attribute name a history's joins hold."""
    return sorted({name for batch in doc["batches"] for join in batch for name in join[:4]})


NUMBERS = st.one_of(st.sampled_from([math.nan, math.inf, -1, 1e308]), st.floats(),
                    st.integers(-10, 10**6), st.none(), st.booleans(),
                    st.sampled_from(["12", "x", [], {}]))
JUNK = st.one_of(st.none(), st.integers(-2, 3), st.text(max_size=3), st.just([]),
                 st.just({}))


def mutate_batches(draw, doc: dict, names: list[str]) -> None:
    batches = doc["batches"]
    lists = [b for b, batch in enumerate(batches) if isinstance(batch, list)]
    joins = [(b, j) for b in lists for j in range(len(batches[b]))]
    action = draw(st.sampled_from(["drop", "duplicate", "move", "empty", "reorder", "junk"]))
    if action in ("drop", "duplicate", "move") and joins:
        b, j = draw(st.sampled_from(joins))
        join = batches[b][j] if action == "duplicate" else batches[b].pop(j)
        if action != "drop":
            to = draw(st.sampled_from(lists))
            batches[to].insert(draw(st.integers(0, len(batches[to]))), join)
    elif action == "empty" and lists:
        if draw(st.booleans()):
            batches[draw(st.sampled_from(lists))] = []
        else:
            batches.insert(draw(st.integers(0, len(batches))), [])
    elif action == "reorder" and len(batches) > 1:
        i, k = draw(st.permutations(range(len(batches))))[:2]
        batches[i], batches[k] = batches[k], batches[i]
    elif action == "junk" and joins and draw(st.booleans()):
        b, j = draw(st.sampled_from(joins))
        join = batches[b][j]
        if isinstance(join, list) and len(join) == 5:
            i = draw(st.integers(0, 4))   # [rel, attr, rel, attr, jsf]
            join[i] = draw(NUMBERS if i == 4 else st.one_of(st.sampled_from(names), JUNK))
        else:
            batches[b][j] = draw(JUNK)
    elif batches:
        batches[draw(st.integers(0, len(batches) - 1))] = draw(JUNK)
    else:
        doc["batches"] = draw(JUNK)


def mutate(draw, doc: dict, names: list[str]) -> None:
    """Apply one mutation, drawn by `draw`, to a history document in place."""
    target = draw(st.sampled_from(["batches", "relations", "version", "catalog_fingerprint"]))
    if target == "batches" and isinstance(doc["batches"], list):
        mutate_batches(draw, doc, names)
    elif target == "relations" and isinstance(doc["relations"], dict) and doc["relations"]:
        relations = doc["relations"]
        name = draw(st.sampled_from(sorted(relations)))
        action = draw(st.sampled_from(["number", "missing", "extra"]))
        if action == "number":
            relations[name] = draw(NUMBERS)
        elif action == "missing":
            del relations[name]
        else:
            relations[draw(st.text(min_size=1, max_size=3))] = draw(NUMBERS)
    elif target == "version":
        doc["version"] = draw(st.one_of(NUMBERS, JUNK))
    else:
        doc[target] = draw(JUNK)


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


def repeat_a_join_in_a_batch_of_its_own(doc):
    doc["batches"].append([doc["batches"][0][0]])


def repeat_a_join_in_its_batch(doc):
    doc["batches"][0].append(doc["batches"][0][0])


def swap_the_sides_of_a_join(doc):
    join = doc["batches"][0][0]
    join[:4] = join[2:4] + join[:2]


def swap_two_joins_of_a_batch(doc):
    batch = doc["batches"][0]
    batch[0], batch[1] = batch[1], batch[0]


def set_join_field(field, value):
    return lambda doc: doc["batches"][0][0].__setitem__(field, value)


def set_relation(value, name="lineitem"):
    return lambda doc: doc["relations"].update({name: value})


NOT_BUILT = "ERR:io: malformed history file .*: it is not the history its batches build$"
MALFORMED = "ERR:io: malformed history file .*: "
NOT_A_CARDINALITY = MALFORMED + "relation lineitem: cardinality must be a finite number >= 0$"
OTHER_NUMBERS = [   # (edit, error): a valid number that is not the catalog's
    (set_relation(5, "customer"),
     "ERR:validation: history holds cardinality 5.0 for customer, the catalog 1000.0$"),
    (set_join_field(4, 0.5), "ERR:validation: history holds jsf 0.5 for "
                             "nation.nationkey = supplier.nationkey, the catalog 0.04$")]


@pytest.mark.parametrize("edit, error", [
    (repeat_a_join_in_a_batch_of_its_own, NOT_BUILT),
    (repeat_a_join_in_its_batch, NOT_BUILT),
    (lambda doc: doc["batches"].insert(1, []), NOT_BUILT),
    (swap_the_sides_of_a_join, NOT_BUILT),
    (swap_two_joins_of_a_batch, NOT_BUILT),
    (lambda doc: doc["relations"].update(zzz=1.0), NOT_BUILT),
    (lambda doc: doc["relations"].pop("lineitem"), MALFORMED + "'lineitem'$"),
    (set_relation(math.nan), NOT_A_CARDINALITY),
    (set_relation(math.inf), NOT_A_CARDINALITY),
    (set_relation(-1), NOT_A_CARDINALITY),
    (set_relation(True), NOT_A_CARDINALITY),
    (set_relation(1e308), MALFORMED + "join .* estimate overflows"),
    (set_join_field(4, math.nan), MALFORMED + "jsf nan of .* is not in \\(0, 1\\]$"),
    (set_join_field(4, -1.0), MALFORMED + "jsf -1.0 of .* is not in \\(0, 1\\]$"),
    (set_join_field(4, True), MALFORMED + "jsf True of .* is not a number$"),
    (set_join_field(0, []), MALFORMED + "join .* names a non-string$"),
    *OTHER_NUMBERS,
    (lambda doc: doc.update(version=math.inf), MALFORMED),
    (lambda doc: doc.update(version="1"), NOT_BUILT),
    (lambda doc: doc.update(version=True), MALFORMED + "version True is not a number >= its 3 "
                                                      "batches$"),
    (lambda doc: doc.update(version=-5), MALFORMED + "version -5 is not a number >= its 3 "
                                                     "batches$"),
    (lambda doc: doc.update(catalog_fingerprint=None), NOT_BUILT),
    (lambda doc: doc.update(catalog_fingerprint="0" * 64),
     "ERR:validation: history was built against a different catalog"),
], ids=["join-repeated-in-a-later-batch", "join-repeated-in-its-batch", "empty-batch",
        "join-sides-swapped", "batch-out-of-order", "extra-relation",
        "missing-relation", "nan-cardinality", "infinite-cardinality",
        "negative-cardinality", "bool-cardinality", "cardinality-overflows-a-join",
        "nan-jsf", "negative-jsf", "bool-jsf", "list-relation-names",
        "cardinality-not-the-catalogs", "jsf-not-the-catalogs", "infinite-version",
        "string-version", "bool-version", "version-below-its-batches",
        "fingerprint-not-a-string", "other-fingerprint"])
def test_mutation_regressions(edit, error):
    """Mutations of each section whose refusal is pinned to its message:
    the replay's one comparison refuses whatever a build would not have
    saved, and the join and cardinality rules refuse the rest first.  A
    valid cardinality or jsf that is not the catalog's loads, and is
    refused where the CLI checks a loaded history against its catalog."""
    doc = json.loads(HISTORIES["tpch"])
    edit(doc)
    assert_run_or_one_error_line("tpch", doc, error=error)


@pytest.mark.parametrize("edit, error", OTHER_NUMBERS,
                         ids=["cardinality-not-the-catalogs", "jsf-not-the-catalogs"])
def test_histdag_add_refuses_a_history_of_other_numbers(edit, error):
    """`histdag add` checks a loaded history against its catalog as `show`
    and `optimize` do, and leaves the file as it was."""
    doc = json.loads(HISTORIES["tpch"])
    edit(doc)
    doc["checksum"] = joindag._checksum(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "history.json"
        path.write_text(json.dumps(doc))
        code, _, stderr = run_cli("histdag", "add", "--history", str(path),
                                  "--schema", str(FIXTURES / "tpch" / "schema.json"),
                                  "--query", str(FIXTURES / "tpch" / "q2.sql"))
        assert code == 2 and re.fullmatch(error, stderr.strip()) and len(stderr.splitlines()) == 1
        assert json.loads(path.read_text()) == doc


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(sorted(CASES)), n=st.integers(1, 3), data=st.data())
def test_mutated_history_is_run_or_one_error_line(group, n, data):
    doc = json.loads(HISTORIES[group])
    names = names_of(doc)
    for _ in range(n):
        mutate(data.draw, doc, names)
    assert_run_or_one_error_line(group, doc)
