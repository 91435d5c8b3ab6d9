"""Golden outcomes of `sqlfront.parse_query` over a fixed set of statements.

Each entry is one statement, its schema and what parsing it gives: the
`repr` of the `Query` (its table sets sorted), or the error's class and
message.  The statements are every fixture, every operation of optbench's
three streams for seed 3, a few hand-written edge cases over a schema whose
attribute names are SQL words, and a fixed-seed corpus of 400 fixture
statements mutated by `test_input_mutation`'s SQL edits.  A change to the
parser that keeps the golden file keeps every `Query` and every error,
message and precedence these statements reach.

Regenerate the golden file only for a change meant to move an outcome:

    PYTHONPATH=src python tests/test_parse_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import sys

from sprinkleqo.catalog import load_catalog
from sprinkleqo.errors import SprinkleQoError
from sprinkleqo.sqlfront import parse_query

from conftest import FIXTURES, make_catalog
from test_input_mutation import GROUPS, NAMES, SQL_ACTIONS, SQL_TOKENS, apply_sql_edit

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_outcomes.json"
STREAM_SEED = 3
MUTANT_SEED = 26
MUTANTS = 400

# attribute names that are SQL words, each case with what it pins
WORDS = ["k", "or", "and", "date", "select", "by"]
CASES = [
    "select * from t where t.or = 1",                  # a qualified `or` is a name
    "select * from t where t.and = 1 and t.k > 2",     # so is a qualified `and`
    "select * from t where t.k = date",                # a lone word on the right is a name
    "select * from t where t.k = 1abc",                # an item is quoted whole
    "select t.k from t group by t.by order by t.by",   # `group` and `order` need `by`
    "select t.select from t where t.k > 1 or t.k < 0",
    "select * from t where t.k = 'a or b' and t.date = 'x'",
    "select * from t where t.k = 'unterminated",
    "select * from t where t.k = (1",
    "select * from t) where (t.k = 1",
    # errors in order of precedence: OR, nesting, then the clause checks
    "select * from t where (t.k = 1 or t.k = 2",
    "select * from t where t.k in (select t.k from t where t.k = 1 or t.k = 2)",
    "select * from t where t.k = 1) and 'x",
    "select * from t where t.k = 'x' and (t.k",
    "from t select * where (t.k = 1)",
    "select * where t.k = 1 from t",
    "select * where t.k = 1",
    "select , from t group by",
    "select * from t where t.k = 1 and",
    "select * from t where t.k = 1 order by t.k, group by t.k",
    "select * from t where t.k = 1 group by having",
    "select t.k, count(*) from t where t.k > 1 group by t.k having count(*) > 1 "
    "order by t.k desc",
    "select * from t where t.k in (select t.k from t where t.date = 'x') and t.k < 5",
    "select * from t, (select t.k from t) s where t.k = s.k",
    "select * from t where t.k > = 2",
    "select * from t where t.k <> 2 and t.date != 'a<b' and 'x=y' = t.k",
]


def words_catalog():
    return make_catalog([{"name": "t", "cardinality": 100.0,
                          "attributes": [{"name": n, "distinct": 10} for n in WORDS]}], [])


def statements() -> tuple[dict, list[tuple[str, str, str]]]:
    """Catalogs by schema name, and (name, schema, sql) for every statement,
    each (schema, sql) pair under the first name it comes by: the naive
    stream repeats the other two."""
    sys.path.insert(0, str(ROOT / "optbench"))
    import workloads  # noqa: E402  (needs the path above)

    inputs = workloads.make_inputs(STREAM_SEED)
    catalogs = {name: load_catalog(text) for name, text in inputs.schemas.items()}
    catalogs["words"] = words_catalog()
    fixtures = {group: {p.stem: p.read_text() for p in sorted((FIXTURES / group).glob("*.sql"))}
                for group in GROUPS}
    out = [(f"fixture/{group}/{name}", group, sql)
           for group in GROUPS for name, sql in fixtures[group].items()]
    for workload, stream in inputs.streams.items():
        out += [(f"{workload}/{i} {item.qid}", item.schema, item.sql)
                for i, item in enumerate(stream)]
    out += [(f"case/{i}", "words", sql) for i, sql in enumerate(CASES)]
    rng = random.Random(MUTANT_SEED)
    for n in range(MUTANTS):
        group = rng.choice(GROUPS)
        text = rng.choice(list(fixtures[group].values()))
        for _ in range(rng.randint(1, 4)):
            edit = (rng.choice(SQL_ACTIONS), rng.randint(0, 400), rng.randint(0, 30),
                    rng.choice(rng.choice([NAMES, SQL_TOKENS])))
            text = apply_sql_edit(text, edit)
        out.append((f"mutant/{n}", group, text))
    first = {}
    for name, schema, sql in out:
        first.setdefault((schema, sql), name)
    return catalogs, [(name, schema, sql) for (schema, sql), name in first.items()]


def sorted_tables(query):
    """`query` with its table sets sorted, so that its repr is the same in
    every process whatever the string hash seed."""
    sub = query.subquery
    if sub is not None:
        sub = dataclasses.replace(sub, query=sorted_tables(sub.query))
    return dataclasses.replace(query, tables=sorted(query.tables), subquery=sub)


def outcome(sql: str, catalog) -> str:
    try:
        return repr(sorted_tables(parse_query(sql, catalog)))
    except SprinkleQoError as exc:
        return f"{type(exc).__name__}: {exc}"


def outcomes() -> dict:
    catalogs, stmts = statements()
    return {name: {"schema": schema, "sql": sql, "outcome": outcome(sql, catalogs[schema])}
            for name, schema, sql in stmts}


def test_parse_outcomes_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = outcomes()
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outcomes(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
