"""Command-line behavior: artifacts, exit codes, bench reports, histories."""

import json
import logging
import os
import threading

import pytest

from sprinkleqo import analytics, cli, forest, joindag, memo
from sprinkleqo.catalog import load_catalog_file
from sprinkleqo.cli import main
from sprinkleqo.ioutil import locked
from sprinkleqo.sqlfront import extract_join_set, parse_query

from conftest import FIXTURES, report_from_csv

COMPANY = str(FIXTURES / "company" / "schema.json")
TPCH = str(FIXTURES / "tpch" / "schema.json")
Q1 = str(FIXTURES / "company" / "q1.sql")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_joindag_writes_all_artifacts(capsys, tmp_path):
    out = tmp_path / "plan.json"
    dot = tmp_path / "dag.dot"
    report = tmp_path / "report.csv"
    code, stdout, _ = run(capsys, "optimize", "--schema", COMPANY,
                          "--query", Q1, "--out", str(out), "--dot", str(dot),
                          "--report", str(report))
    assert code == 0
    assert "mode=joindag best_cost=57600" in stdout
    assert "join_combinations_considered=2" in stdout

    doc = json.loads(out.read_text())
    assert doc["query_id"] == "q1"
    assert doc["best_cost"] == 57600.0
    assert doc["join_combinations_considered"] == 2
    assert (doc["eq_nodes"], doc["op_nodes"], doc["plans"]) == (8, 5, 1)
    assert doc["plan"]["kind"] == "project"

    text = dot.read_text()
    assert text.startswith("digraph")
    assert "->" in text

    parsed = report_from_csv(report.read_text())
    (row,) = parsed.rows
    assert (row.query_id, row.mode, row.status) == ("q1", "joindag", "ok")
    assert (row.eq_nodes, row.op_nodes, row.plans) == (8, 5, 1)
    assert (row.est_eq_nodes, row.est_plans) == (10, 2)
    assert row.est_time_complexity == 18
    assert row.best_cost == 57600.0


def test_optimize_naive_mode(capsys, tmp_path):
    out = tmp_path / "plan.json"
    code, stdout, _ = run(capsys, "optimize", "--schema", COMPANY,
                          "--query", Q1, "--mode", "naive", "--out", str(out))
    assert code == 0
    assert "permutations_considered=24" in stdout
    doc = json.loads(out.read_text())
    assert doc["best_cost"] == 57600.0
    assert (doc["eq_nodes"], doc["op_nodes"], doc["plans"]) == (16, 26, 18)


def test_optimize_builds_complexity_parameters_only_for_a_report(capsys, tmp_path,
                                                                  monkeypatch):
    # naive mode measures the estimator's join dag, every join order of the
    # query's joins alone, in a memo of its own; its own search expands the
    # joins and selects together
    builds = []   # the selects each expansion applies
    build = forest.expand_forest
    monkeypatch.setattr(forest, "expand_forest", lambda dag, relations, joins, selects=():
                        builds.append(len(selects)) or build(dag, relations, joins, selects))
    code, _, _ = run(capsys, "optimize", "--schema", COMPANY, "--query", Q1, "--mode", "naive")
    assert code == 0 and builds == [2]
    report = tmp_path / "report.csv"
    code, _, _ = run(capsys, "optimize", "--schema", COMPANY, "--query", Q1, "--mode", "naive",
                     "--report", str(report))
    assert code == 0 and builds == [2, 2, 0]
    (row,) = report_from_csv(report.read_text()).rows
    assert (row.est_eq_nodes, row.est_plans) == (54, 40)


def test_optimize_count_internal_only(capsys, tmp_path):
    out = tmp_path / "plan.json"
    code, _, _ = run(capsys, "optimize", "--schema", COMPANY, "--query", Q1,
                     "--mode", "naive", "--out", str(out),
                     "--count-internal-only")
    assert code == 0
    doc = json.loads(out.read_text())
    # the three base relations drop out of the eq count
    assert (doc["eq_nodes"], doc["op_nodes"], doc["plans"]) == (13, 26, 18)


def test_usage_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "optimize", "--schema", COMPANY)
    assert code == 1 and err.startswith("ERR:usage:")

    code, _, err = run(capsys, "optimize", "--schema", COMPANY, "--query", Q1,
                       "--max-ops", "12")
    assert code == 1 and "i-know-this-is-factorial" in err

    code, _, err = run(capsys, "optimize", "--schema", COMPANY, "--query", Q1,
                       "--max-ops", "0")
    assert code == 1 and "at least 1" in err

    code, _, err = run(capsys, "bench", "--schema", COMPANY, "--queries",
                       str(tmp_path), "--report", str(tmp_path / "r.csv"),
                       "--modes", "fancy")
    assert code == 1 and "naive and/or joindag" in err


def test_histdag_show_takes_no_enumeration_limit(capsys):
    # show enumerates nothing, so it has no --max-ops to validate
    code, stdout, err = run(capsys, "histdag", "show", "--schema", COMPANY,
                            "--history", "h.json", "--max-ops", "3")
    assert (code, stdout) == (1, "")
    assert err.startswith("ERR:usage:") and len(err.splitlines()) == 1


def test_internal_error_is_one_error_line_exit_four(capsys, monkeypatch, caplog):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_histdag_show", broken)
    argv = ("histdag", "show", "--schema", COMPANY, "--history", "h.json")
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (cli.EXIT_INTERNAL, "")
    assert err == "ERR:internal: RuntimeError: boom\n"
    assert cli.EXIT_INTERNAL == 4

    code, _, err = run(capsys, *argv[:-2])  # --history missing: still usage
    assert code == 1 and err.startswith("ERR:usage:") and len(err.splitlines()) == 1

    monkeypatch.setenv("SPRINKLE_QO_LOG", "debug")
    with caplog.at_level(logging.DEBUG, logger="sprinkleqo"):
        code, _, err = run(capsys, *argv)
    assert code == 4 and [l for l in err.splitlines() if l.startswith("ERR:")] == [
        "ERR:internal: RuntimeError: boom"]
    (record,) = [r for r in caplog.records if r.exc_info]
    assert record.exc_info[0] is RuntimeError


def test_raised_max_ops_with_acknowledgement(capsys, tmp_path):
    tq1 = str(FIXTURES / "tpch" / "tq1.sql")
    code, _, err = run(capsys, "optimize", "--schema", TPCH, "--query", tq1,
                       "--mode", "naive")
    assert code == 3 and err.startswith("ERR:limit:")
    code, stdout, _ = run(capsys, "optimize", "--schema", TPCH, "--query", tq1,
                          "--mode", "naive", "--max-ops", "9",
                          "--i-know-this-is-factorial")
    assert code == 0 and "permutations_considered=362880" in stdout


def plan_kinds(doc):
    return [doc["kind"]] + [k for child in doc.get("children", ()) for k in plan_kinds(child)]


def test_an_order_by_over_two_relations_cold_and_warm(capsys, tmp_path):
    # joindag mode once dropped the first query's order-by (51000) and kept
    # the second's at the root (53500)
    hist = tmp_path / "history.json"
    assert run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))[0] == 0
    base = ("select * from department, employee, project where employee.dno = "
            "department.dnumber and project.dnum = department.dnumber order by ")
    out, sql = tmp_path / "plan.json", tmp_path / "q.sql"
    for order, optimum in (("department.dname, employee.fname", 53500.0),
                           ("department.dname, project.pname", 51050.0)):
        sql.write_text(base + order)
        for extra in (("--mode", "naive"), (), ("--history", str(hist))):
            code, _, _ = run(capsys, "optimize", "--schema", COMPANY, "--query", str(sql),
                             "--out", str(out), *extra)
            assert code == 0, extra
            doc = json.loads(out.read_text())
            assert doc["best_cost"] == optimum, (order, extra)
            assert plan_kinds(doc["plan"]).count("orderby") == 1, (order, extra)


def test_a_join_of_two_schema_edges_keeps_the_first_edges_jsf(capsys, tmp_path):
    # a.k = b.k is an FK edge twice, at jsf 0.001 and then 0.5: a parsed
    # query takes the first, and so must the history.  At 0.001 joining a
    # and b first costs 1e6; at 0.5 joining b and c first, 5.5e6, wins
    relations = [{"name": name, "cardinality": card,
                  "attributes": [{"name": "k", "distinct": 100}, {"name": "j", "distinct": 10}]}
                 for name, card in (("a", 1000), ("b", 500), ("c", 1000))]
    schema, hist = tmp_path / "schema.json", tmp_path / "history.json"
    schema.write_text(json.dumps({"relations": relations, "fk_edges": [
        {"left": "a.k", "right": "b.k", "jsf": 0.001}, {"left": "b.k", "right": "a.k", "jsf": 0.5},
        {"left": "b.j", "right": "c.j", "jsf": 0.01}]}))
    assert run(capsys, "histdag", "build", "--schema", str(schema), "--out", str(hist))[0] == 0
    query, out = tmp_path / "q.sql", tmp_path / "plan.json"
    query.write_text("select * from a, b, c where a.k = b.k and b.j = c.j")
    docs = []
    for extra in (("--history", str(hist)), (), ("--mode", "naive")):
        code, _, err = run(capsys, "optimize", "--schema", str(schema), "--query", str(query),
                           "--out", str(out), *extra)
        assert (code, err) == (0, ""), extra
        doc = json.loads(out.read_text())
        docs.append((doc["best_cost"], doc["plan"]))
    assert docs[0] == docs[1] == docs[2]
    assert docs[0][0] == 1e6


def test_from_subquery_cli(capsys, tmp_path):
    sql = tmp_path / "from.sql"
    sql.write_text("select s.fname, project.pname from (select employee.fname, employee.ssn "
                   "from employee where employee.salary > 50000) s, works_on, project "
                   "where s.ssn = works_on.ssn and works_on.pno = project.pnumber")
    out = tmp_path / "plan.json"
    code, _, _ = run(capsys, "optimize", "--schema", COMPANY, "--query", str(sql),
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["best_cost"] == 1052200.0
    assert "select" in plan_kinds(doc["plan"])   # the inner block spliced in
    code, _, err = run(capsys, "optimize", "--schema", COMPANY, "--query", str(sql),
                       "--mode", "naive")
    assert code == 2 and err.startswith("ERR:validation:")


def test_parse_and_io_errors(capsys, tmp_path):
    bad = tmp_path / "bad.sql"
    bad.write_text("select * from employee where employee.dno = 1 "
                   "or employee.dno = 2")
    code, _, err = run(capsys, "optimize", "--schema", COMPANY,
                       "--query", str(bad))
    assert code == 2 and err.startswith("ERR:parse:")

    code, _, err = run(capsys, "optimize", "--schema", COMPANY,
                       "--query", str(tmp_path / "missing.sql"))
    assert code == 2 and err.startswith("ERR:io:")

    code, _, err = run(capsys, "optimize", "--schema",
                       str(tmp_path / "no-schema.json"), "--query", Q1)
    assert code == 2 and err.startswith("ERR:io:")


@pytest.mark.parametrize("sql, prefix", [
    ("select * from employee where", "ERR:parse: empty WHERE clause"),
    ("select employee.ssn, from employee", "ERR:parse: empty item in select list"),
    ("select * from employee where employee.dno = 1 and",
     "ERR:parse: empty item in WHERE clause"),
    ("select * from employee where employee.dno = 1 and and employee.ssn > 2",
     "ERR:parse: empty item in WHERE clause"),
    ("select * from employee, department where employee.dno = department.nosuch",
     "ERR:validation: unknown attribute department.nosuch"),
])
def test_malformed_lists_and_unknown_attributes_exit_two(capsys, tmp_path, sql, prefix):
    bad = tmp_path / "bad.sql"
    bad.write_text(sql)
    code, out, err = run(capsys, "optimize", "--schema", COMPANY, "--query", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1


def test_validation_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.sql"
    bad.write_text("select * from employee where nowhere.x > 1")
    code, _, err = run(capsys, "optimize", "--schema", COMPANY,
                       "--query", str(bad))
    assert code == 2 and err.startswith("ERR:")


@pytest.mark.parametrize("mode", ["joindag", "naive"])
def test_a_from_relation_named_like_the_in_view_is_one_error_line(capsys, tmp_path, mode):
    # an IN subquery's view is `subq1`, which would replace this relation
    relations = [{"name": name, "cardinality": 100.0,
                  "attributes": [{"name": "x", "distinct": 10}, {"name": "y", "distinct": 10}]}
                 for name in ("subq1", "t")]
    schema, query = tmp_path / "schema.json", tmp_path / "q.sql"
    schema.write_text(json.dumps({"relations": relations, "fk_edges": []}))
    query.write_text("select * from subq1, t where subq1.x = t.x and t.y in (select t.y from t)")
    code, stdout, err = run(capsys, "optimize", "--schema", str(schema), "--query", str(query),
                            "--mode", mode)
    assert code == 2 and stdout == ""
    assert err == ("ERR:validation: FROM relation 'subq1' has the name of the "
                   "IN subquery's view\n")


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(fk_edges=5),
    lambda doc: doc["fk_edges"][0].update(left=7),
    lambda doc: doc["relations"][0].update(cardinality=float("nan")),
], ids=["fk-edges-not-a-list", "non-string-endpoint", "nan-cardinality"])
def test_malformed_schema_is_one_error_line(capsys, tmp_path, edit):
    doc = json.loads((FIXTURES / "company" / "schema.json").read_text())
    edit(doc)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    code, _, err = run(capsys, "optimize", "--schema", str(schema), "--query", Q1)
    assert code == 2
    assert err.startswith("ERR:validation:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("mode", ["joindag", "naive"])
def test_a_grouped_order_by_on_a_dropped_column_is_one_error_line(capsys, tmp_path, mode):
    # the plan would sort on employee.fname above groupby(employee.dno),
    # which keeps no such column
    query, out = tmp_path / "q.sql", tmp_path / "plan.json"
    query.write_text("select employee.dno from employee group by employee.dno "
                     "order by employee.fname")
    code, stdout, err = run(capsys, "optimize", "--schema", COMPANY, "--query", str(query),
                            "--mode", mode, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "ERR:validation: ORDER BY employee.fname must appear in GROUP BY\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["joindag", "naive"])
def test_a_column_beside_an_ungrouped_aggregate_is_one_error_line(capsys, tmp_path, mode):
    # an aggregate without GROUP BY makes the block one group, which keeps
    # no employee.fname to project beside count(*)
    query, out = tmp_path / "q.sql", tmp_path / "plan.json"
    query.write_text("select count(*), employee.fname from employee")
    code, stdout, err = run(capsys, "optimize", "--schema", COMPANY, "--query", str(query),
                            "--mode", mode, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "ERR:validation: employee.fname must appear in GROUP BY or an aggregate\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["joindag", "naive"])
def test_an_order_by_under_an_ungrouped_aggregate_is_one_error_line(capsys, tmp_path, mode):
    # the one group of an aggregate without GROUP BY has no employee.fname
    # to sort on, as a grouped ORDER BY names only grouping keys
    query, out = tmp_path / "q.sql", tmp_path / "plan.json"
    query.write_text("select count(*) from employee order by employee.fname")
    code, stdout, err = run(capsys, "optimize", "--schema", COMPANY, "--query", str(query),
                            "--mode", mode, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "ERR:validation: ORDER BY employee.fname must appear in GROUP BY\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["joindag", "naive"])
@pytest.mark.parametrize("sql", [
    "select employee.fname from employee, works_on "
    "where employee.ssn = works_on.ssn",
    (FIXTURES / "company" / "q1.sql").read_text(),
], ids=["two-relations", "q1"])
def test_overflowing_estimates_are_one_error_line(capsys, tmp_path, sql, mode):
    doc = json.loads((FIXTURES / "company" / "schema.json").read_text())
    for relation in doc["relations"]:
        relation["cardinality"] = 1e200   # finite, but a join overflows
    schema, query, out = tmp_path / "schema.json", tmp_path / "q.sql", tmp_path / "plan.json"
    schema.write_text(json.dumps(doc))
    query.write_text(sql)
    code, stdout, err = run(capsys, "optimize", "--schema", str(schema),
                            "--query", str(query), "--mode", mode, "--out", str(out))
    assert code == 2
    assert err.startswith("ERR:validation:") and len(err.splitlines()) == 1
    assert "overflows" in err
    assert not out.exists()
    assert "Infinity" not in stdout + err and "inf" not in stdout


@pytest.mark.parametrize("mode", ["joindag", "naive"])
def test_overflowing_plan_cost_is_one_error_line(capsys, tmp_path, mode):
    # each op cost is finite, but the join's and the projection's sum is not
    relations = [{"name": name, "cardinality": 1.3e154,
                  "attributes": [{"name": "k", "distinct": 10}, {"name": "b", "distinct": 10}]}
                 for name in ("a", "b")]
    schema, query = tmp_path / "schema.json", tmp_path / "q.sql"
    schema.write_text(json.dumps({"relations": relations, "fk_edges": [
        {"left": "a.k", "right": "b.k", "jsf": 0.1}]}))
    query.write_text("select a.b from a, b where a.k = b.k")
    out = tmp_path / "plan.json"
    code, stdout, err = run(capsys, "optimize", "--schema", str(schema), "--query", str(query),
                            "--mode", mode, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("ERR:validation:") and "overflows" in err
    assert len(err.splitlines()) == 1


def test_grouped_block_whose_plain_pass_overflows_keeps_its_optimum(capsys, tmp_path):
    # the ungrouped join's cost overflows, so no landing's bound may use it;
    # grouping either input first keeps every cost finite
    relations = [{"name": name, "cardinality": 1.3e154,
                  "attributes": [{"name": "k", "distinct": 10}, {"name": "b", "distinct": 10}]}
                 for name in ("a", "b")]
    schema, query = tmp_path / "schema.json", tmp_path / "q.sql"
    schema.write_text(json.dumps({"relations": relations, "fk_edges": [
        {"left": "a.k", "right": "b.k", "jsf": 0.1}]}))
    query.write_text("select a.b, count(*) from a, b where a.k = b.k group by a.b")
    code, stdout, err = run(capsys, "optimize", "--schema", str(schema), "--query", str(query))
    assert (code, err) == (0, "")
    assert "best_cost=1.56e+155" in stdout


NINE_SELECTS = ("select employee.fname from employee, works_on "
                "where employee.ssn = works_on.ssn"
                + "".join(f" and employee.salary > {k}" for k in range(5))
                + "".join(f" and works_on.hours > {k}" for k in range(4)))


def test_select_count_over_the_limit_exits_three(capsys, tmp_path):
    query = tmp_path / "q.sql"
    query.write_text(NINE_SELECTS)
    code, stdout, err = run(capsys, "optimize", "--schema", COMPANY, "--query", str(query))
    assert code == 3 and stdout == ""
    assert err.startswith("ERR:limit: select placement: 9") and len(err.splitlines()) == 1
    code, stdout, _ = run(capsys, "optimize", "--schema", COMPANY, "--query", str(query),
                          "--max-ops", "9", "--i-know-this-is-factorial")
    assert code == 0 and stdout.startswith("mode=joindag best_cost=")


def test_optimize_reads_history_without_writing(capsys, tmp_path):
    hist = tmp_path / "history.json"
    code, stdout, _ = run(capsys, "histdag", "build", "--schema", COMPANY,
                          "--out", str(hist))
    assert code == 0
    assert "version: 1" in stdout
    assert "known_joins (5):" in stdout
    before = hist.read_bytes()

    code, stdout, _ = run(capsys, "optimize", "--schema", COMPANY,
                          "--query", Q1, "--history", str(hist))
    assert code == 0 and "best_cost=57600" in stdout
    assert hist.read_bytes() == before  # optimize never persists history


def test_history_catalog_mismatch(capsys, tmp_path):
    hist = tmp_path / "history.json"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))
    code, _, err = run(capsys, "optimize", "--schema", TPCH,
                       "--query", str(FIXTURES / "tpch" / "q2.sql"),
                       "--history", str(hist))
    assert code == 2 and "fingerprint" in err

    code, _, err = run(capsys, "histdag", "show", "--schema", TPCH,
                       "--history", str(hist))
    assert code == 2 and "fingerprint" in err


def test_a_format_1_history_is_refused(capsys, tmp_path):
    # a format-1 file held the dag itself; it must be built again
    hist = tmp_path / "history.json"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))
    doc = json.loads(hist.read_text())
    doc["format"] = 1
    hist.write_text(json.dumps(doc))
    for command in (("histdag", "show", "--schema", COMPANY),
                    ("optimize", "--schema", COMPANY, "--query", Q1)):
        code, stdout, err = run(capsys, *command, "--history", str(hist))
        assert (code, stdout) == (2, "")
        assert err == f"ERR:io: unsupported history format 1 in {hist}\n"


def test_a_history_grown_past_the_default_limit_loads_at_it(capsys, tmp_path):
    """A load replays the history's builds with no limit, so a 9-join chain
    built with `--i-know-this-is-factorial` loads under every command, and
    `optimize` runs its query, whose joins the history holds, at the
    default limit."""
    relations = [{"name": f"r{i}", "cardinality": 1000 + i,
                  "attributes": [{"name": "a", "distinct": 100}]} for i in range(10)]
    schema, hist = tmp_path / "schema.json", tmp_path / "history.json"
    schema.write_text(json.dumps({"relations": relations, "fk_edges": [
        {"left": f"r{i}.a", "right": f"r{i + 1}.a", "jsf": 0.01} for i in range(9)]}))
    code, _, err = run(capsys, "histdag", "build", "--schema", str(schema),
                       "--out", str(hist))
    assert code == 3 and err.startswith("ERR:limit: join-order expansion: 9")
    code, built, _ = run(capsys, "histdag", "build", "--schema", str(schema), "--out", str(hist),
                         "--max-ops", "9", "--i-know-this-is-factorial")
    assert code == 0 and "known_joins (9):" in built
    code, shown, _ = run(capsys, "histdag", "show", "--schema", str(schema),
                         "--history", str(hist))
    assert (code, shown) == (0, built)
    dot = tmp_path / "history.dot"
    code, _, _ = run(capsys, "histdag", "export-dot", "--history", str(hist), "--dot", str(dot))
    assert code == 0 and dot.read_text().startswith("digraph")
    query = tmp_path / "q.sql"
    query.write_text("select * from " + ", ".join(f"r{i}" for i in range(10)) + " where "
                     + " and ".join(f"r{i}.a = r{i + 1}.a" for i in range(9)))
    code, stdout, err = run(capsys, "optimize", "--schema", str(schema), "--query", str(query),
                            "--history", str(hist))
    assert (code, err) == (0, "") and stdout.startswith("mode=joindag best_cost=")


def test_histdag_lifecycle(capsys, tmp_path):
    hist = tmp_path / "history.json"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))

    code, stdout, _ = run(capsys, "histdag", "show", "--schema", COMPANY,
                          "--history", str(hist))
    assert code == 0
    assert "version: 1" in stdout
    assert "employee.ssn = works_on.ssn" in stdout
    assert "eq_nodes: 29" in stdout

    # known joins only: version bumps, graph unchanged
    code, stdout, _ = run(capsys, "histdag", "add", "--schema", COMPANY,
                          "--history", str(hist), "--query", Q1)
    assert code == 0 and "version: 2" in stdout and "known_joins (5):" in stdout

    # a non-FK join grows the set
    novel = tmp_path / "novel.sql"
    novel.write_text("select * from employee, department "
                     "where employee.salary = department.dnumber")
    code, stdout, _ = run(capsys, "histdag", "add", "--schema", COMPANY,
                          "--history", str(hist), "--query", str(novel))
    assert code == 0
    assert "version: 3" in stdout
    assert "known_joins (6):" in stdout
    assert "department.dnumber = employee.salary" in stdout

    code, stdout, _ = run(capsys, "histdag", "show", "--schema", COMPANY,
                          "--history", str(hist))
    assert code == 0 and "version: 3" in stdout  # growth was persisted


@pytest.mark.parametrize("group", ["company", "tpch"])
def test_a_chain_of_histdag_adds_loads_as_it_was_built(capsys, tmp_path, group):
    """`histdag add` of each flat fixture query in turn, from an empty
    history: after each add the file loads to the dag, ids included, that
    the same builds give in memory."""
    schema = str(FIXTURES / group / "schema.json")
    catalog = load_catalog_file(schema)
    hist = tmp_path / "history.json"
    built = joindag.empty_history(catalog)
    joindag.save_history(built, str(hist))
    for sql in sorted((FIXTURES / group).glob("q*.sql")):
        query = parse_query(sql.read_text(), catalog)
        if query.subquery is not None:
            continue
        code, _, err = run(capsys, "histdag", "add", "--schema", schema,
                           "--history", str(hist), "--query", str(sql))
        assert code == 0, err
        built = joindag.build_incremental(built, extract_join_set(query), catalog)
        loaded = joindag.load_history(str(hist))
        assert memo.dag_to_doc(loaded.dag) == memo.dag_to_doc(built.dag)
        assert (loaded.batches, loaded.version) == (built.batches, built.version)
    assert len(built.batches) > 1


def test_histdag_add_rejects_nested(capsys, tmp_path):
    hist = tmp_path / "history.json"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))
    code, _, err = run(capsys, "histdag", "add", "--schema", COMPANY,
                       "--history", str(hist),
                       "--query", str(FIXTURES / "company" / "q3_nested.sql"))
    assert code == 2 and "flat queries" in err


def test_an_add_waiting_on_the_lock_grows_the_history_saved_meanwhile(capsys, tmp_path,
                                                                       monkeypatch):
    """`histdag add` holds the history's lock from its load to its save: an
    add started while another writer holds the lock grows what that writer
    saved, so neither join is lost."""
    catalog = load_catalog_file(COMPANY)
    joins = lambda sql: extract_join_set(parse_query(sql, catalog))
    start = joindag.build_complete_history(catalog, joins(
        "select * from employee, works_on where employee.ssn = works_on.ssn"))
    hist, other = tmp_path / "history.json", tmp_path / "other.json"
    joindag.save_history(start, str(hist))
    joindag.save_history(joindag.build_incremental(start, joins(
        "select * from dept_locations, department "
        "where dept_locations.dnumber = department.dnumber"), catalog), str(other))
    query = tmp_path / "add.sql"
    query.write_text("select * from employee, department "
                     "where employee.dno = department.dnumber")

    loaded = threading.Event()
    load_history = joindag.load_history

    def load_and_signal(path):
        try:
            return load_history(path)
        finally:
            loaded.set()

    monkeypatch.setattr(joindag, "load_history", load_and_signal)
    codes = []
    adder = threading.Thread(target=lambda: codes.append(main([
        "histdag", "add", "--schema", COMPANY, "--history", str(hist),
        "--query", str(query)])))
    with locked(str(hist)):
        adder.start()
        # an add that loads outside the lock has loaded by now; one that
        # waits on the lock loads only after the release
        loaded.wait(timeout=1.0)
        os.replace(other, hist)
    adder.join(timeout=60)
    assert not adder.is_alive() and codes == [0], capsys.readouterr().err
    assert set(load_history(str(hist)).known_joins) == {
        "employee.ssn = works_on.ssn", "department.dnumber = dept_locations.dnumber",
        "department.dnumber = employee.dno"}


def test_an_add_to_a_missing_history_leaves_no_lock_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "histdag", "add", "--schema", COMPANY,
                            "--history", "h.json", "--query", Q1)
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [
        "ERR:io: cannot read h.json: [Errno 2] No such file or directory: 'h.json'"]
    assert list(tmp_path.iterdir()) == []


def test_histdag_export_dot(capsys, tmp_path):
    hist = tmp_path / "history.json"
    dot = tmp_path / "history.dot"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))
    code, stdout, _ = run(capsys, "histdag", "export-dot", "--history",
                          str(hist), "--dot", str(dot))
    assert code == 0 and f"wrote {dot}" in stdout
    assert dot.read_text().startswith("digraph")


def bench_rows(capsys, tmp_path, schema, queries_dir, *extra):
    report = tmp_path / "bench.csv"
    code, stdout, err = run(capsys, "bench", "--schema", schema,
                            "--queries", queries_dir, "--report", str(report),
                            *extra)
    assert code == 0
    return report_from_csv(report.read_text()).rows, stdout, err


def test_bench_tpch_workload(capsys, tmp_path):
    rows, stdout, err = bench_rows(capsys, tmp_path, TPCH,
                                   str(FIXTURES / "tpch"))
    assert f"10 rows" in stdout
    assert "note: reference naive-time figure 6356724" in err
    assert [(r.query_id, r.mode) for r in rows] == [
        ("q1", "joindag"), ("q1", "naive"), ("q2", "joindag"), ("q2", "naive"),
        ("q3", "joindag"), ("q3", "naive"), ("q4", "joindag"), ("q4", "naive"),
        ("tq1", "joindag"), ("tq1", "naive")]
    by = {(r.query_id, r.mode): r for r in rows}
    assert by[("tq1", "naive")].status == "skipped"
    assert by[("tq1", "naive")].best_cost is None
    assert by[("tq1", "joindag")].status == "ok"
    for qid in ("q1", "q2", "q3", "q4"):
        nv, jd = by[(qid, "naive")], by[(qid, "joindag")]
        assert nv.status == jd.status == "ok"
        # both modes search the same placements, grouping below the root too
        assert jd.best_cost == nv.best_cost
    assert by[("q3", "naive")].best_cost == 8212200.0   # 8213400 grouped at the root
    assert by[("q4", "naive")].best_cost == 3211601.0   # 82811845 grouped at the root


def test_bench_company_includes_nested(capsys, tmp_path):
    rows, stdout, _ = bench_rows(capsys, tmp_path, COMPANY,
                                 str(FIXTURES / "company"))
    by = {(r.query_id, r.mode): r for r in rows}
    assert len(rows) == 6
    assert by[("q3_nested", "naive")].status == "error"
    nested = by[("q3_nested", "joindag")]
    assert nested.status == "ok"
    assert nested.best_cost == 525555.0
    assert nested.est_eq_nodes is None  # estimators cover flat queries only
    assert by[("q1", "naive")].best_cost == by[("q1", "joindag")].best_cost


def test_bench_reports_a_nested_query_as_an_error_in_naive_mode(capsys, tmp_path, monkeypatch,
                                                              caplog):
    """Naive mode refuses a nested query: its row reads error, not skipped,
    even with more operations than --max-ops, and info logging names the
    refusal."""
    queries = tmp_path / "queries"
    queries.mkdir()
    sql = (FIXTURES / "company" / "q3_nested.sql").read_text().strip()
    (queries / "nested.sql").write_text(sql + "\n  and works_on.hours > 10\n")
    monkeypatch.setenv("SPRINKLE_QO_LOG", "info")
    with caplog.at_level(logging.INFO, logger="sprinkleqo"):
        rows, _, _ = bench_rows(capsys, tmp_path, COMPANY, str(queries), "--modes", "naive",
                                "--max-ops", "1")
    assert [(r.query_id, r.status) for r in rows] == [("nested", "error")]
    assert "nested/naive: the exhaustive baseline does not support nested queries" \
        in caplog.text


def test_bench_is_deterministic_up_to_timing(capsys, tmp_path):
    import dataclasses
    rows1, _, _ = bench_rows(capsys, tmp_path, COMPANY, str(FIXTURES / "company"))
    rows2, _, _ = bench_rows(capsys, tmp_path, COMPANY, str(FIXTURES / "company"))
    strip = lambda rows: [dataclasses.replace(r, build_ms=None) for r in rows]
    assert strip(rows1) == strip(rows2)


def test_bench_empty_directory(capsys, tmp_path):
    empty = tmp_path / "queries"
    empty.mkdir()
    report = tmp_path / "out.csv"
    code, stdout, _ = run(capsys, "bench", "--schema", COMPANY,
                          "--queries", str(empty), "--report", str(report))
    assert code == 0 and "0 rows" in stdout
    assert report.read_text().splitlines() == [",".join(analytics.CSV_COLUMNS)]


def test_bench_queries_must_be_a_directory(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "--schema", COMPANY,
                       "--queries", str(tmp_path / "nope"),
                       "--report", str(tmp_path / "r.csv"))
    assert code == 2 and "not a directory" in err


def test_info_logging_reports_timing(capsys, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("SPRINKLE_QO_LOG", "info")
    with caplog.at_level(logging.INFO, logger="sprinkleqo"):
        code = main(["optimize", "--schema", COMPANY, "--query", Q1])
    capsys.readouterr()
    assert code == 0
    assert "optimized" in caplog.text
