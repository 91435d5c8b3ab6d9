"""Command-line behavior: artifacts, exit codes, bench reports, histories."""

import json
import logging
import sys

import pytest

from sprinkleqo import analytics, cli, costplan, joindag, memo
from sprinkleqo.catalog import load_catalog_file
from sprinkleqo.cli import main
from sprinkleqo.memo import KIND_SELECT

from conftest import FIXTURES

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

    parsed = analytics.report_from_csv(report.read_text())
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


def test_validation_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.sql"
    bad.write_text("select * from employee where nowhere.x > 1")
    code, _, err = run(capsys, "optimize", "--schema", COMPANY,
                       "--query", str(bad))
    assert code == 2 and err.startswith("ERR:")


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


def hang_an_op_under_its_child(doc):
    arc = doc["arcs"]["eq_to_op"][-1]
    op = next(o for o in doc["op_nodes"] if o["id"] == arc[1])
    arc[0] = op["children"][0]


def add_a_select_to_a_join_class(doc):
    node = next(n for n in doc["eq_nodes"] if n["signature"][1])
    node["signature"][2].append("employee.salary > 1")


def double_the_size_of_the_root(doc):
    (root,) = doc["roots"].values()
    node = next(n for n in doc["eq_nodes"] if n["id"] == root)
    node["est_size"] *= 2


def repoint_the_root(doc):
    (name, root), = doc["roots"].items()
    doc["roots"][name] = min(n["id"] for n in doc["eq_nodes"] if n["id"] != root)


SHOW = ("histdag", "show", "--schema", COMPANY)
OPTIMIZE = ("optimize", "--schema", COMPANY, "--query", Q1)


@pytest.mark.parametrize("edit, command, err_code", [
    (hang_an_op_under_its_child, SHOW, "validation"),
    (lambda doc: doc["eq_nodes"][-1].update(est_size=float("inf")), OPTIMIZE, "validation"),
    (add_a_select_to_a_join_class, SHOW, "validation"),
    (lambda doc: doc["arcs"]["eq_to_op"].pop(), SHOW, "validation"),
    (double_the_size_of_the_root, OPTIMIZE, "validation"),
    (lambda doc: doc["op_nodes"][-1].update(op_cost=2 * doc["op_nodes"][-1]["op_cost"]),
     OPTIMIZE, "validation"),
    (repoint_the_root, SHOW, "io"),
], ids=["cyclic-arc", "infinite-size", "signature-not-derived", "orphan-op",
        "size-disagrees", "cost-disagrees", "root-repointed"])
def test_malformed_history_is_one_error_line(capsys, tmp_path, edit, command, err_code):
    hist = tmp_path / "history.json"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))
    doc = json.loads(hist.read_text())
    edit(doc["dag"])
    doc["checksum"] = joindag._checksum({k: v for k, v in doc.items()
                                         if k != "checksum"})
    hist.write_text(json.dumps(doc))
    code, _, err = run(capsys, *command, "--history", str(hist))
    assert code == 2
    assert err.startswith(f"ERR:{err_code}:") and len(err.splitlines()) == 1


def test_histdag_show_counts_a_history_deeper_than_the_stack(capsys, tmp_path):
    # a select chain longer than the recursion limit, saved the normal way
    catalog = load_catalog_file(COMPANY)
    history = joindag.empty_history(catalog)
    eq = memo.ensure_base(history.dag, "employee", 1000.0)
    depth = sys.getrecursionlimit() + 200
    for i in range(depth):
        eq = costplan.intern_op(history.dag, KIND_SELECT, f"s{i}", (eq,), 1.0)
    hist = tmp_path / "history.json"
    joindag.save_history(history, str(hist))
    code, stdout, _ = run(capsys, "histdag", "show", "--schema", COMPANY,
                          "--history", str(hist))
    assert code == 0
    assert f"eq_nodes: {depth + 1}" in stdout
    assert f"op_nodes: {depth}" in stdout
    assert "plans: 1" in stdout


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


def test_histdag_add_rejects_nested(capsys, tmp_path):
    hist = tmp_path / "history.json"
    run(capsys, "histdag", "build", "--schema", COMPANY, "--out", str(hist))
    code, _, err = run(capsys, "histdag", "add", "--schema", COMPANY,
                       "--history", str(hist),
                       "--query", str(FIXTURES / "company" / "q3_nested.sql"))
    assert code == 2 and "flat queries" in err


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
    return analytics.report_from_csv(report.read_text()).rows, stdout, err


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
        assert jd.best_cost <= nv.best_cost
    # equal where no grouping can move, strictly better where it can
    assert by[("q2", "joindag")].best_cost == by[("q2", "naive")].best_cost
    assert by[("q3", "joindag")].best_cost < by[("q3", "naive")].best_cost


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
