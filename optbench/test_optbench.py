"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest optbench -q
"""

from __future__ import annotations

import json
import signal

import pytest

from sprinkleqo import catalog, costplan, naive, sqlfront

import bench
import tracer as tracer_module
import workloads


def nested_reference_cost(fixture: str) -> float:
    """Best cost of an IN-subquery fixture without the sprinkler.

    The inner block is optimized exhaustively, its result becomes a relation
    `subq1` whose cardinality is the inner estimate, and the outer block,
    joined to it by the IN link, is optimized exhaustively too.  Splicing the
    inner plan in for the `subq1` leaf adds the inner cost and nothing else.
    """
    schema_name, stem = fixture.split("/")
    cat = catalog.load_catalog_file(str(workloads.FIXTURES / schema_name / "schema.json"))
    query = sqlfront.parse_query((workloads.FIXTURES / schema_name / f"{stem}.sql").read_text(), cat)
    sub = query.subquery
    assert sub is not None and sub.form == "in"
    inner_dag = naive.build_naive_dag(sub.query, cat, limit=sub.query.n_operations(),
                                      query_id="q1")
    inner = costplan.best_plan(inner_dag, inner_dag.query_roots["q1"])
    src_rel, src_attr = sub.column_sources[sub.inner_column]
    column = catalog.Attribute(sub.inner_column,
                               cat.relation(src_rel).attribute(src_attr).distinct_count)
    synthetic = catalog.Catalog(
        relations={**cat.relations, sub.alias: catalog.Relation(sub.alias, inner.est_size, (column,))},
        graph=cat.graph, stats=cat.stats, fingerprint=cat.fingerprint)
    link = f"{sub.outer_attr[0]}.{sub.outer_attr[1]} = {sub.alias}.{sub.inner_column}"
    select_list = ", ".join(item.render() for item in query.projections)
    where = " and ".join([j.canonical() for j in query.joins]
                         + [s.canonical() for s in query.selects] + [link])
    outer_sql = f"select {select_list} from {', '.join(sorted(query.tables | {sub.alias}))} where {where}"
    outer_query = sqlfront.parse_query(outer_sql, synthetic)
    outer_dag = naive.build_naive_dag(outer_query, synthetic,
                                      limit=outer_query.n_operations(), query_id="q1")
    outer = costplan.best_plan(outer_dag, outer_dag.query_roots["q1"])
    return outer.cum_cost + inner.cum_cost


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return bench.setup(7, tmp_path_factory.mktemp("optbench"), "select_heavy")


def _texts(inputs: workloads.Inputs) -> bytes:
    doc = {"schemas": inputs.schemas,
           "streams": {w: [[i.qid, i.schema, i.mode, i.sql] for i in items]
                       for w, items in inputs.streams.items()}}
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def test_same_seed_gives_byte_identical_inputs():
    assert _texts(workloads.make_inputs(11)) == _texts(workloads.make_inputs(11))
    assert _texts(workloads.make_inputs(11)) != _texts(workloads.make_inputs(12))


def test_streams_cover_every_cell_and_fixture():
    inputs = workloads.make_inputs(3)
    select_heavy = inputs.streams["select_heavy"]
    fixtures = {f"{p.parent.name}/{p.stem}" for p in workloads.FIXTURES.glob("*/*.sql")}
    assert fixtures <= {i.qid for i in select_heavy}
    cells = {(i.schema, i.j, i.s) for i in select_heavy if i.shape == "fk"}
    assert cells == {(n, j, s) for n in workloads.FIXTURE_SCHEMAS
                     for j in workloads.SELECT_HEAVY_J for s in workloads.SELECT_HEAVY_S}
    shapes = {(i.shape, i.j, i.s) for i in inputs.streams["join_heavy"]}
    assert shapes == {(sh, j, s) for sh in workloads.JOIN_HEAVY_SHAPES
                      for j in workloads.JOIN_HEAVY_J for s in workloads.JOIN_HEAVY_S}
    naive_qids = [i.qid for i in inputs.streams["naive_baseline"]]
    flat = [i.qid for i in select_heavy + inputs.streams["join_heavy"] if not i.nested]
    assert naive_qids == flat


def test_generated_sql_parses_with_stated_sizes():
    inputs = workloads.make_inputs(5)
    cats = {n: catalog.load_catalog(t) for n, t in inputs.schemas.items()}
    grouped = 0
    for item in inputs.streams["select_heavy"] + inputs.streams["join_heavy"]:
        query = sqlfront.parse_query(item.sql, cats[item.schema])
        if item.shape != "fixture":
            assert (len(sqlfront.extract_join_set(query)), len(query.selects)) == (item.j, item.s)
        grouped += bool(query.group_by)
    assert grouped > 0


def test_stored_nested_costs_match_independent_derivation():
    stored = bench.stored_nested_costs()
    assert stored
    for fixture, cost in stored.items():
        assert bench.cost_matches(nested_reference_cost(fixture), cost)


def test_reference_check_flags_a_wrong_cost(env):
    nested_costs = bench.stored_nested_costs()
    for qid in ("tpch/tq1", "company/q1", "company/q3_nested", "tpch/q3"):
        item = next(i for i in env.inputs.streams["select_heavy"] if i.qid == qid)
        ref = bench.reference(env, item, nested_costs)
        right = bench.operate(env, item)[1].cum_cost
        assert bench.verdict(right, ref) == bench.OK
        assert bench.verdict(right * 1.001 + 1.0, ref) != bench.OK
        assert bench.verdict(None, ref) == bench.WRONG
    assert bench.verdict(99.0, bench.Reference(100.0, bench.EQUAL)) == bench.WRONG
    assert bench.verdict(99.0, bench.Reference(100.0, bench.BOUND)) == bench.OK
    assert bench.verdict(101.0, bench.Reference(100.0, bench.BOUND)) == bench.ABOVE_BASELINE
    for kind in (bench.EQUAL, bench.BOUND, bench.CORE):
        assert bench.verdict(100.0, bench.Reference(100.0, kind, core_ok=False)) == bench.WRONG
    assert bench.worst([bench.OK, bench.WRONG, bench.ABOVE_BASELINE]) == bench.WRONG
    assert bench.worst([]) == bench.OK


def test_traced_and_untraced_costs_agree_on_every_fixture(env):
    fixtures = workloads.fixture_items()
    plain = {(i.qid, m): bench.operate(env, i, m)[1].cum_cost
             for i in fixtures for m in ("warm", "cold", "naive")
             if not (m == "naive" and i.nested)}
    tracer = bench.Tracer()
    tracer.install(bench.HOOKS)
    try:
        traced = {(i.qid, m): tracer.span("bench.operation", bench.operate, env, i, m)[1].cum_cost
                  for i in fixtures for m in ("warm", "cold", "naive")
                  if not (m == "naive" and i.nested)}
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["sqlfront.parse_query"] >= len(plain)
    assert tracer.calls["costplan.op_plan"] > 0 and tracer.self_ms("memo.attach_op") > 0
    assert bench.sprinkle.op_plan is bench.costplan.op_plan  # originals restored
    spans = len(tracer.span_name)
    assert spans > 0 and all(tracer.span_end[i] >= tracer.span_start[i] for i in range(spans))
    roots = [i for i in range(spans) if tracer.span_parent[i] == -1]
    assert {tracer.names[tracer.span_name[i]] for i in roots} == {"bench.operation"}


class FakeClock:
    """Stands in for the time module; time moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_excludes_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_module, "time", clock)
    tracer = bench.Tracer()

    def child():
        clock.now += 0.020

    def parent():
        clock.now += 0.010
        tracer.span("child", child)
        clock.now += 0.005

    tracer.span("parent", parent)
    assert tracer.self_ms("parent") == pytest.approx(15.0)
    assert tracer.self_ms("child") == pytest.approx(20.0)
    assert tracer.span_parent[1] == 0
    assert (tracer.span_start[0], tracer.span_end[0]) == (0.0, pytest.approx(0.035))


def test_timed_scales_to_reference_speed(monkeypatch):
    monkeypatch.setattr(bench, "probe", lambda: 2.0 * bench.SPEED_PROBE_S)
    handler = signal.getsignal(signal.SIGALRM)
    for sample in (True, False):
        result, wall, scaled = bench.timed(lambda: sum(range(100_000)), sample=sample)
        assert result == 4_999_950_000
        assert wall > 0 and scaled == pytest.approx(wall / 2.0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler
