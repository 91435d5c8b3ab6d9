"""Closed-form estimators and the metrics report format."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sprinkleqo import analytics
from sprinkleqo.analytics import (MetricsReport, MetricsRow, andor_eqnodes_after_selects,
                                  andor_plans_after_selects, collect_metrics,
                                  complexity_params_for, failure_row, format_count,
                                  joindag_eqnodes_after_selects,
                                  joindag_time_complexity, measured_row,
                                  naive_time_complexity, report_to_csv)
from sprinkleqo.errors import ValidationError
from sprinkleqo.sqlfront import parse_query

from conftest import fixture_sql, parse_count, report_from_csv

small_ints = st.integers(min_value=0, max_value=12)


# -- closed forms --------------------------------------------------------------

def test_reference_time_values():
    assert joindag_time_complexity(4, 3) == 2713
    assert joindag_time_complexity(2, 2) == 18
    assert joindag_time_complexity(5, 1) == Fraction(182917, 2)
    assert format_count(joindag_time_complexity(5, 1)) == "91458.5"
    assert joindag_time_complexity(6, 3) == 4685751
    assert naive_time_complexity(6) == 4672782
    assert naive_time_complexity(7) == Fraction(622472711, 2)
    assert naive_time_complexity(0) == 1
    assert joindag_time_complexity(0, 0) == 1


def test_closed_forms_are_fast():
    start = time.perf_counter()
    for _ in range(1000):
        joindag_time_complexity(4, 3)
        naive_time_complexity(7)
    assert time.perf_counter() - start < 1.0


@given(small_ints)
def test_naive_time_against_independent_rational_form(n):
    f = math.factorial(n)
    # n! + n^2/2 * ((n!(n!+1)/2) - 1) == n! + n^2 (n!^2 + n! - 2) / 4
    assert naive_time_complexity(n) == f + Fraction(n * n * (f * f + f - 2), 4)


@given(small_ints, small_ints)
def test_joindag_time_against_independent_rational_form(j, s):
    f = math.factorial(j)
    expected = f + Fraction(j * j * (f * f + f - 2), 4) + s * s + j * s * f
    assert joindag_time_complexity(j, s) == expected


@given(st.integers(min_value=1, max_value=11))
def test_naive_time_never_shrinks(n):
    # n=0 and n=1 both cost 1 (nothing to merge); strict growth starts at n=2
    assert naive_time_complexity(n) >= naive_time_complexity(n - 1)
    if n >= 2:
        assert naive_time_complexity(n) > naive_time_complexity(n - 1)


@given(st.integers(min_value=2, max_value=9), small_ints)
def test_joindag_time_grows_in_both_arguments(j, s):
    assert joindag_time_complexity(j, s) > joindag_time_complexity(j - 1, s)
    assert joindag_time_complexity(j, s + 1) > joindag_time_complexity(j, s)


def test_negative_arguments_rejected():
    for call in (lambda: naive_time_complexity(-1),
                 lambda: joindag_time_complexity(-1, 0),
                 lambda: joindag_time_complexity(0, -2),
                 lambda: andor_plans_after_selects(1, -1, 0),
                 lambda: andor_eqnodes_after_selects(-1, 1, 1, 1),
                 lambda: joindag_eqnodes_after_selects(1, 1, -3)):
        with pytest.raises(ValidationError):
            call()


# -- growth laws ---------------------------------------------------------------

@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=6))
def test_plan_growth_multiplies_by_rising_positions(p, n, q):
    assert andor_plans_after_selects(p, n, 0) == p
    grown = andor_plans_after_selects(p, n, q)
    assert andor_plans_after_selects(p, n, q + 1) == grown * (n + q)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=6))
def test_eqnode_growth_sums_per_select_plan_counts(n_eq, p, n, q):
    expected = n_eq
    for k in range(1, q + 1):
        expected += p * math.prod(n + i for i in range(k))
    assert andor_eqnodes_after_selects(n_eq, p, n, q) == expected
    assert joindag_eqnodes_after_selects(n_eq, p, q) == n_eq + q * p


def test_growth_examples_company_q1_shape():
    # p=2 plans over n=4 conditions, q=2 selects sprinkled in
    assert andor_plans_after_selects(2, 4, 2) == 40
    assert andor_eqnodes_after_selects(6, 2, 4, 2) == 6 + 8 + 40
    assert joindag_eqnodes_after_selects(6, 2, 2) == 10


def test_discrepancy_note_names_both_figures():
    note = analytics.formula_discrepancy_note()
    assert "6356724" in note
    assert "311236355.5" in note


# -- per-query parameters --------------------------------------------------------

def test_complexity_params_for_company_q1(company_catalog):
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    params = complexity_params_for(q, company_catalog)
    assert (params.n, params.j, params.s) == (4, 2, 2)
    assert (params.p, params.q, params.n_eq) == (2, 2, 6)


def test_complexity_params_reject_nested(company_catalog):
    q = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    with pytest.raises(ValidationError):
        complexity_params_for(q, company_catalog)


def test_measured_rows_pick_the_right_estimators(company_catalog):
    from sprinkleqo import naive, sprinkle
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    params = complexity_params_for(q, company_catalog)

    res = sprinkle.optimize_single(q, company_catalog)
    jd_row = measured_row("q1", "joindag", res.dag, 1.0, res.plan.cum_cost, params)
    assert jd_row.est_eq_nodes == 10
    assert jd_row.est_plans == 2
    assert jd_row.est_time_complexity == 18
    assert jd_row.best_cost == 57600.0

    ndag = naive.build_naive_dag(q, company_catalog)
    nv_row = measured_row("q1", "naive", ndag, 1.0, 57600.0, params)
    assert nv_row.est_eq_nodes == 54
    assert nv_row.est_plans == 40
    assert nv_row.est_time_complexity == 2416
    assert (nv_row.eq_nodes, nv_row.op_nodes, nv_row.plans) == (16, 26, 18)
    # the naive expansion stays within its own bounds
    assert nv_row.eq_nodes <= nv_row.est_eq_nodes
    assert nv_row.plans <= nv_row.est_plans


# -- report format ---------------------------------------------------------------

def test_format_count_cases():
    assert format_count(None) == ""
    assert format_count(5) == "5"
    assert format_count(Fraction(10)) == "10"
    assert format_count(Fraction(7, 2)) == "3.5"
    assert format_count(Fraction(1, 3)) == "1/3"
    assert parse_count("") is None
    assert parse_count("3.5") == Fraction(7, 2)
    assert parse_count("1/3") == Fraction(1, 3)


def sample_rows():
    return [
        MetricsRow("q2", "naive", 16, 26, 18, 12.5, 57600.0, 54, 40,
                   Fraction(2416), "ok"),
        MetricsRow("q1", "joindag", 8, 5, 1, 0.125, 0.30000000000000004, 10, 2,
                   Fraction(182917, 2), "ok"),
        failure_row("q3", "naive", "skipped"),
        failure_row("q4", "joindag", "error"),
    ]


def test_collect_metrics_sorts_and_notes():
    report = collect_metrics(sample_rows())
    assert [(r.query_id, r.mode) for r in report.rows] == [
        ("q1", "joindag"), ("q2", "naive"), ("q3", "naive"), ("q4", "joindag")]
    assert report.notes == [analytics.formula_discrepancy_note()]


def test_csv_round_trip():
    report = collect_metrics(sample_rows())
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == ("query_id,mode,eq_nodes,op_nodes,plans,build_ms,"
                        "best_cost,est_eq_nodes,est_plans,est_time_complexity,"
                        "status")
    assert len(lines) == 5
    back = report_from_csv(text)
    assert back.rows == report.rows
    assert back.notes == []  # notes live beside the CSV, not in it


def test_csv_failure_rows_stay_blank():
    text = report_to_csv(MetricsReport(rows=[failure_row("q9", "naive", "skipped")]))
    assert "q9,naive,,,,,,,,,skipped" in text


def test_csv_header_and_shape_enforced():
    with pytest.raises(ValidationError, match="header"):
        report_from_csv("a,b,c\n1,2,3\n")
    good = report_to_csv(MetricsReport(rows=sample_rows()))
    broken = good + "q5,naive,1\n"
    with pytest.raises(ValidationError, match="fields"):
        report_from_csv(broken)


status_text = st.sampled_from(["ok", "skipped", "error"])
maybe_int = st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 12))
maybe_frac = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=10 ** 9).map(Fraction),
    st.integers(min_value=1, max_value=10 ** 9).map(lambda k: Fraction(2 * k + 1, 2)))


@given(st.lists(st.tuples(st.sampled_from(["q1", "q2", "q3"]),
                          st.sampled_from(["naive", "joindag"]),
                          maybe_int, maybe_frac, status_text),
                max_size=6))
def test_csv_round_trip_property(specs):
    rows = [MetricsRow(qid, mode, v, None if v is None else v + 1,
                       None if v is None else 2 * v,
                       None if v is None else float(v % 97) / 8.0,
                       None if v is None else float(v) * 0.5,
                       v, v, frac, status)
            for qid, mode, v, frac, status in specs]
    report = MetricsReport(rows=rows)
    assert report_from_csv(report_to_csv(report)).rows == rows
