"""SQL subset parsing, validation, canonical texts, and render round-trips."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from sprinkleqo import sqlfront
from sprinkleqo.errors import ParseError, ValidationError
from sprinkleqo.sqlfront import (all_query_attrs, extract_join_set,
                                 output_attrs, parse_query, render_query)

from conftest import chain_catalog, fixture_sql, make_catalog


def test_company_q1_structure(company_catalog):
    q = parse_query(fixture_sql("company", "q1"), company_catalog)
    assert sorted(q.tables) == ["employee", "project", "works_on"]
    assert [j.canonical() for j in q.joins] == [
        "employee.ssn = works_on.ssn",
        "project.pnumber = works_on.pno",
    ]
    assert [s.canonical() for s in q.selects] == [
        "project.plocation = 'hyderabad'",
        "works_on.hours > 30",
    ]
    # default ssf applies to both predicates
    assert [s.ssf for s in q.selects] == [0.1, 0.1]
    # fk edge jsf values resolved from the catalog
    assert {j.canonical(): j.jsf for j in q.joins} == {
        "employee.ssn = works_on.ssn": 0.001,
        "project.pnumber = works_on.pno": 0.02,
    }
    assert q.n_operations() == 4


def test_stats_override_reaches_select_condition(company_catalog):
    q = parse_query(fixture_sql("company", "q2"), company_catalog)
    by_text = {s.canonical(): s.ssf for s in q.selects}
    assert by_text["employee.salary > 50000"] == 0.2


def test_duplicate_conditions_dedupe(company_catalog):
    sql = ("select employee.fname from employee, works_on "
           "where employee.ssn = works_on.ssn and works_on.ssn = employee.ssn "
           "and works_on.hours > 30 and works_on.hours > 30")
    q = parse_query(sql, company_catalog)
    assert len(q.joins) == 1
    assert len(q.selects) == 1


def test_or_rejected(company_catalog):
    with pytest.raises(ParseError, match="OR"):
        parse_query("select fname from employee where salary > 1 or salary > 2",
                    company_catalog)


def test_attributes_named_or_and_and_are_names(company_catalog):
    # a qualified name is one token, so neither word reads as a keyword there
    catalog = make_catalog([{"name": "t", "cardinality": 100.0, "attributes": [
        {"name": n, "distinct": 10} for n in ("k", "or", "and")]}], [])
    q = parse_query("select * from t where t.or = 1", catalog)
    assert [c.canonical() for c in q.selects] == ["t.or = 1"]
    q = parse_query("select t.and from t where t.and = 1 and t.k > 2", catalog)
    assert [c.canonical() for c in q.selects] == ["t.and = 1", "t.k > 2"]
    with pytest.raises(ParseError, match="OR"):
        parse_query("select * from t where t.or = 1 or t.k = 2", catalog)


def test_clause_order_enforced(company_catalog):
    with pytest.raises(ParseError, match="out of order"):
        parse_query("select fname from employee order by fname group by fname",
                    company_catalog)


@pytest.mark.parametrize("sql, selects", [
    ("select t.k from t where t.valid_from > 3", ["t.valid_from > 3"]),
    ("select t.k from t where t.is_select = 1", ["t.is_select = 1"]),
    ("select t.from_date, t.having_n from t where t.having_n < 2 and t.k > 1",
     ["t.having_n < 2", "t.k > 1"]),
    ("select t.k from t where t.where_ = 5 order by t.is_select",
     ["t.where_ = 5"]),
])
def test_clause_keywords_are_whole_words(sql, selects):
    names = ["k", "valid_from", "is_select", "from_date", "having_n", "where_"]
    catalog = make_catalog([{"name": "t", "cardinality": 100.0,
                             "attributes": [{"name": n, "distinct": 10} for n in names]}], [])
    q = parse_query(sql, catalog)
    assert sorted(q.tables) == ["t"]
    assert [c.canonical() for c in q.selects] == selects


def test_empty_clauses_rejected(company_catalog):
    with pytest.raises(ParseError, match="empty select list"):
        parse_query("select from employee", company_catalog)
    with pytest.raises(ParseError, match="empty FROM"):
        parse_query("select * from", company_catalog)
    # an empty clause or list item is an error, not a clause left out
    for clause in ("where", "group by", "order by"):
        with pytest.raises(ParseError, match=f"empty {clause.upper()} clause"):
            parse_query(f"select * from employee {clause}", company_catalog)
    for sql, what in [("select employee.ssn, from employee", "select list"),
                      ("select * from employee,", "FROM clause"),
                      ("select * from employee order by employee.salary,", "ORDER BY clause"),
                      ("select employee.dno, employee.ssn, count(*) from employee "
                       "group by employee.dno, , employee.ssn", "GROUP BY clause"),
                      # `and` splits WHERE as a whole word, spaces or not
                      ("select * from employee where employee.dno = 1 and", "WHERE clause"),
                      ("select * from employee where and employee.dno = 1", "WHERE clause"),
                      ("select * from employee where employee.dno = 1 and and "
                       "employee.ssn > 2", "WHERE clause")]:
        with pytest.raises(ParseError, match=f"empty item in {what}"):
            parse_query(sql, company_catalog)


def test_an_unknown_attribute_on_the_right_is_named(company_catalog):
    # text shaped like an attribute never parses as a literal, so the
    # resolver's own error stands
    with pytest.raises(ValidationError, match="unknown attribute department.nosuch"):
        parse_query("select * from employee, department "
                    "where employee.dno = department.nosuch", company_catalog)
    with pytest.raises(ValidationError, match="unknown attribute 'nosuch'"):
        parse_query("select * from employee where employee.dno = nosuch", company_catalog)
    with pytest.raises(ValidationError, match="'project' is not in the FROM clause"):
        parse_query("select * from employee where employee.dno = project.dnum",
                    company_catalog)


def test_unknown_relation_and_attribute(company_catalog):
    with pytest.raises(ValidationError, match="unknown relation"):
        parse_query("select x from nope", company_catalog)
    with pytest.raises(ValidationError, match="unknown attribute"):
        parse_query("select employee.wage from employee", company_catalog)


def test_ambiguous_bare_attribute(company_catalog):
    # both employee and works_on expose ssn
    with pytest.raises(ValidationError, match="ambiguous"):
        parse_query("select ssn from employee, works_on "
                    "where employee.ssn = works_on.ssn", company_catalog)


def test_cross_product_rejected(company_catalog):
    with pytest.raises(ValidationError, match="disconnected"):
        parse_query("select employee.fname from employee, project",
                    company_catalog)


def test_same_relation_predicate_rejected(company_catalog):
    with pytest.raises(ParseError, match="one relation"):
        parse_query("select fname from employee where employee.ssn = employee.dno",
                    company_catalog)


def test_join_requires_equality(company_catalog):
    with pytest.raises(ParseError, match="'='"):
        parse_query("select employee.fname from employee, works_on "
                    "where employee.ssn > works_on.ssn", company_catalog)


def test_group_having_order_parse(tpch_catalog):
    q = parse_query(fixture_sql("tpch", "q3"), tpch_catalog)
    assert q.group_by == (("orders", "orderkey"),)
    assert q.having is None
    assert [(o.relation, o.attribute, o.descending) for o in q.order_by] == [
        ("orders", "orderkey", False)]
    aggs = [p for p in q.projections if p.kind == "aggregate"]
    assert [(a.func, a.relation, a.attribute) for a in aggs] == [
        ("sum", "lineitem", "extendedprice")]


def test_having_requires_group_by(company_catalog):
    with pytest.raises(ParseError, match="GROUP BY"):
        parse_query("select fname from employee having count(*) > 2",
                    company_catalog)


def test_having_parses_with_ssf(company_catalog):
    q = parse_query("select dno, count(*) from employee group by dno "
                    "having count(*) > 5", company_catalog)
    assert q.having is not None
    assert q.having.func == "count"
    assert q.having.ssf == 0.1


def test_grouped_query_rejects_bare_columns(company_catalog):
    with pytest.raises(ValidationError, match="GROUP BY"):
        parse_query("select fname, count(*) from employee group by dno",
                    company_catalog)


@pytest.mark.parametrize("sql", [
    "select employee.dno from employee group by employee.dno order by employee.fname",
    "select v.dno from (select employee.dno from employee group by employee.dno "
    "order by employee.fname) v",
], ids=["outer", "from-subquery"])
def test_grouped_block_orders_only_by_its_grouping_keys(company_catalog, sql):
    # grouping removes every other column, so a grouped block's ORDER BY
    # names a grouping key, as its select list does; any block is checked
    with pytest.raises(ValidationError,
                       match=r"^ORDER BY employee\.fname must appear in GROUP BY$"):
        parse_query(sql, company_catalog)
    q = parse_query(sql.replace("order by employee.fname", "order by employee.dno desc"),
                    company_catalog)
    block = q.subquery.query if q.subquery is not None else q
    assert [(i.relation, i.attribute, i.descending) for i in block.order_by] == \
        [("employee", "dno", True)]


def test_literal_forms(company_catalog):
    q = parse_query("select fname from employee where salary > 10.5 "
                    "and lname = 'smith' and dno <> 3", company_catalog)
    literals = {s.operator: s.literal for s in q.selects}
    assert literals == {">": 10.5, "=": "smith", "<>": 3}


def test_date_literal(tpch_catalog):
    q = parse_query("select orderkey from orders "
                    "where orderdate < date '1995-03-15'", tpch_catalog)
    assert q.selects[0].literal == "1995-03-15"
    assert q.selects[0].canonical() == "orders.orderdate < '1995-03-15'"


def test_in_subquery_fields(company_catalog):
    q = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    sub = q.subquery
    assert sub.form == "in"
    assert sub.alias == "subq1"
    assert sub.outer_attr == ("works_on", "pno")
    assert sub.inner_column == "pnumber"
    assert sub.link_jsf == pytest.approx(1.0 / 50)
    assert sub.column_sources == {"pnumber": ("project", "pnumber")}
    # the synthetic link join is not part of the flat join list
    assert [j.canonical() for j in q.joins] == ["employee.ssn = works_on.ssn"]


def test_from_subquery_alias_usable_in_joins(company_catalog):
    sql = ("select employee.fname from employee, "
           "(select ssn, hours from works_on where hours > 30) busy "
           "where employee.ssn = busy.ssn")
    q = parse_query(sql, company_catalog)
    assert q.subquery.form == "from"
    assert "busy" in q.tables
    assert [j.canonical() for j in q.joins] == ["busy.ssn = employee.ssn"]
    # jsf falls back to distinct counts through the alias
    assert q.joins[0].jsf == pytest.approx(1.0 / 1000)


SHADOWING = ("select employee.pno from (select works_on.ssn, works_on.pno from works_on) "
             "employee, project where employee.pno = project.pnumber")


def test_an_alias_naming_a_catalog_relation_is_read_as_its_view(company_catalog):
    # `employee` is the view: its pno has works_on.pno's 50 distinct values
    q = parse_query(SHADOWING, company_catalog)
    assert [(j.canonical(), j.jsf) for j in q.joins] == [
        ("employee.pno = project.pnumber", 1.0 / max(50, 50))]
    with pytest.raises(ValidationError, match="unknown attribute employee.fname"):
        parse_query(SHADOWING.replace("select employee.pno", "select employee.fname"),
                    company_catalog)


def test_all_query_attrs_lists_a_shadowing_view_s_columns(company_catalog):
    q = parse_query("select * from (select works_on.ssn, works_on.pno from works_on) employee, "
                    "works_on where employee.ssn = works_on.ssn", company_catalog)
    assert all_query_attrs(q, company_catalog) == {
        "employee.pno", "employee.ssn", "works_on.hours", "works_on.pno", "works_on.ssn"}


def test_a_join_on_a_shadowing_alias_takes_no_fk_edge_of_the_relation_it_shadows():
    # the edge a.x = b.x is 0.5, not the default 1/max(10, 20); the view `a`
    # over c has no FK edges, so its join with b takes 1/max(40, 20)
    catalog = make_catalog(
        [{"name": n, "cardinality": 100.0, "attributes": [{"name": "x", "distinct": d}]}
         for n, d in (("a", 10), ("b", 20), ("c", 40))],
        [{"left": "a.x", "right": "b.x", "jsf": 0.5}])
    flat = parse_query("select * from a, b where a.x = b.x", catalog)
    assert flat.joins[0].jsf == 0.5
    q = parse_query("select * from (select c.x from c) a, b where a.x = b.x", catalog)
    assert [(j.canonical(), j.jsf) for j in q.joins] == [("a.x = b.x", 1.0 / 40)]


def test_an_in_subquery_beside_a_from_relation_named_subq1_is_rejected():
    # the IN subquery's view is `subq1`: it would replace the real relation
    # in the outer block, whose plan would then never read it
    catalog = make_catalog(
        [{"name": "subq1", "cardinality": 100.0, "attributes": [{"name": "x", "distinct": 10}]},
         {"name": "t", "cardinality": 100.0, "attributes": [{"name": "x", "distinct": 10},
                                                           {"name": "y", "distinct": 10}]}],
        [])
    sql = "select * from subq1, t where subq1.x = t.x and t.y in (select t.y from t)"
    with pytest.raises(ValidationError, match="FROM relation 'subq1' has the name of the IN"):
        parse_query(sql, catalog)
    # the relation read in the subquery alone, or with no IN, is still a relation
    assert parse_query("select * from t where t.x in (select subq1.x from subq1)",
                       catalog).subquery.query.tables == {"subq1"}
    assert parse_query("select * from subq1, t where subq1.x = t.x", catalog).tables == {
        "subq1", "t"}


def test_subquery_depth_limited(company_catalog):
    sql = ("select employee.fname from employee where employee.ssn in "
           "(select ssn from works_on where works_on.pno in "
           "(select pnumber from project))")
    with pytest.raises(ParseError, match="one level"):
        parse_query(sql, company_catalog)


def test_correlated_subquery_rejected(company_catalog):
    sql = ("select employee.fname from employee where employee.ssn in "
           "(select ssn from works_on where works_on.ssn = employee.ssn)")
    with pytest.raises(ParseError, match="correlated"):
        parse_query(sql, company_catalog)


def test_select_star(company_catalog):
    q = parse_query("select * from employee", company_catalog)
    assert q.projections == ()
    attrs = output_attrs(q, company_catalog)
    assert attrs == all_query_attrs(q, company_catalog)
    assert "employee.super_ssn" not in attrs  # schema has no such column
    assert "employee.salary" in attrs


def test_output_attrs_cover_all_clauses(tpch_catalog):
    q = parse_query(fixture_sql("tpch", "q3"), tpch_catalog)
    assert output_attrs(q, tpch_catalog) == {
        "orders.orderkey", "lineitem.extendedprice"}


def test_output_attrs_keep_a_having_argument(company_catalog):
    q = parse_query("select works_on.pno, count(*) from works_on group by works_on.pno "
                    "having sum(works_on.hours) > 10", company_catalog)
    assert output_attrs(q, company_catalog) == {"works_on.pno", "works_on.hours"}


def test_render_parse_fixed_point_on_fixtures(company_catalog, tpch_catalog):
    cases = [("company", "q1", company_catalog),
             ("company", "q2", company_catalog),
             ("company", "q3_nested", company_catalog),
             ("tpch", "q1", tpch_catalog),
             ("tpch", "q3", tpch_catalog),
             ("tpch", "q4", tpch_catalog),
             ("tpch", "tq1", tpch_catalog)]
    for group, name, catalog in cases:
        q = parse_query(fixture_sql(group, name), catalog)
        rendered = render_query(q)
        assert parse_query(rendered, catalog) == q, f"{group}/{name}"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_parse_fixed_point_random_chain(data):
    n_joins = data.draw(st.integers(0, 3), label="joins")
    catalog = chain_catalog(n_joins)
    conds = [f"r{i}.a0 = r{i + 1}.a1" for i in range(n_joins)]
    n_sel = data.draw(st.integers(0, 2), label="selects")
    for k in range(n_sel):
        rel = data.draw(st.integers(0, n_joins), label=f"rel{k}")
        lit = data.draw(st.integers(0, 99), label=f"lit{k}")
        op = data.draw(st.sampled_from([">", "<", "=", ">=", "<=", "<>"]),
                       label=f"op{k}")
        conds.append(f"r{rel}.b {op} {lit}")
    sql = f"select r0.a0 from {', '.join(f'r{i}' for i in range(n_joins + 1))}"
    if conds:
        sql += " where " + " and ".join(conds)
    q = parse_query(sql, catalog)
    assert parse_query(render_query(q), catalog) == q


def test_extract_join_set_excludes_subquery_link(company_catalog):
    q = parse_query(fixture_sql("company", "q3_nested"), company_catalog)
    assert [j.canonical() for j in extract_join_set(q)] == \
        ["employee.ssn = works_on.ssn"]


# -- the token pass against character-by-character scans --

def reference_top_level(text: str):
    """Yield each index of `text` at paren depth zero outside quotes (the
    parentheses and quotes themselves excluded); raise on unbalanced text
    once the scan completes."""
    depth = 0
    in_quote = False
    for i, ch in enumerate(text):
        if in_quote:
            in_quote = ch != "'"
        elif ch == "'":
            in_quote = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        elif depth == 0:
            yield i
    if in_quote:
        raise ParseError("unterminated string literal")
    if depth != 0:
        raise ParseError("unbalanced parentheses")


def reference_split_top_level(text: str, separator: str) -> list[str]:
    """Split on a separator token at paren depth zero, outside quotes; a
    word separator (`and`) only where no identifier, digit or qualifying
    dot touches it."""
    def touches(i: int) -> bool:
        return separator.isalpha() and 0 <= i < len(text) and text[i] in WORD_CHARS

    parts: list[str] = []
    start = 0
    for i in reference_top_level(text):
        if i >= start and text.startswith(separator, i) \
                and not touches(i - 1) and not touches(i + len(separator)):
            parts.append(text[start:i].strip())
            start = i + len(separator)
    parts.append(text[start:].strip())
    return [p for p in parts if p]


_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">")


def reference_split_condition(text: str) -> tuple[str, str, str]:
    for i in reference_top_level(text):
        for op in _OPERATORS:
            if text.startswith(op, i):
                return text[:i].strip(), ("<>" if op == "!=" else op), text[i + len(op):].strip()
    raise ParseError(f"no comparison operator in condition {text!r}")


def reference_has_or(text: str) -> bool:
    """Whether `or` stands as a whole word outside quoted literals, quotes
    paired left to right."""
    return re.search(r"(?<![a-z0-9_.])or(?![a-z0-9_.])",
                     re.sub(r"'[^']*'", "''", text)) is not None


def outcome(fn, *args):
    """fn's result, or the message of the ParseError it raised."""
    try:
        return fn(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


scanner_texts = st.lists(st.sampled_from(
    ["'", "(", ")", ",", "=", "<", ">", "!", "and", "or", " and ", "a", "x", " ", "\0",
     ".", "1"]),
    max_size=24).map("".join)
WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_.")


@settings(max_examples=400, deadline=None)
@given(scanner_texts)
def test_the_token_pass_cuts_as_the_reference_scans(text):
    # Scanned after a clause keyword, `text` is that clause's items: split
    # on `,` in a select list and on `and` in WHERE, and whole in HAVING,
    # cut at its first operator.  The alphabet forms no clause keyword.
    expected = outcome(lambda: list(reference_top_level(text)))
    if reference_has_or(text):
        expected = "ParseError: OR is not supported; WHERE must be a conjunction"
    if isinstance(expected, str):
        for keyword in ("select", "where", "having"):
            assert outcome(sqlfront._scan, f"{keyword} {text}") == expected
        return
    for keyword, separator in (("select", ","), ("where", "and")):
        [(start, found, items)] = sqlfront._scan(f"{keyword} {text}")
        assert (start, found) == (0, keyword)
        assert [part for part, _ in items if part] == \
            reference_split_top_level(text, separator)
    [(_, _, [item])] = sqlfront._scan(f"having {text}")
    assert item[0] == text.strip()
    assert outcome(sqlfront._cut, *item) == outcome(reference_split_condition, text.strip())


@settings(max_examples=200, deadline=None)
@given(scanner_texts)
def test_items_cut_in_one_pass_are_cut_as_if_alone(text):
    # parse_query scans each statement once and takes every condition's cut
    # from that pass, which is the cut of the condition scanned on its own
    try:
        [(_, _, items)] = sqlfront._scan(f"where {text}")
    except ParseError:
        return
    for item in items:
        assert sqlfront._scan(f"having {item[0]}")[0][2] == [item]


def test_parse_query_scans_each_statement_once(company_catalog, monkeypatch):
    scanned = []
    scan = sqlfront._scan

    def recording_scan(text):
        scanned.append(text)
        return scan(text)

    monkeypatch.setattr(sqlfront, "_scan", recording_scan)
    sql = ("select employee.dno, count(employee.ssn) from employee, works_on "
           "where employee.ssn = works_on.ssn and works_on.hours > 30 "
           "and works_on.pno in (select pnumber from project where plocation = 'hyderabad') "
           "group by employee.dno having count(employee.ssn) > 2 order by employee.dno")
    parse_query(sql, company_catalog)
    assert scanned == [sql, "select pnumber from project where plocation = 'hyderabad'"]
