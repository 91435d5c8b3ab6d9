"""Parser for the supported SQL subset.

Supported shape::

    SELECT item [, item ...]
    FROM relation [, relation ...] | (subquery) alias
    [WHERE cond [AND cond ...]]
    [GROUP BY attr [, attr ...]]
    [HAVING agg(attr) op literal]
    [ORDER BY attr [ASC|DESC] [, ...]]

where ``item`` is ``*``, an attribute, or ``agg(attr)`` with agg in
sum/avg/count/min/max; ``cond`` is ``attr = attr`` (a join), ``attr op
literal`` (a select, op in = < > <= >= <>), or ``attr IN (subquery)``.
Disjunction is not supported.  Identifiers and literals are lowercased and
every condition gets a canonical single-spaced text form; that text is the
key for selectivity overrides and memo signatures.  Date literals are kept
as ISO-8601 strings and compare lexically.

One level of uncorrelated IN- or FROM-subquery is allowed.  Cross products
are rejected: the join conditions (plus a subquery link) must connect every
FROM relation.

A subquery's result is a view relation (`catalog.view_relation`).  A FROM
alias is a relation of the outer block, in place of any catalog relation of
its name: its columns carry their sources' distinct counts, it has no FK
edges, and its cardinality is the inner plan's size.  Joins, the IN link to
the view `subq1` among them, are priced by `catalog.resolve_jsf` over the
catalog with the view.  An IN subquery's view is always `subq1`, so an
outer FROM that names a relation `subq1` is rejected.

A statement is read in one pass over its tokens (`_scan`): quoted literals,
words (a qualified name or a number is one word), comparison operators and
single characters.  A clause starts at a clause keyword at paren depth
zero, its items are split on `,` (on `and` in WHERE) at depth zero, and a
condition is cut at its first operator at depth zero.  A subquery is parsed
again from its own text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .catalog import (AttrRef, Catalog, JoinCondition, components, lookup_ssf, resolve_jsf,
                      view_relation, with_relation)
from .errors import ParseError, ValidationError

_AGG_FUNCS = ("sum", "avg", "count", "min", "max")
_IDENT = r"[a-z_][a-z0-9_]*"
_AGG_RE = re.compile(rf"^({'|'.join(_AGG_FUNCS)})\s*\(\s*(.+?)\s*\)$")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")
_DATE_RE = re.compile(r"^date\s*'([^']*)'$")
_FROM_SUBQUERY_RE = re.compile(rf"^\(\s*(select\b.*)\)\s*({_IDENT})$")
_IN_SUBQUERY_RE = re.compile(r"^(.+?)\s+in\s*\(\s*(select\b.*)\)$")
_ORDER_ITEM_RE = re.compile(r"^(.*?)(?:\s+(asc|desc))?$")


def format_literal(value: int | float | str) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class SelectCondition:
    relation: str
    attribute: str
    operator: str
    literal: int | float | str
    ssf: float

    def canonical(self) -> str:
        return (f"{self.relation}.{self.attribute} {self.operator} "
                f"{format_literal(self.literal)}")


@dataclass(frozen=True)
class HavingCondition:
    """Single aggregate predicate applied to grouped output."""

    func: str
    relation: str | None
    attribute: str
    operator: str
    literal: int | float | str
    ssf: float

    def arg(self) -> str:
        if self.attribute == "*":
            return "*"
        return f"{self.relation}.{self.attribute}"

    def canonical(self) -> str:
        return (f"having {self.func}({self.arg()}) {self.operator} "
                f"{format_literal(self.literal)}")


@dataclass(frozen=True)
class ProjectionItem:
    kind: str  # 'column' or 'aggregate'
    func: str | None
    relation: str | None
    attribute: str

    def render(self) -> str:
        ref = self.attribute if self.relation is None else f"{self.relation}.{self.attribute}"
        if self.kind == "aggregate":
            return f"{self.func}({ref})"
        return ref


@dataclass(frozen=True)
class OrderItem:
    relation: str
    attribute: str
    descending: bool = False

    def render(self) -> str:
        return f"{self.relation}.{self.attribute} {'desc' if self.descending else 'asc'}"


@dataclass(frozen=True)
class Subquery:
    """One uncorrelated nested query, linked by IN or used as a FROM table."""

    form: str  # 'in' or 'from'
    alias: str
    query: "Query"
    outer_attr: AttrRef | None
    inner_column: str
    link_jsf: float
    column_sources: dict[str, AttrRef] = field(default_factory=dict)

    # column_sources sets the view's statistics, but a dict cannot be hashed,
    # so it is left out; equal subqueries still hash equal
    def __hash__(self):
        return hash((self.form, self.alias, self.query, self.outer_attr, self.inner_column))


@dataclass(frozen=True)
class Query:
    tables: frozenset[str]
    joins: tuple[JoinCondition, ...]
    selects: tuple[SelectCondition, ...]
    projections: tuple[ProjectionItem, ...]  # empty means SELECT *
    group_by: tuple[AttrRef, ...]
    having: HavingCondition | None
    order_by: tuple[OrderItem, ...]
    subquery: Subquery | None = None

    def n_operations(self) -> int:
        return len(self.joins) + len(self.selects)


def _by_canonical(conds) -> tuple:
    """One condition per canonical text (the first seen), sorted by that text."""
    by_text = {}
    for cond in conds:
        by_text.setdefault(cond.canonical(), cond)
    return tuple(by_text[t] for t in sorted(by_text))


def extract_join_set(query: Query) -> tuple[JoinCondition, ...]:
    """Deduplicated join conditions sorted by canonical text."""
    return _by_canonical(query.joins)


# --- the token pass ------------------------------------------------------------

# a quoted literal, `group by` or `order by`, a word (a maximal run of
# [a-z0-9_.]), a two-character operator, or any other character but a space
_TOKEN_RE = re.compile(r"'[^']*'|(?:group|order) by(?![a-z0-9_.])|[a-z0-9_.]+|[<>!]=|<>|[^ ]")
_CLAUSES = ("select", "from", "where", "group by", "having", "order by")
_CLAUSE_ORDER = {kw: n for n, kw in enumerate(_CLAUSES)}
_OPERATORS = {"<=": "<=", ">=": ">=", "<>": "<>", "!=": "<>", "=": "=", "<": "<", ">": ">"}
# the tokens the pass acts on; any other token only extends its item
_ACTIVE = {"(", ")", "'", "or", ",", "and", *_CLAUSES, *_OPERATORS}
# the clauses that list items, each with its name in errors and its separator
_LISTS = {"select": ("select list", ","), "from": ("FROM clause", ","),
          "where": ("WHERE clause", "and"), "group by": ("GROUP BY clause", ","),
          "order by": ("ORDER BY clause", ",")}

_Item = tuple[str, tuple[str, str, str] | None]


def _item(text: str, start: int, end: int, op: re.Match | None) -> _Item:
    """text[start:end], stripped, and its cut (left, operator, right) at `op`."""
    part = text[start:end].strip()
    if op is None:
        return part, None
    return part, (text[start:op.start()].strip(), _OPERATORS[op.group()],
                  text[op.end():end].strip())


def _scan(text: str) -> list[tuple[int, str, list[_Item]]]:
    """(start, keyword, items) for each clause keyword at paren depth zero.

    A list clause's items are split on its separator token at depth zero
    (`,`, or `and` in WHERE); HAVING is one item.  An item is its text ("" if
    it holds no token) and its cut at its first operator at depth zero (`!=`
    read as `<>`), or None.  Raises on an `or` token at any depth, then on a
    `)` with no `(` or a quote that no later quote closes, whichever comes
    first, then on a `(` left open."""
    clauses: list[tuple[int, str, list[_Item]]] = []
    items: list[_Item] = []
    depth, start, separator, op = 0, 0, None, None
    fault, has_or = None, False
    for m in _TOKEN_RE.finditer(text):
        token = m.group()
        if token not in _ACTIVE:
            continue
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0 and fault is None:
                fault = "unbalanced parentheses"
        elif token == "'":
            fault = fault or "unterminated string literal"
        elif token == "or":
            has_or = True
        elif depth:
            continue
        elif token in _OPERATORS:
            op = op or m
        elif token == separator or token in _CLAUSE_ORDER:
            items.append(_item(text, start, m.start(), op))
            start, op = m.end(), None
            if token != separator:
                items = []
                clauses.append((m.start(), token, items))
                separator = _LISTS.get(token, (None, None))[1]
    items.append(_item(text, start, len(text), op))
    if has_or:
        raise ParseError("OR is not supported; WHERE must be a conjunction")
    if fault or depth:
        raise ParseError(fault or "unbalanced parentheses")
    return clauses


def _clauses(text: str) -> dict[str, list[_Item]]:
    """Each clause's items; a clause that lists items must hold at least
    one, and none empty."""
    found = _scan(text)
    if not found or found[0][:2] != (0, "select"):
        raise ParseError("statement must start with SELECT")
    for (_, a, _), (_, b, _) in zip(found, found[1:]):
        if _CLAUSE_ORDER[b] <= _CLAUSE_ORDER[a]:
            raise ParseError(f"clause {b.upper()} out of order")
    clauses = {kw: items for _, kw, items in found}
    if "from" not in clauses:
        raise ParseError("missing FROM clause")
    for kw, (what, _) in _LISTS.items():
        for part, _ in clauses.get(kw, ()):
            if not part:
                raise ParseError(f"empty {what}" if len(clauses[kw]) == 1
                                 else f"empty item in {what}")
    return clauses


def _name(text: str) -> tuple[str | None, str] | None:
    """(relation, attribute) of a qualified name, (None, attribute) of a
    bare one, None for any other text."""
    relation, dot, attribute = text.rpartition(".")
    if text.isascii() and attribute.isidentifier() and (relation.isidentifier() or not dot):
        return relation or None, attribute
    return None


def _parse_literal(text: str) -> int | float | str:
    text = text.strip()
    m = _DATE_RE.match(text)
    if m:
        return m.group(1)
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1]
    if _NUMBER_RE.match(text):
        return float(text) if "." in text else int(text)
    raise ParseError(f"unsupported literal {text!r}")


class _Resolver:
    """Attribute resolution over the FROM relations of one query."""

    def __init__(self, catalog: Catalog, tables: list[str]):
        self.relations = catalog.relations
        self.tables = tables
        self.table_set = set(tables)

    def has(self, relation: str, attribute: str) -> bool:
        rel = self.relations.get(relation)
        return rel is not None and rel.has_attribute(attribute)

    def resolve(self, text: str, outer_tables: frozenset[str] = frozenset()) -> AttrRef:
        name = _name(text)
        if name is None:
            raise ParseError(f"expected an attribute reference, got {text!r}")
        relation, attribute = name
        if relation is not None:
            if relation not in self.table_set:
                if relation in outer_tables:
                    raise ParseError(
                        f"correlated subqueries are unsupported ({relation}.{attribute} "
                        "references an outer relation)")
                raise ValidationError(f"relation {relation!r} is not in the FROM clause")
            if not self.has(relation, attribute):
                raise ValidationError(f"unknown attribute {relation}.{attribute}")
            return relation, attribute
        matches = [t for t in self.tables if self.has(t, attribute)]
        if not matches:
            raise ValidationError(f"unknown attribute {attribute!r}")
        if len(matches) > 1:
            raise ValidationError(
                f"attribute {attribute!r} is ambiguous across {sorted(matches)}")
        return matches[0], attribute


def _aggregate_arg(func: str, arg: str, resolver: _Resolver) -> tuple[str | None, str]:
    if arg != "*":
        return resolver.resolve(arg)
    if func != "count":
        raise ParseError(f"{func}(*) is not supported")
    return None, "*"


def _parse_select_items(parts: list[_Item], resolver: _Resolver) -> tuple[ProjectionItem, ...]:
    if [part for part, _ in parts] == ["*"]:
        return ()
    items: list[ProjectionItem] = []
    for part, _ in parts:
        m = _AGG_RE.match(part)
        if m:
            rel, attr = _aggregate_arg(m.group(1), m.group(2), resolver)
            items.append(ProjectionItem("aggregate", m.group(1), rel, attr))
            continue
        if part == "*":
            raise ParseError("'*' cannot be mixed with other select items")
        rel, attr = resolver.resolve(part)
        items.append(ProjectionItem("column", None, rel, attr))
    return tuple(items)


def _cut(part: str, cut: tuple[str, str, str] | None) -> tuple[str, str, str]:
    if cut is None:
        raise ParseError(f"no comparison operator in condition {part!r}")
    return cut


def _connectivity(tables: set[str], edges: list[tuple[str, str]]) -> None:
    first, *rest = components(tables, edges)
    if rest:
        missing = sorted(tables - first)
        raise ValidationError(
            f"disconnected join graph (cross products unsupported): {missing} unreachable")


def parse_query(sql_text: str, catalog: Catalog, *, _depth: int = 0,
                _outer_tables: frozenset[str] = frozenset()) -> Query:
    """Parse one statement of the supported subset into a validated Query."""
    text = " ".join(sql_text.strip().rstrip(";").lower().split())
    if not text:
        raise ParseError("empty statement")
    if _depth > 1:
        raise ParseError("subqueries may not nest beyond one level")
    clauses = _clauses(text)

    tables: list[str] = []
    subquery: Subquery | None = None
    for part, _ in clauses["from"]:
        m = _FROM_SUBQUERY_RE.match(part)
        if m:
            if subquery is not None:
                raise ParseError("at most one subquery is supported")
            inner = parse_query(m.group(1), catalog, _depth=_depth + 1,
                                _outer_tables=frozenset(tables) | _outer_tables)
            alias = m.group(2)
            sources = _subquery_columns(inner)
            subquery = Subquery(form="from", alias=alias, query=inner,
                                outer_attr=None, inner_column=next(iter(sources)),
                                link_jsf=1.0, column_sources=sources)
            tables.append(alias)
            continue
        if not (part.isascii() and part.isidentifier()):
            raise ParseError(f"unsupported FROM item {part!r}")
        if part not in catalog.relations:
            raise ValidationError(f"unknown relation {part!r}")
        tables.append(part)
    if len(set(tables)) != len(tables):
        raise ParseError("duplicate FROM relations are not supported")

    # the outer block reads the catalog with its FROM view, if any
    view = subquery.alias if subquery else None
    scope = _with_view(catalog, view, subquery.column_sources) if subquery else catalog
    resolver = _Resolver(scope, tables)
    projections = _parse_select_items(clauses["select"], resolver)

    joins: list[JoinCondition] = []
    selects: list[SelectCondition] = []
    edges: list[tuple[str, str]] = []
    for cond, cut in clauses.get("where", ()):
        m = _IN_SUBQUERY_RE.match(cond) if "select" in cond else None
        if m:
            if subquery is not None:
                raise ParseError("at most one subquery is supported")
            outer_ref = resolver.resolve(m.group(1))
            inner = parse_query(m.group(2), catalog, _depth=_depth + 1,
                                _outer_tables=frozenset(tables) | _outer_tables)
            sources = _subquery_columns(inner)
            if len(sources) != 1:
                raise ParseError("IN-subquery must select exactly one column")
            alias, (column,) = "subq1", sources
            if alias in tables:
                raise ValidationError(f"FROM relation {alias!r} has the name of the "
                                      "IN subquery's view")
            link_jsf = resolve_jsf(_with_view(catalog, alias, sources), outer_ref, (alias, column))
            subquery = Subquery(form="in", alias=alias, query=inner, outer_attr=outer_ref,
                                inner_column=column, link_jsf=link_jsf, column_sources=sources)
            edges.append((outer_ref[0], alias))
            continue
        left_text, op, right_text = _cut(cond, cut)
        left = resolver.resolve(left_text, _outer_tables)
        if _name(right_text):   # an attribute, never a literal
            right = resolver.resolve(right_text, _outer_tables)
            if op != "=":
                raise ParseError(f"join conditions must use '=', got {op!r}")
            if left[0] == right[0]:
                raise ParseError(
                    f"predicates between attributes of one relation are unsupported: {cond!r}")
            joins.append(JoinCondition.make(left, right, resolve_jsf(scope, left, right)))
            edges.append((left[0], right[0]))
            continue
        literal = _parse_literal(right_text)
        if left[0] == view:
            raise ParseError("select predicates on subquery columns are unsupported")
        canonical = f"{left[0]}.{left[1]} {op} {format_literal(literal)}"
        ssf = lookup_ssf(scope, left[0], left[1], op, canonical)
        selects.append(SelectCondition(left[0], left[1], op, literal, ssf))

    group_by: list[AttrRef] = []
    if "group by" in clauses:
        for part, _ in clauses["group by"]:
            group_by.append(resolver.resolve(part))
    group_by = sorted(set(group_by))

    having = None
    if "having" in clauses:
        if not group_by:
            raise ParseError("HAVING requires GROUP BY")
        having = _parse_having(clauses["having"][0], resolver, catalog)

    order_by: list[OrderItem] = []
    if "order by" in clauses:
        for part, _ in clauses["order by"]:
            m = _ORDER_ITEM_RE.match(part)
            rel, attr = resolver.resolve(m.group(1))
            order_by.append(OrderItem(rel, attr, m.group(2) == "desc"))

    query = Query(
        tables=frozenset(tables),
        joins=_by_canonical(joins),
        selects=_by_canonical(selects),
        projections=projections,
        group_by=tuple(group_by),
        having=having,
        order_by=tuple(order_by),
        subquery=subquery,
    )
    _connectivity(set(tables) | ({subquery.alias} if subquery and subquery.form == "in" else set()),
                  edges)
    # a grouped select list names grouping keys and aggregates; an aggregate
    # without GROUP BY makes the block one group, which keeps no column
    grouped = group_by or any(item.kind == "aggregate" for item in projections)
    for item in projections:
        if grouped and item.kind == "column" and (item.relation, item.attribute) not in group_by:
            raise ValidationError(
                f"{item.relation}.{item.attribute} must appear in GROUP BY or an aggregate")
    for item in order_by:   # and so does its ORDER BY: grouping drops every other column
        if grouped and (item.relation, item.attribute) not in group_by:
            raise ValidationError(
                f"ORDER BY {item.relation}.{item.attribute} must appear in GROUP BY")
    return query


def _with_view(catalog: Catalog, alias: str, column_sources: dict[str, AttrRef]) -> Catalog:
    """`catalog` with a subquery's view.  The view's cardinality is the inner
    plan's size, unknown until the inner block is optimized, so it is NaN
    here: the parser reads only the view's columns and distinct counts."""
    return with_relation(catalog, view_relation(catalog, alias, column_sources, math.nan))


def _subquery_columns(inner: Query) -> dict[str, AttrRef]:
    """Each output column's source attribute, in select-list order."""
    if not inner.projections:
        raise ParseError("subqueries must name their output columns (no '*')")
    sources: dict[str, AttrRef] = {}
    for item in inner.projections:
        if item.kind != "column":
            raise ParseError("aggregates in subquery select lists are unsupported")
        if item.attribute in sources:
            raise ParseError(f"duplicate subquery output column {item.attribute!r}")
        sources[item.attribute] = (item.relation, item.attribute)
    return sources


def _parse_having(item: _Item, resolver: _Resolver, catalog: Catalog) -> HavingCondition:
    left_text, op, right_text = _cut(*item)
    m = _AGG_RE.match(left_text)
    if not m:
        raise ParseError("HAVING must compare a single aggregate to a literal")
    func = m.group(1)
    literal = _parse_literal(right_text)
    relation, attribute = _aggregate_arg(func, m.group(2), resolver)
    probe = HavingCondition(func, relation, attribute, op, literal, ssf=0.0)
    ssf = catalog.stats.overrides.get(probe.canonical(), catalog.stats.default_ssf)
    return HavingCondition(func, relation, attribute, op, literal, ssf)


def render_query(query: Query) -> str:
    """Canonical SQL text; parse(render(parse(x))) == parse(x)."""
    if query.projections:
        select_list = ", ".join(item.render() for item in query.projections)
    else:
        select_list = "*"
    from_items: list[str] = []
    for table in sorted(query.tables):
        if query.subquery is not None and query.subquery.form == "from" \
                and table == query.subquery.alias:
            from_items.append(f"({render_query(query.subquery.query)}) {table}")
        else:
            from_items.append(table)
    parts = [f"select {select_list}", f"from {', '.join(from_items)}"]
    conds = [j.canonical() for j in query.joins] + [s.canonical() for s in query.selects]
    if query.subquery is not None and query.subquery.form == "in":
        sub = query.subquery
        conds.append(f"{sub.outer_attr[0]}.{sub.outer_attr[1]} in "
                     f"({render_query(sub.query)})")
    if conds:
        parts.append("where " + " and ".join(conds))
    if query.group_by:
        parts.append("group by " + ", ".join(f"{r}.{a}" for r, a in query.group_by))
    if query.having is not None:
        parts.append(query.having.canonical())
    if query.order_by:
        parts.append("order by " + ", ".join(item.render() for item in query.order_by))
    return " ".join(parts)


# -- clause-level operator texts -------------------------------------------

def groupby_text(group_by, landing: str | None = None) -> str:
    """A group-by's operator text; one that lands below its query's root
    names its input's signature text after an "@", since the sizes above
    it depend on where it lands."""
    text = "groupby(" + ", ".join(f"{r}.{a}" for r, a in group_by) + ")"
    return text if landing is None else f"{text}@{landing}"


def orderby_text(order_by) -> str:
    return "orderby(" + ", ".join(item.render() for item in order_by) + ")"


def project_text(attrs) -> str:
    return "project(" + ", ".join(sorted(attrs)) + ")"


def groupby_distinct_product(group_by, catalog: Catalog) -> float:
    """Upper bound on group count: product of grouping-attribute distincts."""
    product = 1.0
    for rel, attr in group_by:
        product *= catalog.relation(rel).attribute(attr).distinct_count
    return product


def output_attrs(query: Query, catalog: Catalog) -> set[str]:
    """Qualified attributes the final result must retain.

    Covers the projection list (aggregate arguments included), group-by keys,
    the having argument, and order-by keys.  SELECT * retains everything.
    """
    if not query.projections:
        return all_query_attrs(query, catalog)
    attrs: set[str] = set()
    for item in query.projections:
        if item.relation is not None and item.attribute != "*":
            attrs.add(f"{item.relation}.{item.attribute}")
    for rel, attr in query.group_by:
        attrs.add(f"{rel}.{attr}")
    if query.having is not None and query.having.attribute != "*":
        attrs.add(f"{query.having.relation}.{query.having.attribute}")
    for item in query.order_by:
        attrs.add(f"{item.relation}.{item.attribute}")
    return attrs


def all_query_attrs(query: Query, catalog: Catalog) -> set[str]:
    """Every qualified attribute available from the query's FROM relations."""
    sub = query.subquery
    views = {sub.alias: list(sub.column_sources)} if sub and sub.form == "from" else {}
    return {f"{t}.{name}" for t in query.tables   # a view first: it may shadow a relation
            for name in views.get(t) or [a.name for a in catalog.relation(t).attributes]}
