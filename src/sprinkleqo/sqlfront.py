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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .catalog import AttrRef, Catalog, JoinCondition, components, lookup_ssf, resolve_jsf
from .errors import ParseError, ValidationError

# the leftmost comparison operator; two-character ones are tried first
_OPERATOR_RE = re.compile(r"<=|>=|<>|!=|=|<|>")
_AGG_FUNCS = ("sum", "avg", "count", "min", "max")
_IDENT = r"[a-z_][a-z0-9_]*"
_AGG_RE = re.compile(rf"^({'|'.join(_AGG_FUNCS)})\s*\(\s*(.+?)\s*\)$")
_REF_RE = re.compile(rf"^({_IDENT})\.({_IDENT})$|^({_IDENT})$")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")
_DATE_RE = re.compile(r"^date\s*'([^']*)'$")
_QUOTED_RE = re.compile(r"'[^']*'")
_OR_RE = re.compile(r"\bor\b")
_FROM_SUBQUERY_RE = re.compile(rf"^\(\s*(select\b.*)\)\s*({_IDENT})$")
_IDENT_RE = re.compile(rf"^{_IDENT}$")
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

    def __hash__(self):  # column_sources is informational only
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


# --- tokenizer-level helpers -------------------------------------------------

_NESTING_RE = re.compile(r"'[^']*'|[()']")   # a quoted literal, a paren, or a lone quote


def _top_level(text: str) -> str:
    """`text` with every character inside quotes or parentheses, the quotes
    and parentheses included, replaced by NUL, so that a search of the
    result finds only text at paren depth zero outside quotes.  Raises on
    unbalanced text: a ')' with no '(' as the scan meets it, then a quote
    left open, then a '(' left open."""
    pieces, depth, kept = [], 0, 0   # text[:kept] is in pieces
    for m in _NESTING_RE.finditer(text):
        token = m.group()
        if token == "'":   # no quote closes it: the rest of the text is quoted
            raise ParseError("unterminated string literal")
        if depth == 0:
            pieces.append(text[kept:m.start()])
            kept = m.start()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if depth == 0:
            pieces.append("\0" * (m.end() - kept))
            kept = m.end()
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    return "".join(pieces) + text[kept:]


def _keyword_re(*words: str) -> re.Pattern[str]:
    """Any of `words` as a whole word: no identifier, digit or qualifying
    dot touches it."""
    return re.compile(r"(?<![a-z0-9_.])(?:" + "|".join(words) + r")(?![a-z0-9_.])")


_CLAUSES = ("select", "from", "where", "group by", "having", "order by")
_CLAUSE_RE = _keyword_re(*_CLAUSES)
_CLAUSE_ORDER = {kw: n for n, kw in enumerate(_CLAUSES)}
_COMMA_RE, _AND_RE = re.compile(","), _keyword_re("and")
# the clauses that list items, each with its name in errors and its separator
_LISTS = {"select": ("select list", _COMMA_RE), "from": ("FROM clause", _COMMA_RE),
          "where": ("WHERE clause", _AND_RE), "group by": ("GROUP BY clause", _COMMA_RE),
          "order by": ("ORDER BY clause", _COMMA_RE)}


def _scan_clauses(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """Split a statement into clause texts, honoring parens and quotes; also
    returns each clause's `_top_level` mask, cut from the statement's.  A
    clause that lists items must hold at least one, and none empty."""
    mask = _top_level(text)
    positions = [(m.start(), m.group()) for m in _CLAUSE_RE.finditer(mask)]
    if not positions or positions[0][1] != "select" or positions[0][0] != 0:
        raise ParseError("statement must start with SELECT")
    for (_, a), (_, b) in zip(positions, positions[1:]):
        if _CLAUSE_ORDER[b] <= _CLAUSE_ORDER[a]:
            raise ParseError(f"clause {b.upper()} out of order")
    clauses: dict[str, str] = {}
    masks: dict[str, str] = {}
    for idx, (pos, kw) in enumerate(positions):
        end = positions[idx + 1][0] if idx + 1 < len(positions) else len(text)
        clauses[kw], masks[kw] = _strip(text, mask, pos + len(kw), end)
    if "from" not in clauses:
        raise ParseError("missing FROM clause")
    for kw, (what, separator) in _LISTS.items():
        if kw not in masks:
            continue
        if not masks[kw]:
            raise ParseError(f"empty {what}")
        if not all(part.strip() for part in separator.split(masks[kw])):
            raise ParseError(f"empty item in {what}")
    return clauses, masks


def _strip(text: str, mask: str, start: int, end: int) -> tuple[str, str]:
    """text[start:end] and its mask, stripped alike: both ends lie at paren
    depth zero outside quotes, where the mask keeps the text's spaces."""
    return text[start:end].strip(), mask[start:end].strip()


def _split_masked(text: str, mask: str, separator: re.Pattern[str]) -> list[tuple[str, str]]:
    """(part, its mask) for each non-empty part of `text` split on a
    separator match at paren depth zero, outside quotes; `mask` is
    `_top_level(text)`."""
    parts: list[tuple[str, str]] = []
    start = 0
    for m in separator.finditer(mask):
        parts.append(_strip(text, mask, start, m.start()))
        start = m.end()
    parts.append(_strip(text, mask, start, len(text)))
    return [p for p in parts if p[0]]


def _split_top_level(text: str, separator: re.Pattern[str],
                     mask: str | None = None) -> list[str]:
    """Split on a separator token at paren depth zero, outside quotes."""
    return [part for part, _ in _split_masked(
        text, _top_level(text) if mask is None else mask, separator)]


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
    """Attribute resolution over the FROM tables of one query."""

    def __init__(self, catalog: Catalog, tables: list[str],
                 alias_columns: dict[str, dict[str, AttrRef]]):
        self.catalog = catalog
        self.tables = tables
        self.table_set = set(tables)
        self.alias_columns = alias_columns  # alias -> column -> source AttrRef

    def has(self, relation: str, attribute: str) -> bool:
        if relation in self.alias_columns:
            return attribute in self.alias_columns[relation]
        if relation in self.catalog.relations:
            return self.catalog.relations[relation].has_attribute(attribute)
        return False

    def distinct(self, relation: str, attribute: str) -> int:
        if relation in self.alias_columns:
            src = self.alias_columns[relation][attribute]
            return self.catalog.relation(src[0]).attribute(src[1]).distinct_count
        return self.catalog.relation(relation).attribute(attribute).distinct_count

    def resolve(self, text: str, outer_tables: frozenset[str] = frozenset()) -> AttrRef:
        m = _REF_RE.match(text.strip())
        if not m:
            raise ParseError(f"expected an attribute reference, got {text!r}")
        if m.group(1):
            relation, attribute = m.group(1), m.group(2)
            if relation not in self.table_set:
                if relation in outer_tables:
                    raise ParseError(
                        f"correlated subqueries are unsupported ({relation}.{attribute} "
                        "references an outer relation)")
                raise ValidationError(f"relation {relation!r} is not in the FROM clause")
            if not self.has(relation, attribute):
                raise ValidationError(f"unknown attribute {relation}.{attribute}")
            return relation, attribute
        name = m.group(3)
        matches = [t for t in self.tables if self.has(t, name)]
        if not matches:
            raise ValidationError(f"unknown attribute {name!r}")
        if len(matches) > 1:
            raise ValidationError(
                f"attribute {name!r} is ambiguous across {sorted(matches)}")
        return matches[0], name


def _aggregate_arg(func: str, arg: str, resolver: _Resolver) -> tuple[str | None, str]:
    if arg != "*":
        return resolver.resolve(arg)
    if func != "count":
        raise ParseError(f"{func}(*) is not supported")
    return None, "*"


def _parse_select_items(text: str, mask: str,
                        resolver: _Resolver) -> tuple[ProjectionItem, ...]:
    if text == "*":
        return ()
    items: list[ProjectionItem] = []
    for part in _split_top_level(text, _COMMA_RE, mask):
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


def _split_condition(text: str, mask: str | None = None) -> tuple[str, str, str]:
    m = _OPERATOR_RE.search(_top_level(text) if mask is None else mask)
    if m is None:
        raise ParseError(f"no comparison operator in condition {text!r}")
    op = m.group()
    return text[:m.start()].strip(), ("<>" if op == "!=" else op), text[m.end():].strip()


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
    if _OR_RE.search(_QUOTED_RE.sub("''", text)):
        raise ParseError("OR is not supported; WHERE must be a conjunction")
    clauses, masks = _scan_clauses(text)

    tables: list[str] = []
    subquery: Subquery | None = None
    alias_columns: dict[str, dict[str, AttrRef]] = {}
    for part in _split_top_level(clauses["from"], _COMMA_RE, masks["from"]):
        m = _FROM_SUBQUERY_RE.match(part)
        if m:
            if subquery is not None:
                raise ParseError("at most one subquery is supported")
            inner = parse_query(m.group(1), catalog, _depth=_depth + 1,
                                _outer_tables=frozenset(tables) | _outer_tables)
            alias = m.group(2)
            columns, sources = _subquery_columns(inner)
            subquery = Subquery(form="from", alias=alias, query=inner,
                                outer_attr=None, inner_column=columns[0],
                                link_jsf=1.0, column_sources=sources)
            alias_columns[alias] = sources
            tables.append(alias)
            continue
        if not _IDENT_RE.match(part):
            raise ParseError(f"unsupported FROM item {part!r}")
        if part not in catalog.relations:
            raise ValidationError(f"unknown relation {part!r}")
        tables.append(part)
    if len(set(tables)) != len(tables):
        raise ParseError("duplicate FROM relations are not supported")

    resolver = _Resolver(catalog, tables, alias_columns)
    projections = _parse_select_items(clauses["select"], masks["select"], resolver)

    joins: list[JoinCondition] = []
    selects: list[SelectCondition] = []
    edges: list[tuple[str, str]] = []
    for cond, cond_mask in _split_masked(clauses.get("where", ""), masks.get("where", ""),
                                         _AND_RE):
        m = _IN_SUBQUERY_RE.match(cond) if "select" in cond else None
        if m:
            if subquery is not None:
                raise ParseError("at most one subquery is supported")
            outer_ref = resolver.resolve(m.group(1))
            inner = parse_query(m.group(2), catalog, _depth=_depth + 1,
                                _outer_tables=frozenset(tables) | _outer_tables)
            columns, sources = _subquery_columns(inner)
            if len(columns) != 1:
                raise ParseError("IN-subquery must select exactly one column")
            alias = "subq1"
            src = sources[columns[0]]
            d_outer = resolver.distinct(*outer_ref)
            d_inner = catalog.relation(src[0]).attribute(src[1]).distinct_count
            subquery = Subquery(form="in", alias=alias, query=inner,
                                outer_attr=outer_ref, inner_column=columns[0],
                                link_jsf=1.0 / max(d_outer, d_inner),
                                column_sources=sources)
            edges.append((outer_ref[0], alias))
            continue
        left_text, op, right_text = _split_condition(cond, cond_mask)
        left = resolver.resolve(left_text, _outer_tables)
        if _REF_RE.match(right_text):   # an attribute, never a literal
            right = resolver.resolve(right_text, _outer_tables)
            if op != "=":
                raise ParseError(f"join conditions must use '=', got {op!r}")
            if left[0] == right[0]:
                raise ParseError(
                    f"predicates between attributes of one relation are unsupported: {cond!r}")
            jsf = _join_jsf(catalog, resolver, left, right)
            joins.append(JoinCondition.make(left, right, jsf))
            edges.append((left[0], right[0]))
            continue
        literal = _parse_literal(right_text)
        if left[0] in alias_columns:
            raise ParseError("select predicates on subquery columns are unsupported")
        canonical = f"{left[0]}.{left[1]} {op} {format_literal(literal)}"
        ssf = lookup_ssf(catalog, left[0], left[1], op, canonical)
        selects.append(SelectCondition(left[0], left[1], op, literal, ssf))

    group_by: list[AttrRef] = []
    if "group by" in clauses:
        for part in _split_top_level(clauses["group by"], _COMMA_RE, masks["group by"]):
            group_by.append(resolver.resolve(part))
    group_by = sorted(set(group_by))

    having = None
    if "having" in clauses:
        if not group_by:
            raise ParseError("HAVING requires GROUP BY")
        having = _parse_having(clauses["having"], masks["having"], resolver, catalog)

    order_by: list[OrderItem] = []
    if "order by" in clauses:
        for part in _split_top_level(clauses["order by"], _COMMA_RE, masks["order by"]):
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
    _validate_scopes(query, resolver)
    return query


def _join_jsf(catalog: Catalog, resolver: _Resolver, left: AttrRef, right: AttrRef) -> float:
    base_side = left[0] in catalog.relations and right[0] in catalog.relations
    if base_side:
        return resolve_jsf(catalog, left, right)
    return 1.0 / max(resolver.distinct(*left), resolver.distinct(*right))


def _subquery_columns(inner: Query) -> tuple[list[str], dict[str, AttrRef]]:
    if not inner.projections:
        raise ParseError("subqueries must name their output columns (no '*')")
    columns: list[str] = []
    sources: dict[str, AttrRef] = {}
    for item in inner.projections:
        if item.kind != "column":
            raise ParseError("aggregates in subquery select lists are unsupported")
        if item.attribute in sources:
            raise ParseError(f"duplicate subquery output column {item.attribute!r}")
        columns.append(item.attribute)
        sources[item.attribute] = (item.relation, item.attribute)
    return columns, sources


def _parse_having(text: str, mask: str, resolver: _Resolver,
                  catalog: Catalog) -> HavingCondition:
    left_text, op, right_text = _split_condition(text, mask)
    m = _AGG_RE.match(left_text)
    if not m:
        raise ParseError("HAVING must compare a single aggregate to a literal")
    func = m.group(1)
    literal = _parse_literal(right_text)
    relation, attribute = _aggregate_arg(func, m.group(2), resolver)
    probe = HavingCondition(func, relation, attribute, op, literal, ssf=0.0)
    ssf = catalog.stats.overrides.get(probe.canonical(), catalog.stats.default_ssf)
    return HavingCondition(func, relation, attribute, op, literal, ssf)


def _validate_scopes(query: Query, resolver: _Resolver) -> None:
    for item in query.projections:
        if item.relation is not None and not resolver.has(item.relation, item.attribute):
            raise ValidationError(f"unknown attribute {item.relation}.{item.attribute}")
    if query.group_by:
        for item in query.projections:
            if item.kind == "column" and (item.relation, item.attribute) not in query.group_by:
                raise ValidationError(
                    f"{item.relation}.{item.attribute} must appear in GROUP BY or an aggregate")


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
    attrs: set[str] = set()
    for t in sorted(query.tables):
        if t in catalog.relations:
            attrs.update(f"{t}.{a.name}" for a in catalog.relations[t].attributes)
        elif query.subquery is not None and t == query.subquery.alias:
            attrs.update(f"{t}.{c}" for c in query.subquery.column_sources)
    return attrs
