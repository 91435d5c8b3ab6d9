"""Schema catalog: relations, attributes, foreign-key edges, and selectivity stats.

The catalog is loaded from a JSON document shaped like::

    {
      "relations": [
        {"name": "employee", "cardinality": 1000,
         "attributes": [{"name": "ssn", "distinct": 1000, "key": true}]}
      ],
      "fk_edges": [
        {"left": "employee.ssn", "right": "works_on.ssn", "jsf": 0.001}
      ],
      "stats": {"default_ssf": 0.1, "overrides": {"works_on.hours > 30": 0.4}}
    }

Stats may live in the schema document or arrive as a separate document with
the same ``stats`` keys at top level.  Unknown keys are rejected everywhere so
typos surface as errors instead of silently ignored knobs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace

from .errors import CatalogError

DEFAULT_SSF = 0.1

AttrRef = tuple[str, str]


@dataclass(frozen=True)
class Attribute:
    name: str
    distinct_count: int
    is_key: bool = False


@dataclass(frozen=True)
class Relation:
    name: str
    cardinality: float
    attributes: tuple[Attribute, ...]
    # each name's first attribute, built once; no part of equality or repr
    _by_name: dict[str, Attribute] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {a.name: a for a in reversed(self.attributes)})

    def attribute(self, name: str) -> Attribute:
        attr = self._by_name.get(name)
        if attr is None:
            raise CatalogError(f"relation {self.name!r} has no attribute {name!r}")
        return attr

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class JoinCondition:
    """Equality between attributes of two relations; sides sorted for canonicity.

    Both an FK edge of the schema and a join of a query are one of these."""

    left: AttrRef
    right: AttrRef
    jsf: float

    @staticmethod
    def make(a: AttrRef, b: AttrRef, jsf: float) -> "JoinCondition":
        left, right = sorted((a, b))
        return JoinCondition(left=left, right=right, jsf=jsf)

    def canonical(self) -> str:
        return f"{self.left[0]}.{self.left[1]} = {self.right[0]}.{self.right[1]}"

    def relations(self) -> tuple[str, str]:
        return self.left[0], self.right[0]


@dataclass(frozen=True)
class SchemaGraph:
    """Relations as nodes, FK edges as undirected (possibly parallel) edges."""

    nodes: frozenset[str]
    edges: tuple[JoinCondition, ...]
    # (left, right) -> the jsf of the first edge with those sides, built
    # once; no part of equality or repr
    _jsf: dict[tuple[AttrRef, AttrRef], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_jsf", {(e.left, e.right): e.jsf for e in reversed(self.edges)})

    def components(self) -> list[frozenset[str]]:
        return components(self.nodes, [e.relations() for e in self.edges])

    def edge_jsf(self, left: AttrRef, right: AttrRef) -> float | None:
        """The jsf of the first edge whose sides are (left, right), if any."""
        return self._jsf.get((left, right))


def components(nodes, edges) -> list[frozenset[str]]:
    """Connected components of an undirected graph, ordered by least member.

    Union-find whose roots are always the least member of their set.  Edges
    with an endpoint outside `nodes` are ignored.
    """
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[str, set[str]] = {}
    for n in parent:
        groups.setdefault(find(n), set()).add(n)
    return [frozenset(groups[root]) for root in sorted(groups)]


@dataclass(frozen=True)
class Stats:
    default_ssf: float = DEFAULT_SSF
    overrides: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Catalog:
    relations: dict[str, Relation]
    graph: SchemaGraph
    stats: Stats
    fingerprint: str

    def relation(self, name: str) -> Relation:
        rel = self.relations.get(name)
        if rel is None:
            raise CatalogError(f"unknown relation {name!r}")
        return rel


def _require_keys(doc: dict, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise CatalogError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise CatalogError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_attr_ref(text: str, where: str) -> tuple[str, str]:
    if not isinstance(text, str):
        raise CatalogError(f"{where}: expected 'relation.attribute', got {text!r}")
    parts = text.lower().split(".")
    if len(parts) != 2 or not all(parts):
        raise CatalogError(f"{where}: expected 'relation.attribute', got {text!r}")
    return parts[0], parts[1]


def _load_attribute(doc: dict, where: str, cardinality: float) -> Attribute:
    _require_keys(doc, {"name", "distinct", "key"}, where)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError(f"{where}: attribute name must be a non-empty string")
    distinct = doc.get("distinct")
    if not isinstance(distinct, int) or isinstance(distinct, bool) \
            or not 1 <= distinct <= sys.float_info.max:
        raise CatalogError(f"{where}: distinct must be a positive integer in the float range")
    if cardinality > 0 and distinct > cardinality:
        raise CatalogError(
            f"{where}: distinct {distinct} exceeds relation cardinality {cardinality:g}"
        )
    is_key = doc.get("key", False)
    if not isinstance(is_key, bool):
        raise CatalogError(f"{where}: key must be a boolean")
    return Attribute(name=name.lower(), distinct_count=distinct, is_key=is_key)


def checked_cardinality(value, where: str) -> float:
    """A relation's cardinality as a float: a finite number >= 0, not a
    bool.  The rule for a schema's relations and a saved history's."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 <= value <= sys.float_info.max:
        raise CatalogError(f"{where}: cardinality must be a finite number >= 0")
    return float(value)


def _load_relation(doc: dict, where: str) -> Relation:
    _require_keys(doc, {"name", "cardinality", "attributes"}, where)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError(f"{where}: relation name must be a non-empty string")
    card = checked_cardinality(doc.get("cardinality"), where)
    attrs_doc = doc.get("attributes")
    if not isinstance(attrs_doc, list) or not attrs_doc:
        raise CatalogError(f"{where}: attributes must be a non-empty list")
    attrs = tuple(
        _load_attribute(a, f"{where}.attributes[{i}]", card)
        for i, a in enumerate(attrs_doc)
    )
    names = [a.name for a in attrs]
    if len(set(names)) != len(names):
        raise CatalogError(f"{where}: duplicate attribute names")
    return Relation(name=name.lower(), cardinality=card, attributes=attrs)


def _selectivity(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CatalogError(f"{what} must be a number")
    if not 0 < value <= 1:  # compared before float(), which overflows on a large int
        raise CatalogError(f"{what} must be in (0, 1]")
    return float(value)


def _load_stats(doc: dict, where: str) -> Stats:
    _require_keys(doc, {"default_ssf", "overrides"}, where)
    default_ssf = _selectivity(doc.get("default_ssf", DEFAULT_SSF), f"{where}: default_ssf")
    overrides_doc = doc.get("overrides", {})
    if not isinstance(overrides_doc, dict):
        raise CatalogError(f"{where}: overrides must be an object")
    overrides: dict[str, float] = {}
    for key, value in overrides_doc.items():
        overrides[" ".join(key.lower().split())] = _selectivity(
            value, f"{where}.overrides[{key!r}]: value")
    return Stats(default_ssf=default_ssf, overrides=overrides)


def default_jsf(catalog_relations: dict[str, Relation], left: tuple[str, str],
                right: tuple[str, str]) -> float:
    """1 / max(distinct counts of the two endpoints)."""
    dl = catalog_relations[left[0]].attribute(left[1]).distinct_count
    dr = catalog_relations[right[0]].attribute(right[1]).distinct_count
    return 1.0 / max(dl, dr)


def load_catalog(schema_text: str, stats_text: str | None = None) -> Catalog:
    """Parse and validate a schema document (and optional stats document)."""
    try:
        doc = json.loads(schema_text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"schema: invalid JSON: {exc}") from None
    _require_keys(doc, {"relations", "fk_edges", "stats"}, "schema")

    rel_docs = doc.get("relations")
    if not isinstance(rel_docs, list) or not rel_docs:
        raise CatalogError("schema: relations must be a non-empty list")
    relations: dict[str, Relation] = {}
    for i, rd in enumerate(rel_docs):
        rel = _load_relation(rd, f"relations[{i}]")
        if rel.name in relations:
            raise CatalogError(f"relations[{i}]: duplicate relation {rel.name!r}")
        relations[rel.name] = rel

    edge_docs = doc.get("fk_edges")
    if not isinstance(edge_docs, (list, type(None))):
        raise CatalogError("schema: fk_edges must be a list")
    edges: list[JoinCondition] = []
    written: list = []  # each edge's sides in schema order, for the fingerprint
    for i, ed in enumerate(edge_docs or []):
        where = f"fk_edges[{i}]"
        _require_keys(ed, {"left", "right", "jsf"}, where)
        left = _parse_attr_ref(ed.get("left", ""), where)
        right = _parse_attr_ref(ed.get("right", ""), where)
        for rel_name, attr_name in (left, right):
            if rel_name not in relations:
                raise CatalogError(f"{where}: unknown relation {rel_name!r}")
            if not relations[rel_name].has_attribute(attr_name):
                raise CatalogError(f"{where}: unknown attribute {rel_name}.{attr_name}")
        if left[0] == right[0]:
            raise CatalogError(f"{where}: self-edges are not supported")
        jsf = ed.get("jsf")
        if jsf is None:
            jsf = default_jsf(relations, left, right)
        elif isinstance(jsf, bool) or not isinstance(jsf, (int, float)) or not (0.0 < jsf <= 1.0):
            raise CatalogError(f"{where}: jsf must be a number in (0, 1]")
        edges.append(JoinCondition.make(left, right, float(jsf)))
        written.append([list(left), list(right), float(jsf)])

    stats = _load_stats(doc.get("stats", {}) or {}, "schema.stats")
    if stats_text is not None:
        try:
            stats_doc = json.loads(stats_text)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"stats: invalid JSON: {exc}") from None
        stats = _load_stats(stats_doc, "stats")

    graph = SchemaGraph(nodes=frozenset(relations), edges=tuple(edges))
    payload = {
        "relations": [
            {"name": r.name, "cardinality": r.cardinality,
             "attributes": [[a.name, a.distinct_count, a.is_key] for a in r.attributes]}
            for r in sorted(relations.values(), key=lambda r: r.name)
        ],
        "fk_edges": written,
        "stats": {"default_ssf": stats.default_ssf,
                  "overrides": dict(sorted(stats.overrides.items()))},
    }
    fingerprint = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return Catalog(relations=relations, graph=graph, stats=stats, fingerprint=fingerprint)


def load_catalog_file(schema_path: str, stats_path: str | None = None) -> Catalog:
    with open(schema_path, encoding="utf-8") as fh:
        schema_text = fh.read()
    stats_text = None
    if stats_path is not None:
        with open(stats_path, encoding="utf-8") as fh:
            stats_text = fh.read()
    return load_catalog(schema_text, stats_text)


def lookup_ssf(catalog: Catalog, relation: str, attribute: str, operator: str,
               canonical: str) -> float:
    """Selectivity of one select predicate.

    Resolution order: explicit override keyed by canonical predicate text,
    then 1/distinct for equality predicates, then the configured default.
    """
    override = catalog.stats.overrides.get(canonical)
    if override is not None:
        return override
    attr = catalog.relation(relation).attribute(attribute)
    if operator == "=":
        return 1.0 / attr.distinct_count
    return catalog.stats.default_ssf


def view_relation(catalog: Catalog, alias: str, column_sources: dict[str, AttrRef],
                  cardinality: float) -> Relation:
    """A block's result as a relation: one non-key column per output column,
    in sorted order, each with its source attribute's distinct count."""
    return Relation(name=alias, cardinality=cardinality, attributes=tuple(
        Attribute(column, catalog.relation(rel).attribute(attr).distinct_count)
        for column, (rel, attr) in sorted(column_sources.items())))


def with_relation(catalog: Catalog, relation: Relation) -> Catalog:
    """`catalog` plus `relation`, in place of any relation of its name.  A
    view has no FK edges, so the edges of a relation it replaces go; the
    stats and the fingerprint stay."""
    edges = tuple(e for e in catalog.graph.edges if relation.name not in e.relations())
    return replace(catalog, relations={**catalog.relations, relation.name: relation},
                   graph=SchemaGraph(catalog.graph.nodes | {relation.name}, edges))


def resolve_jsf(catalog: Catalog, left: AttrRef, right: AttrRef) -> float:
    """jsf of a join condition: the FK edge's value if one matches, else the default rule."""
    jsf = catalog.graph.edge_jsf(*sorted((left, right)))
    return default_jsf(catalog.relations, left, right) if jsf is None else jsf
