"""Pre-computed join-order history.

The history dag holds every join order over the known join conditions,
grouped by connected component of the join graph, each op-node interned once
(see `forest`).  Queries then reuse it: optimizing a query means looking up
its full-join eq-node and decorating the orders below it, never enumerating
or deriving them again.  Every query, whether its history was just built
from empty for its joins alone or already held them, reads the part below
that node in place (`memo.Dag.below`), without copying it.

Its prices are pre-computed too.  An eq-node's join-only size, least cost
and tied op-nodes depend only on the catalog, so each history version
keeps one price table (`Prices`), the winner table of a Cascades memo
(Graefe, "The Cascades Framework for Query Optimization", 1995).  It holds
the cell of each eq-node a block has priced with nothing placed at or
below it, the cell the placement DP gives a block with nothing to place
(`sprinkle._PLAIN`), filled by the place stage's own pass, and what each
query root reaches with its inputs-first order.  It is filled on demand,
never at build or load, and never saved.  A version that only bumps the
number (`dataclasses.replace`) shares its table; one with new joins is a
`clone`, which starts an empty one.  A join dag the table did not give
(built by hand, or renumbered) prices into an empty table of its own.

Incremental builds accept a batch of join conditions.  Conditions already
known only bump the version, over the same dag; otherwise the new ones are
kept as the history's next batch, each connected component of the union
join set that contains at least one of them is re-enumerated (interning
makes that idempotent over the orders already present), and components
made only of known conditions are skipped entirely.  The tests verify that
any sequence of incremental builds lands on the same graph as one complete
build over the union.

A saved history (format 2) holds the input its dag is built from, not the
dag: its batches in order, and the cardinality of each joined relation.
Loading it replays those batches through the same build step as
`build_incremental` (`_grow`), with the stored cardinalities and no limit,
so it needs no schema, a history grown past the default limit still
loads, and every id comes out as the builds gave it.  The file is accepted
only if its replay saves to the same document; that one comparison refuses
a join repeated across batches, an empty batch, and a missing or extra
relation.  So a load costs what the builds cost, and no more.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from . import forest, memo
from .catalog import Catalog, JoinCondition, checked_cardinality, components
from .errors import (DEFAULT_MAX_OPS, CatalogError, DagError, LimitExceededError,
                     PersistenceError, ValidationError)
from .ioutil import atomic_write_text, read_text
from .memo import Dag

HISTORY_FORMAT = 2


class Prices:
    """The price table of one dag (see the module docstring), filled on
    demand.  `nodes` maps each eq-node priced so far to the place stage's
    DP cell of it with nothing to place (`sprinkle._PLAIN`'s), which the
    stage's pass fills when it first meets the eq-node.  `views` maps
    each root asked for to the eq-node and op-node maps below it and their
    inputs-first order (`below`)."""

    __slots__ = ("dag", "nodes", "views")

    def __init__(self, dag: Dag):
        self.dag = dag
        self.nodes: dict = {}
        self.views: dict[int, tuple[dict, dict, list[int]]] = {}

    def below(self, root: int) -> Dag:
        """`dag.below(root)`, walked once per root and kept with its
        inputs-first order; each call returns a new view of the kept maps
        (`Dag.view`) that carries this table as its `prices` and the kept
        order as its `order`.  The table keeps maps, not the view, so that
        nothing it holds refers back to it, and a history no block reads
        any longer is freed at once."""
        kept = self.views.get(root)
        if kept is None:
            view = self.dag.below(root)
            kept = self.views[root] = (view.eq_nodes, view.op_nodes,
                                       memo.topological_order(view)[::-1])
        out = self.dag.view(kept[0], kept[1])
        out.prices, out.order = self, kept[2]
        return out


@dataclass
class HistoryDag:
    """Versioned store of all join orders seen so far, the batches of fresh
    joins it grew from (each sorted by text), and the price table of its
    dag, which a version made by `dataclasses.replace` shares and a `clone`
    starts again."""

    dag: Dag
    known_joins: dict[str, JoinCondition]
    batches: list[tuple[JoinCondition, ...]]
    version: int
    catalog_fingerprint: str
    prices: Prices | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.prices is None:
            self.prices = Prices(self.dag)

    def clone(self) -> "HistoryDag":
        return HistoryDag(dag=self.dag.clone(), known_joins=dict(self.known_joins),
                          batches=list(self.batches), version=self.version,
                          catalog_fingerprint=self.catalog_fingerprint)


def combinations_considered(n_joins: int) -> int:
    """Analytic size of the join-order space for one component."""
    return math.factorial(n_joins)


def empty_history(catalog: Catalog) -> HistoryDag:
    return HistoryDag(dag=Dag(), known_joins={}, batches=[], version=0,
                      catalog_fingerprint=catalog.fingerprint)


def _components(joins: dict[str, JoinCondition]) -> list[tuple[frozenset[str], tuple[str, ...]]]:
    """Connected components of the join graph: (relations, join texts)."""
    pairs = [cond.relations() for cond in joins.values()]
    out = []
    for rels in components({rel for pair in pairs for rel in pair}, pairs):
        texts = tuple(sorted(t for t, c in joins.items()
                             if c.relations()[0] in rels))
        out.append((rels, texts))
    return out


def build_incremental(history: HistoryDag, joins: tuple[JoinCondition, ...],
                      catalog: Catalog, limit: int = DEFAULT_MAX_OPS) -> HistoryDag:
    """Fold a batch of join conditions into the history.

    Returns a new HistoryDag; the input is not mutated.  A batch with no new
    condition returns one over the input's dag and known joins, not a copy
    of them.  Raises LimitExceededError when any affected component would
    exceed `limit` conditions and ValidationError on a catalog mismatch.
    """
    verify_catalog(history, catalog)
    for cond in joins:
        for rel in cond.relations():
            catalog.relation(rel)  # unknown relation -> CatalogError

    return _grow(history, joins, lambda rel: float(catalog.relation(rel).cardinality),
                 limit)


def _grow(history: HistoryDag, joins: Iterable[JoinCondition],
          size: Callable[[str], float], limit: int | None) -> HistoryDag:
    """The one build step, which `build_incremental` and `load_history`
    both run: `history` with the joins it does not know yet added as one
    batch, each component that holds one of them expanded over relations
    of `size(rel)` rows.  It registers no root: each component's full-join
    node is a parentless eq-node, which `memo.dag_roots` finds.  With no
    such join, only the version moves.  Raises LimitExceededError when an
    expanded component has more than `limit` joins (`None`: no limit).  Of
    joins with one canonical text, the first is kept, as a parsed query
    keeps it."""
    new_texts = {}
    for cond in joins:
        new_texts.setdefault(cond.canonical(), cond)
    fresh = {t: c for t, c in new_texts.items() if t not in history.known_joins}
    if not fresh:
        return replace(history, version=history.version + 1)
    out = history.clone()
    out.version += 1
    out.known_joins.update(fresh)
    out.batches.append(tuple(fresh[t] for t in sorted(fresh)))
    for rels, texts in _components(out.known_joins):
        if not any(t in fresh for t in texts):
            continue  # purely old component: already enumerated
        if limit is not None and len(texts) > limit:
            raise LimitExceededError("join-order expansion", len(texts), limit)
        forest.expand_forest(out.dag, {r: size(r) for r in sorted(rels)},
                             tuple(out.known_joins[t] for t in texts))
    return out


def build_complete_history(catalog: Catalog, joins: tuple[JoinCondition, ...],
                           limit: int = DEFAULT_MAX_OPS) -> HistoryDag:
    """One-shot build over a join set, as if all conditions arrived at once."""
    return build_incremental(empty_history(catalog), joins, catalog, limit)


def query_join_root(history: HistoryDag, tables: Iterable[str],
                    join_texts: tuple[str, ...]) -> int:
    """Eq-node holding all join orders for one query's join set over its
    `tables` (names), which a history build must already have added; the
    history is only read.
    """
    sig = memo.make_signature(tables, join_texts, (), ())
    eq = history.dag.find_eq(sig)
    if eq is None:
        missing = [t for t in join_texts if t not in history.known_joins]
        if missing:
            raise ValidationError(
                f"join conditions not in history: {', '.join(sorted(missing))}")
        if not join_texts:
            raise ValidationError(f"base relation not in history: {', '.join(sorted(tables))}")
        raise ValidationError(
            "query join set spans history components that were never joined")
    return eq


# -- persistence -------------------------------------------------------------

def _history_doc(history: HistoryDag) -> dict:
    return {
        "format": HISTORY_FORMAT,
        "kind": "join-history",
        "catalog_fingerprint": history.catalog_fingerprint,
        "version": history.version,
        "batches": [[[c.left[0], c.left[1], c.right[0], c.right[1], c.jsf] for c in batch]
                    for batch in history.batches],
        "relations": {node.signature[0][0]: node.est_size
                      for node in history.dag.eq_nodes.values() if node.is_base},
    }


def _checksum(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_history(history: HistoryDag, path: str) -> None:
    """Atomically persist the history with an integrity checksum.  A caller
    that reads, grows and saves a history holds `ioutil.locked(path)` across
    the whole cycle; the lock is not re-entrant, so this does not take it."""
    doc = _history_doc(history)
    doc["checksum"] = _checksum(doc)
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _saved_join(la, lb, ra, rb, jsf) -> JoinCondition:
    """One saved `[rel, attr, rel, attr, jsf]` entry: names are strings and
    the jsf is in (0, 1]."""
    if not all(isinstance(name, str) for name in (la, lb, ra, rb)):
        raise TypeError(f"join {[la, lb, ra, rb]!r} names a non-string")
    cond = JoinCondition.make((la, lb), (ra, rb), float(jsf))
    if not 0.0 < cond.jsf <= 1.0:
        raise ValueError(f"jsf {jsf!r} of {cond.canonical()} is not in (0, 1]")
    return cond


def load_history(path: str) -> HistoryDag:
    """Load a persisted history, verifying its format and checksum, and that
    it is exactly the history its batches build: each join's jsf is in
    (0, 1], each joined relation's cardinality passes the catalog's rule
    (`catalog.checked_cardinality`), and replaying the batches in order, as
    `build_incremental` grew them but with no limit, saves to the same
    document."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"history file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "join-history":
        raise PersistenceError(f"{path} is not a join-history file")
    if doc.get("format") != HISTORY_FORMAT:
        raise PersistenceError(
            f"unsupported history format {doc.get('format')!r} in {path}")
    body = {k: v for k, v in doc.items() if k != "checksum"}
    if doc.get("checksum") != _checksum(body):
        raise PersistenceError(f"checksum mismatch in {path}: file is corrupt")
    try:
        batches = [[_saved_join(*join) for join in batch] for batch in doc["batches"]]
        sizes = {rel: checked_cardinality(doc["relations"][rel], f"relation {rel}")
                 for batch in batches for cond in batch for rel in cond.relations()}
        history = HistoryDag(dag=Dag(), known_joins={}, batches=[], version=0,
                             catalog_fingerprint=str(doc["catalog_fingerprint"]))
        for batch in batches:
            history = _grow(history, batch, sizes.__getitem__, None)
        history.version = int(doc["version"])
    except (LookupError, TypeError, ValueError, OverflowError, CatalogError, DagError) as exc:
        raise PersistenceError(f"malformed history file {path}: {exc}") from exc
    if _history_doc(history) != body:
        raise PersistenceError(f"malformed history file {path}: it is not the history "
                               "its batches build")
    return history


def verify_catalog(history: HistoryDag, catalog: Catalog) -> None:
    if history.catalog_fingerprint != catalog.fingerprint:
        raise ValidationError(
            "history was built against a different catalog (fingerprint mismatch)")
