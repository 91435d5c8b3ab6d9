"""Pre-computed join-order history.

The history dag holds every join order over each join set it was given,
grouped by connected component of that set, each op-node interned once
(see `forest`).  Queries then reuse it: optimizing a query means looking up
its full-join eq-node and decorating the orders below it, never enumerating
or deriving them again.  Every query, whether its history was just built
from empty for its joins alone or already held them, reads the part below
that node in place, without copying it: the whole dag when that node is
its history's one root, as a cold block's is, since every eq-node of such
a history lies below it, and otherwise the part `memo.Dag.below` walks.

Its prices are pre-computed too.  An eq-node's join-only size, least cost
and tied op-nodes depend only on the catalog, so each history version
keeps one price table (`HistoryDag.prices`), the winner table of a
Cascades memo (Graefe, "The Cascades Framework for Query Optimization",
1995).  It holds the cell of each eq-node a block has priced with nothing
placed at or below it, the cell the placement DP gives a block with
nothing to place (`sprinkle._PLAIN`), filled by the place stage's own
pass; beside it the history keeps what each query root reaches with its
inputs-first order (`HistoryDag.views`).  Both are filled on demand, never
at build or load, and never saved.  A version that only bumps the number
(`dataclasses.replace`) shares them; one that grows is a `clone`,
which starts empty ones.  A join dag the history did not give (built by
hand, or renumbered) prices into an empty table of its own.

Incremental builds accept a batch of join conditions, one query's join
set, as the paper takes each query's joins when it runs.  A batch whose
every connected component has its full-join eq-node in the history only
bumps the version, over the same dag; otherwise it is kept whole as the
history's next batch, and each component the history lacks is enumerated
(interning makes that idempotent over the orders already present).  No
component grows past its batch: the tests verify that below each batch
component's full-join node any sequence of builds gives the complete one.

A saved history (format 2) holds the input its dag is built from, not the
dag: its batches in order, and the cardinality of each joined relation.
Loading it replays those batches through the same build step as
`build_incremental` (`_grow`), with the stored cardinalities and no limit,
so it needs no schema, a history grown past the default limit still
loads, and every id comes out as the builds gave it.  The file is accepted
only if its replay saves to the same document; that one comparison refuses
a batch its history already held (an empty one too), a join repeated in a
batch, and a missing or extra relation.  A bool equals 0 or 1 there, so
the loader refuses a bool jsf or version, and a version below the number
of batches.  So a load costs what the builds cost, and no more.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from . import forest, memo
from .catalog import Catalog, JoinCondition, checked_cardinality, components, resolve_jsf
from .errors import (DEFAULT_MAX_OPS, CatalogError, DagError, LimitExceededError,
                     PersistenceError, ValidationError)
from .ioutil import atomic_write_text, read_text
from .memo import Dag

HISTORY_FORMAT = 2


@dataclass
class HistoryDag:
    """Versioned store of all join orders seen so far, the batches (join
    sets) it grew from (each sorted by text), and the price table of its
    dag (see the module docstring), filled on demand, which a version made
    by `dataclasses.replace` shares and a `clone` starts again.  `prices`
    maps each eq-node priced so far to the place stage's DP cell of it with
    nothing to place (`sprinkle._PLAIN`'s), which the stage's pass fills
    when it first meets the eq-node; `views` maps each root asked for to
    the eq-node and op-node maps below it and their inputs-first order
    (`below`).  `known_joins` reads its joins off the batches."""

    dag: Dag
    batches: list[tuple[JoinCondition, ...]]
    version: int
    catalog_fingerprint: str
    prices: dict = field(default_factory=dict, repr=False, compare=False)
    views: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def known_joins(self) -> dict[str, JoinCondition]:
        """Every join of the batches, by canonical text; two batches may share one."""
        return {cond.canonical(): cond for batch in self.batches for cond in batch}

    def clone(self) -> "HistoryDag":
        return HistoryDag(dag=self.dag.clone(), batches=list(self.batches),
                          version=self.version, catalog_fingerprint=self.catalog_fingerprint)

    def below(self, root: int) -> Dag:
        """`dag.below(root)`, kept once per root with its inputs-first
        order; each call returns a new view of the kept maps (`Dag.view`)
        that carries the price table as its `prices` and the kept order as
        its `order`.  A root whose key holds every base and join bit of the
        dag's registry is its history's one root, and every eq-node of a
        history `_grow` built lies below it: each connected join subset is
        reached from the full one by dropping joins.  So that root keeps the
        dag's own maps and is not walked; every other root is walked
        (`Dag.below`).  `views` keeps maps, not the view, so that nothing
        it holds refers back to the history, and a history no block reads
        any longer is freed at once."""
        kept = self.views.get(root)
        if kept is None:
            dag = self.dag
            (bases, joins, *_), (base_bits, join_bits, _) = dag.eq_nodes[root].key, dag._bits
            if bases + 1 == 1 << len(base_bits) and joins + 1 == 1 << len(join_bits):
                kept = dag.eq_nodes, dag.op_nodes, memo.topological_order(dag)[::-1]
            else:
                view = dag.below(root)
                kept = view.eq_nodes, view.op_nodes, memo.topological_order(view)[::-1]
            self.views[root] = kept
        out = self.dag.view(kept[0], kept[1])
        out.prices, out.order = self.prices, kept[2]
        return out


def combinations_considered(n_joins: int) -> int:
    """Analytic size of the join-order space for one component."""
    return math.factorial(n_joins)


def empty_history(catalog: Catalog) -> HistoryDag:
    return HistoryDag(dag=Dag(), batches=[], version=0, catalog_fingerprint=catalog.fingerprint)


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

    Returns a new HistoryDag; the input is not mutated.  A batch whose
    components the history holds returns one over the input's dag and
    batches, not a copy of them.  Raises LimitExceededError when a component
    of the batch that the history lacks has more than `limit` conditions,
    and ValidationError on a catalog mismatch.
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
    both run: `history` with the batch `joins` added whole, each connected
    component of it whose full-join eq-node the history lacks expanded over
    relations of `size(rel)` rows.  It registers no root: `memo.dag_roots`
    finds the parentless eq-nodes.  A batch whose components are all there,
    an empty one too, only moves the version; a connected one finds that in
    one lookup.  Raises LimitExceededError when a component to expand has
    more than `limit` joins (`None`: no limit).  Of joins with one canonical
    text, the first is kept, as a parsed query keeps it."""
    batch, tables = {}, set()
    for cond in joins:
        batch.setdefault(cond.canonical(), cond)
        tables.update(cond.relations())
    find = history.dag.find_eq
    missing = [] if find(memo.make_signature(tables, batch)) is not None else [
        (rels, texts) for rels, texts in _components(batch)
        if find(memo.make_signature(rels, texts)) is None]
    if not missing:
        return replace(history, version=history.version + 1)
    out = history.clone()
    out.version += 1
    out.batches.append(tuple(batch[t] for t in sorted(batch)))
    for rels, texts in missing:
        if limit is not None and len(texts) > limit:
            raise LimitExceededError("join-order expansion", len(texts), limit)
        forest.expand_forest(out.dag, {r: size(r) for r in sorted(rels)},
                             tuple(batch[t] for t in texts))
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
    eq = history.dag.find_eq(memo.make_signature(tables, join_texts))
    if eq is None:
        what = "join set" if join_texts else "base relation"
        raise ValidationError(f"{what} not in history: "
                              f"{', '.join(sorted(join_texts or tables))}")
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
    the jsf is a number in (0, 1], not a bool."""
    if not all(isinstance(name, str) for name in (la, lb, ra, rb)):
        raise TypeError(f"join {[la, lb, ra, rb]!r} names a non-string")
    cond = JoinCondition.make((la, lb), (ra, rb), float(jsf))
    if isinstance(jsf, bool):
        raise TypeError(f"jsf {jsf!r} of {cond.canonical()} is not a number")
    if not 0.0 < cond.jsf <= 1.0:
        raise ValueError(f"jsf {jsf!r} of {cond.canonical()} is not in (0, 1]")
    return cond


def load_history(path: str) -> HistoryDag:
    """Load a persisted history, verifying its format and checksum, and that
    it is exactly the history its batches build: each join's jsf is a
    number in (0, 1], each joined relation's cardinality passes the
    catalog's rule (`catalog.checked_cardinality`), replaying the batches in
    order, as `build_incremental` grew them with no limit, saves to the same
    document, so that each batch brought a component its history lacked (as
    a batch of joins all new to it does), and the version is a number no
    less than the batches' count."""
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
        history = HistoryDag(dag=Dag(), batches=[], version=0,
                             catalog_fingerprint=str(doc["catalog_fingerprint"]))
        for batch in batches:
            history = _grow(history, batch, sizes.__getitem__, None)
        history.version = int(doc["version"])
    except (LookupError, TypeError, ValueError, OverflowError, CatalogError, DagError) as exc:
        raise PersistenceError(f"malformed history file {path}: {exc}") from exc
    if _history_doc(history) != body:
        raise PersistenceError(f"malformed history file {path}: it is not the history "
                               "its batches build")
    if isinstance(doc["version"], bool) or history.version < len(history.batches):
        raise PersistenceError(f"malformed history file {path}: version {doc['version']!r} "
                               f"is not a number >= its {len(history.batches)} batches")
    return history


def verify_catalog(history: HistoryDag, catalog: Catalog) -> None:
    if history.catalog_fingerprint != catalog.fingerprint:
        raise ValidationError(
            "history was built against a different catalog (fingerprint mismatch)")


def verify_numbers(history: HistoryDag, catalog: Catalog) -> None:
    """That a loaded history was built with the catalog's numbers: each
    relation's cardinality, and each batch join's jsf (`resolve_jsf`).  A
    file whose checksum was sealed again over another valid number passes
    `load_history` and `verify_catalog`, so whatever loads a history checks
    this too; `build_incremental`, whose history comes from the catalog,
    does not."""
    for node in history.dag.eq_nodes.values():
        if node.is_base:
            rel = node.signature[0][0]
            cardinality = float(catalog.relation(rel).cardinality)
            if node.est_size != cardinality:
                raise ValidationError(f"history holds cardinality {node.est_size!r} for "
                                      f"{rel}, the catalog {cardinality!r}")
    for batch in history.batches:
        for cond in batch:
            jsf = resolve_jsf(catalog, cond.left, cond.right)
            if cond.jsf != jsf:
                raise ValidationError(f"history holds jsf {cond.jsf!r} for "
                                      f"{cond.canonical()}, the catalog {jsf!r}")
