"""Pre-computed join-order history.

The history dag holds every join order over the known join conditions,
grouped by connected component of the join graph, each op-node interned once
(see `forest`).  Queries then reuse it: optimizing a query means looking up
its full-join eq-node, copying the subgraph below it node for node
(`memo.Dag.copy_below`) and decorating the copy's orders, never enumerating
or deriving them again.

Incremental builds accept a batch of join conditions.  Conditions already
known only bump the version; otherwise each connected component of the union
join set that contains at least one new condition is re-enumerated (interning
makes that idempotent over the orders already present), and components made
only of known conditions are skipped entirely.  The tests verify that any
sequence of incremental builds lands on the same graph as one complete build
over the union.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from . import costplan, forest, memo
from .catalog import Catalog, components
from .errors import LimitExceededError, PersistenceError, ValidationError
from .ioutil import atomic_write_text, locked, read_text
from .memo import Dag
from .sqlfront import JoinCondition

HISTORY_FORMAT = 1


@dataclass
class HistoryDag:
    """Versioned store of all join orders seen so far."""

    dag: Dag
    known_joins: dict[str, JoinCondition]
    version: int
    catalog_fingerprint: str
    last_build_combinations: int = 0

    def clone(self) -> "HistoryDag":
        return HistoryDag(dag=self.dag.clone(), known_joins=dict(self.known_joins),
                          version=self.version,
                          catalog_fingerprint=self.catalog_fingerprint,
                          last_build_combinations=self.last_build_combinations)


def combinations_considered(n_joins: int) -> int:
    """Analytic size of the join-order space for one component."""
    return math.factorial(n_joins)


def empty_history(catalog: Catalog) -> HistoryDag:
    return HistoryDag(dag=Dag(), known_joins={}, version=0,
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


def _component_root_id(rels: frozenset[str]) -> str:
    return "component:" + "+".join(sorted(rels))


def _refresh_roots(history: HistoryDag) -> None:
    """Re-register one root per current component (components can merge)."""
    history.dag.query_roots.clear()
    for rels, texts in _components(history.known_joins):
        sig = memo.make_signature(rels, texts, (), ())
        eq = history.dag.find_eq(sig)
        if eq is None:
            raise ValidationError(f"missing full-join node for component {sorted(rels)}")
        memo.register_root(history.dag, _component_root_id(rels), eq)


def build_incremental(history: HistoryDag, joins: tuple[JoinCondition, ...],
                      catalog: Catalog, limit: int = 8) -> HistoryDag:
    """Fold a batch of join conditions into the history.

    Returns a new HistoryDag; the input is not mutated.  Raises
    LimitExceededError when any affected component would exceed `limit`
    conditions and ValidationError on a catalog mismatch.
    """
    if catalog.fingerprint != history.catalog_fingerprint:
        raise ValidationError("catalog does not match the one this history was built from")
    for cond in joins:
        for rel in cond.relations():
            catalog.relation(rel)  # unknown relation -> CatalogError

    new_texts = {c.canonical(): c for c in joins}
    fresh = {t: c for t, c in new_texts.items() if t not in history.known_joins}
    out = history.clone()
    out.version += 1
    out.last_build_combinations = 0
    if not fresh:
        return out

    out.known_joins.update(fresh)
    for rels, texts in _components(out.known_joins):
        if not any(t in fresh for t in texts):
            continue  # purely old component: already enumerated
        if len(texts) > limit:
            raise LimitExceededError("join-order expansion", len(texts), limit)
        relations = {r: float(catalog.relation(r).cardinality) for r in sorted(rels)}
        join_ops = forest.join_ops_from_conditions(
            tuple(out.known_joins[t] for t in texts))
        forest.expand_forest(out.dag, relations, join_ops)
        out.last_build_combinations += combinations_considered(len(texts))
    _refresh_roots(out)
    return out


def build_complete_history(catalog: Catalog, joins: tuple[JoinCondition, ...],
                           limit: int = 8) -> HistoryDag:
    """One-shot build over a join set, as if all conditions arrived at once."""
    return build_incremental(empty_history(catalog), joins, catalog, limit)


def query_join_root(history: HistoryDag, bases: dict[str, float],
                    join_texts: tuple[str, ...]) -> int:
    """Eq-node holding all join orders for one query's join set.

    Single-relation queries intern their base node on demand; anything else
    must already be present from a history build.
    """
    if not join_texts:
        (rel,) = bases
        return memo.ensure_base(history.dag, rel, bases[rel])
    sig = memo.make_signature(bases, join_texts, (), ())
    eq = history.dag.find_eq(sig)
    if eq is None:
        missing = [t for t in join_texts if t not in history.known_joins]
        if missing:
            raise ValidationError(
                f"join conditions not in history: {', '.join(sorted(missing))}")
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
        "known_joins": [[c.left[0], c.left[1], c.right[0], c.right[1], c.jsf]
                        for _, c in sorted(history.known_joins.items())],
        "dag": memo.dag_to_doc(history.dag),
    }


def _checksum(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_history(history: HistoryDag, path: str) -> None:
    """Atomically persist the history with an integrity checksum."""
    doc = _history_doc(history)
    doc["checksum"] = _checksum(_history_doc(history))
    with locked(path):
        atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_history(path: str) -> HistoryDag:
    """Load a persisted history, verifying format, checksum, structure
    (`memo.dag_from_doc`), roots (one full-join node per component of the
    known joins) and size and cost estimates (`costplan.check_estimates`)."""
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
        known: dict[str, JoinCondition] = {}
        for la, lb, ra, rb, jsf in doc["known_joins"]:
            cond = JoinCondition.make((la, lb), (ra, rb), float(jsf))
            known[cond.canonical()] = cond
        history = HistoryDag(dag=memo.dag_from_doc(doc["dag"]), known_joins=known,
                             version=int(doc["version"]),
                             catalog_fingerprint=str(doc["catalog_fingerprint"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed history file {path}: {exc}") from exc
    saved_roots = dict(history.dag.query_roots)
    _refresh_roots(history)
    if history.dag.query_roots != saved_roots:
        raise PersistenceError(f"malformed history file {path}: its roots are not "
                               "the full-join nodes of its known joins")
    costplan.check_estimates(history.dag)
    return history


def verify_catalog(history: HistoryDag, catalog: Catalog) -> None:
    if history.catalog_fingerprint != catalog.fingerprint:
        raise ValidationError(
            "history was built against a different catalog (fingerprint mismatch)")
