"""Forest-replay enumeration of operator combinations.

A combination is replayed over a forest that starts with one tree per base
relation.  A join whose endpoint relations live in different trees merges
them; a join whose endpoints are already connected degenerates to a unary
filter over that tree (this is how cyclic join graphs close).  A select
always applies to the tree owning its relation.

The forest state after a prefix is a function of the *set* of applied
conditions alone (tree signatures do not depend on arrival order), so instead
of replaying all n! permutations the expansion recurses over applied-sets,
visiting each of the at most 2^n states once.  Interning makes this provably
equal to the union of all permutation replays; the tests check that against a
literal permutation oracle.

A step's output eq-node depends only on the condition and the eq-nodes of
the trees it consumes, and many applied-sets share those (on a chain, most
of them).  Each step is therefore interned once, on its first visit, and a
later visit is one lookup in a table local to the call; the ids, and so the
saved histories, are those of interning every visit.
"""

from __future__ import annotations

from operator import itemgetter

from . import memo
from .catalog import JoinCondition
from .costplan import intern_op
from .memo import Dag, KIND_JOIN, KIND_JOINFILTER, KIND_SELECT
from .sqlfront import SelectCondition


def expand_forest(dag: Dag, relations: dict[str, float],
                  joins: tuple[JoinCondition, ...],
                  selects: tuple[SelectCondition, ...] = ()) -> dict[str, int]:
    """Intern every reachable partial combination of the given conditions.

    Returns the final tree assignment (relation -> eq-node) once every
    condition is applied; with a connected join graph that maps every
    relation to the single root eq-node.
    """
    trees: dict[str, int] = {}
    for rel in sorted(relations):
        trees[rel] = memo.ensure_base(dag, rel, relations[rel])

    # each condition read once: (text, the relations whose trees it consumes,
    # factor); one relation makes it a select
    conditions = sorted([(j.canonical(), j.relations(), j.jsf) for j in joins]
                        + [(s.canonical(), (s.relation,), s.ssf) for s in selects],
                        key=itemgetter(0))
    visited: set[frozenset[str]] = set()
    final_trees: dict[str, int] = {}
    steps: dict[tuple, int] = {}

    def apply_one(state: dict[str, int], text: str, rels: tuple[str, ...],
                  factor: float) -> int:
        """The eq-node the condition produces over the trees of `state`,
        interned on the first visit of its (text, input eq-nodes) key only."""
        if len(rels) == 1:
            key = (text, state[rels[0]])
        else:
            key = (text, state[rels[0]], state[rels[1]])
        eq = steps.get(key)
        if eq is None:
            if len(rels) == 1:
                eq = intern_op(dag, KIND_SELECT, text, key[1:], factor)
            elif key[1] == key[2]:
                eq = intern_op(dag, KIND_JOINFILTER, text, key[1:2], factor)
            else:
                eq = intern_op(dag, KIND_JOIN, text, key[1:], factor)
            steps[key] = eq
        return eq

    def expand(state: dict[str, int], applied: frozenset[str]) -> None:
        if len(applied) == len(conditions):
            final_trees.update(state)
            return
        for text, rels, factor in conditions:
            if text in applied:
                continue
            eq = apply_one(state, text, rels, factor)
            next_applied = applied | {text}
            if next_applied not in visited:
                visited.add(next_applied)
                next_state = dict(state)
                for rel in dag.eq_nodes[eq].signature[0]:
                    next_state[rel] = eq
                expand(next_state, next_applied)

    if not conditions:
        return dict(trees)
    expand(trees, frozenset())
    return final_trees
