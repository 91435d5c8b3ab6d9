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

from dataclasses import dataclass

from . import memo
from .costplan import intern_op
from .memo import Dag, KIND_JOIN, KIND_JOINFILTER, KIND_SELECT


@dataclass(frozen=True)
class JoinOp:
    text: str
    rel_a: str
    rel_b: str
    jsf: float


@dataclass(frozen=True)
class SelectOp:
    text: str
    relation: str
    ssf: float


def expand_forest(dag: Dag, relations: dict[str, float],
                  joins: tuple[JoinOp, ...], selects: tuple[SelectOp, ...] = ()) -> dict[str, int]:
    """Intern every reachable partial combination of the given conditions.

    Returns the final tree assignment (relation -> eq-node) once every
    condition is applied; with a connected join graph that maps every
    relation to the single root eq-node.
    """
    trees: dict[str, int] = {}
    for rel in sorted(relations):
        trees[rel] = memo.ensure_base(dag, rel, relations[rel])

    conditions = sorted(joins + selects, key=lambda c: c.text)
    visited: set[frozenset[str]] = set()
    final_trees: dict[str, int] = {}
    steps: dict[tuple, int] = {}

    def apply_one(state: dict[str, int], cond) -> int:
        """The eq-node `cond` produces over the trees of `state`, interned on
        the first visit of its (text, input eq-nodes) key only."""
        if isinstance(cond, SelectOp):
            key = (cond.text, state[cond.relation])
        else:
            key = (cond.text, state[cond.rel_a], state[cond.rel_b])
        eq = steps.get(key)
        if eq is None:
            if isinstance(cond, SelectOp):
                eq = intern_op(dag, KIND_SELECT, cond.text, key[1:], cond.ssf)
            elif key[1] == key[2]:
                eq = intern_op(dag, KIND_JOINFILTER, cond.text, key[1:2], cond.jsf)
            else:
                eq = intern_op(dag, KIND_JOIN, cond.text, key[1:], cond.jsf)
            steps[key] = eq
        return eq

    def expand(state: dict[str, int], applied: frozenset[str]) -> None:
        if len(applied) == len(conditions):
            final_trees.update(state)
            return
        for cond in conditions:
            if cond.text in applied:
                continue
            eq = apply_one(state, cond)
            next_applied = applied | {cond.text}
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


def join_ops_from_conditions(joins) -> tuple[JoinOp, ...]:
    return tuple(JoinOp(text=j.canonical(), rel_a=j.left[0], rel_b=j.right[0], jsf=j.jsf)
                 for j in joins)


def select_ops_from_conditions(selects) -> tuple[SelectOp, ...]:
    return tuple(SelectOp(text=s.canonical(), relation=s.relation, ssf=s.ssf)
                 for s in selects)
