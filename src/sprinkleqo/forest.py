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

The walk is depth first over the conditions in text order.  An applied-set
is a bit mask over that order, and a forest state a list that maps each
relation (by its index in name order) to the eq-node of its tree.  From
each applied-set it touches the step of every condition not yet applied,
in text order, but recurses only into a set whose added condition comes
after all of its own.  That reaches each set once, from the set without
its last condition, and that is the set's first visit: the walk visits
applied-sets in lexicographic order of their sorted conditions, and adding
a condition before the last one gives a set earlier in that order, one
already visited.  So the walk keeps no set of visited applied-sets, and
touches every step, and so interns every node, in the order of a walk that
kept one.
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
    names = sorted(relations)
    index = {rel: i for i, rel in enumerate(names)}
    trees = [memo.ensure_base(dag, rel, relations[rel]) for rel in names]
    if not joins and not selects:
        return dict(zip(names, trees))

    # each condition read once: (bit, text, indices of the relations whose
    # trees it consumes (one twice for a select), factor, its steps: the
    # input eq-nodes -> the output eq-node)
    conditions = sorted([(j.canonical(), j.relations(), j.jsf) for j in joins]
                        + [(s.canonical(), (s.relation,), s.ssf) for s in selects],
                        key=itemgetter(0))
    conditions = [(1 << bit, text, index[rels[0]], index[rels[-1]], len(rels) == 1, factor, {})
                  for bit, (text, rels, factor) in enumerate(conditions)]
    everything = (1 << len(conditions)) - 1
    final: list[int] = []

    def expand(state: list[int], applied: int) -> None:
        if applied == everything:
            final[:] = state
            return
        for bit, text, i, j, is_select, factor, steps in conditions:
            if applied & bit:
                continue
            key = left, right = state[i], state[j]
            eq = steps.get(key)
            if eq is None:   # the first visit of this step interns it
                if is_select:
                    eq = intern_op(dag, KIND_SELECT, text, (left,), factor)
                elif left == right:
                    eq = intern_op(dag, KIND_JOINFILTER, text, (left,), factor)
                else:
                    eq = intern_op(dag, KIND_JOIN, text, key, factor)
                steps[key] = eq
            if bit > applied:   # the first visit of applied | bit
                # the step's input trees become its output
                expand([eq if t == left or t == right else t for t in state], applied | bit)

    expand(trees, 0)
    return dict(zip(names, final))
