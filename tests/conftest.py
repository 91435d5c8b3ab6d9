"""Shared fixtures: catalogs, random schema/query generators, oracles."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction
from operator import itemgetter

import pytest

from sprinkleqo import costplan, memo, naive, sprinkle
from sprinkleqo.analytics import CSV_COLUMNS, MetricsReport, MetricsRow
from sprinkleqo.catalog import Catalog, load_catalog, load_catalog_file
from sprinkleqo.cli import main
from sprinkleqo.costplan import Plan, base_plan
from sprinkleqo.errors import DEFAULT_MAX_OPS, DagError, ValidationError
from sprinkleqo.memo import Dag

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def company_catalog() -> Catalog:
    return load_catalog_file(str(FIXTURES / "company" / "schema.json"))


@pytest.fixture(scope="session")
def tpch_catalog() -> Catalog:
    return load_catalog_file(str(FIXTURES / "tpch" / "schema.json"))


def fixture_sql(group: str, name: str) -> str:
    return (FIXTURES / group / f"{name}.sql").read_text()


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def make_catalog(relations, fk_edges, default_ssf=0.1, overrides=None) -> Catalog:
    doc = {
        "relations": relations,
        "fk_edges": fk_edges,
        "stats": {"default_ssf": default_ssf, "overrides": overrides or {}},
    }
    return load_catalog(json.dumps(doc))


def random_schema(rng: random.Random, max_edges: int = 6) -> Catalog:
    """Random multi-relation catalog with up to max_edges FK edges."""
    n_rel = rng.randint(2, 6)
    relations = []
    for i in range(n_rel):
        card = rng.choice([10, 100, 1000, 5000])
        relations.append({
            "name": f"r{i}",
            "cardinality": float(card),
            "attributes": [
                {"name": "a0", "distinct": rng.randint(2, min(50, card))},
                {"name": "a1", "distinct": rng.randint(2, min(50, card))},
                {"name": "b", "distinct": rng.randint(2, min(20, card))},
            ],
        })
    fk_edges, seen = [], set()
    for _ in range(rng.randint(1, max_edges)):
        a, b = rng.sample(range(n_rel), 2)
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        fk_edges.append({
            "left": f"r{key[0]}.a0",
            "right": f"r{key[1]}.a1",
            "jsf": rng.choice([0.001, 0.01, 0.1, 0.5]),
        })
    return make_catalog(relations, fk_edges,
                        default_ssf=rng.choice([0.05, 0.1, 0.3]))


def chain_catalog(n_joins: int, cardinality: float = 1000.0,
                  jsf: float = 0.01) -> Catalog:
    """r0 - r1 - ... - rn chain joined on a0 = a1."""
    relations = []
    for i in range(n_joins + 1):
        relations.append({
            "name": f"r{i}",
            "cardinality": cardinality,
            "attributes": [
                {"name": "a0", "distinct": 100},
                {"name": "a1", "distinct": 100},
                {"name": "b", "distinct": 50},
            ],
        })
    fk_edges = [{"left": f"r{i}.a0", "right": f"r{i + 1}.a1", "jsf": jsf}
                for i in range(n_joins)]
    return make_catalog(relations, fk_edges)


def connected_query_sql(catalog: Catalog, rng: random.Random,
                        max_selects: int = 2, select_rel: str | None = None) -> str:
    """SELECT * over the largest FK-connected component with random selects."""
    comp = max(catalog.graph.components(), key=len)
    rels = sorted(comp)
    conds = [f"{e.left[0]}.{e.left[1]} = {e.right[0]}.{e.right[1]}"
             for e in catalog.graph.edges
             if e.left[0] in comp and e.right[0] in comp]
    for _ in range(rng.randint(0, max_selects)):
        rel = select_rel or rng.choice(rels)
        conds.append(f"{rel}.b > {rng.randint(1, 40)}")
    sql = f"select * from {', '.join(rels)}"
    if conds:
        sql += " where " + " and ".join(conds)
    return sql


def clause_variants(sql, query, catalog):
    """`sql` grouped, grouped with a having, ordered, and both, on one or two
    of its relations, then ordered on its first and last relation; a
    grouped variant selects its keys and a count, so that it keeps a root
    projection."""
    rels = sorted(query.tables)
    first, last = (query.selects[0].relation if query.selects else rels[0]), rels[-1]

    def keys(*attrs):
        return sql.replace("select *", f"select {', '.join(attrs)}, count(*)", 1)

    return [sql + f" group by {first}.b",
            keys(f"{first}.b", f"{last}.a1") + f" group by {first}.b, {last}.a1 "
                                               "having count(*) > 2",
            sql + f" order by {last}.a0",
            keys(f"{first}.b") + f" group by {first}.b order by {first}.b",
            keys(f"{first}.b", f"{last}.a1") + f" group by {first}.b, {last}.a1 "
                                               f"having count(*) > 1 order by {last}.a1",
            sql + f" order by {rels[0]}.a0, {last}.b"]


# each (join cost of sizes a and b, unary cost of size a), by its join
# cost: the product, the sum, and compare-and-read, whose unary operators
# read and write their input; each rises with every input and has
# cost(r*a, b) >= r*cost(a, b) for r <= 1
COST_FORMULAS = {
    "a*b": (lambda a, b: a * b, lambda a: a),
    "a+b": (lambda a, b: a + b, lambda a: a),
    "a*b+a+b": (lambda a, b: a * b + a + b, lambda a: 2.0 * a),
}


@pytest.fixture(params=list(COST_FORMULAS))
def join_cost_formula(request, monkeypatch):
    """The optimizer under each of `COST_FORMULAS`: `costplan.join_cost` and
    `costplan.unary_cost` swapped, the one definition every search prices
    from."""
    join, unary = COST_FORMULAS[request.param]
    monkeypatch.setattr(costplan, "join_cost", join)
    monkeypatch.setattr(costplan, "unary_cost", unary)


def enumerate_plans(dag: Dag, root_eq: int) -> list[Plan]:
    """All expansions below an eq-node in canonical order.

    Plans share immutable subtrees, so the list stays cheap even when
    alternatives overlap.
    """
    cache: dict[int, list[Plan]] = {}

    def expand(eq_id: int) -> list[Plan]:
        if eq_id in cache:
            return cache[eq_id]
        node = dag.eq_nodes[eq_id]
        if node.is_base:
            out = [base_plan(node.signature[0][0], node.est_size)]
        else:
            out = []
            for op_id in sorted(node.child_ops,
                                key=lambda i: dag.op_nodes[i].sort_key()):
                op = dag.op_nodes[op_id]
                for combo in itertools.product(*(expand(c) for c in op.children)):
                    cost = op.op_cost + sum(c.cum_cost for c in combo)
                    out.append(Plan(kind=op.kind, detail=op.detail, relation=None,
                                    children=tuple(combo), factor=op.factor,
                                    est_size=node.est_size, op_cost=op.op_cost,
                                    cum_cost=cost))
        cache[eq_id] = out
        return out

    return expand(root_eq)


def intern_plan(dag: Dag, plan: Plan) -> int:
    """Intern every node of a plan tree into the memo, each node's inputs
    first and left to right (`costplan.inputs_first`), with the plan's own sizes
    and costs; returns the root eq-node."""
    interned: dict[int, int] = {}   # the id of each plan node -> its eq-node
    for node in costplan.inputs_first(plan):
        interned[id(node)] = (memo.ensure_base(dag, node.relation, node.est_size)
                              if node.kind == "base" else
                              memo.attach_op(dag, node.kind, node.detail,
                                             tuple([interned[id(c)] for c in node.children]),
                                             node.est_size, node.op_cost, node.factor))
    return interned[id(plan)]


def below_structure(history, signature) -> tuple[frozenset, frozenset]:
    """The signatures and arcs of a history's dag below the eq-node of
    `signature`, so that two histories numbered apart compare."""
    below = history.dag.below(history.dag.find_eq(signature))
    return (frozenset(n.signature for n in below.eq_nodes.values()),
            frozenset(memo.arc_signature_set(below)))


def root_signatures(dag: Dag) -> set:
    """The signatures of `dag`'s roots (`memo.dag_roots`), so that two dags
    numbered apart compare; of a history, its components' full-join nodes."""
    return {dag.eq_nodes[root].signature for root in memo.dag_roots(dag)}


def size_and_cost(kind: str, sizes: tuple[float, ...], factor=None) -> tuple[float, float]:
    """The output size and the cost of an op of `kind` over its inputs'
    `sizes`, chosen by their count: `costplan.join_size` and `join_cost`
    over two, `unary_size` and `unary_cost` over one."""
    if len(sizes) == 2:
        a, b = sizes
        return costplan.join_size(a, b, factor), costplan.join_cost(a, b)
    (a,) = sizes
    return costplan.unary_size(kind, a, factor), costplan.unary_cost(a)


def check_estimates(dag: Dag) -> None:
    """Raise DagError unless every op-node's cost, and the size of the
    eq-node above it, are finite and agree (`memo.sizes_agree`) with what
    the `costplan` definitions give over its children's sizes
    (`size_and_cost`)."""
    for node in dag.eq_nodes.values():
        for op_id in node.child_ops:
            op = dag.op_nodes[op_id]
            if op.factor is None and op.kind not in (memo.KIND_PROJECT, memo.KIND_ORDERBY):
                raise DagError(f"{op.kind} op-node {op_id} has no factor")
            size, cost = size_and_cost(
                op.kind, tuple(dag.eq_nodes[c].est_size for c in op.children), op.factor)
            if not (math.isfinite(size) and memo.sizes_agree(node.est_size, size)):
                raise DagError(f"eq-node {node.id} has est_size {node.est_size!r}, "
                               f"but op-node {op_id} gives {size!r}")
            if not (math.isfinite(cost) and memo.sizes_agree(op.op_cost, cost)):
                raise DagError(f"op-node {op_id} has op_cost {op.op_cost!r}, "
                               f"but its inputs give {cost!r}")


def decorate_plan(plan: Plan, selects=(), *, dp=None) -> Dag:
    """The place stage's dag over a memo of one plan, its root registered
    as "plan": the block's selects, group-by and order-by (of `selects`
    alone without `dp`, the block's placement DP) placed on that plan by
    the stage's pass and state walk.  A select on a relation the plan lacks
    is a DagError."""
    dp = dp or sprinkle._Placement(selects)
    one = Dag()
    root = intern_plan(one, plan)
    memo.register_root(one, "plan", root)
    for cond in dp.selects:
        if cond.relation not in one.eq_nodes[root].signature[0]:
            raise DagError(f"relation {cond.relation!r} not a base of this plan")
    return sprinkle._decorate_stage(one, dp, sprinkle._select_floors(one, dp))


def place_selects_on_plan(plan: Plan, selects, *, dp=None) -> Plan:
    """Minimum-cost joint placement of a block's selects, group-by and
    order-by onto one plan: `costplan.best_plan` of `decorate_plan`'s dag,
    whose tie rule picks among the placements that tie."""
    placed = decorate_plan(plan, selects, dp=dp)
    return costplan.best_plan(placed, placed.query_roots["plan"])


def pass_optimum(dp, passed, root: int) -> float:
    """A grouped block's optimum: the least `dp.total` at the full set of
    `root`'s cell over the tiers of the block's pass (`_select_floors`)."""
    full = dp.width - 1
    return min(dp.total(tier[root].best[full], tier[root].size[full])
               for tier in passed.tiers if root in tier)


def root_cell(dag: Dag, dp, passed, root: int):
    """Oracle for the pass's `top`: the cell whose full set is `root`'s
    registered state, the root's plain cell, or with a group-by the root
    cell of the cheapest tier.  Among tiers within memo.SIZE_RTOL of the
    optimum (`pass_optimum`), the landing nearest the root wins: the one
    of most signature entries (bases and joins), and of landings with as
    many the one of least text."""
    if dp.group is None:
        return passed.cells[root]
    full, budget = dp.width - 1, memo.within_rounding(pass_optimum(dp, passed, root))

    def nearness(tier):
        node = dag.eq_nodes[next(iter(tier))]   # a tier's landing comes first
        return -len(node.signature[0]) - len(node.signature[1]), node.text

    return min((tier for tier in passed.tiers if root in tier
                and dp.total(tier[root].best[full], tier[root].size[full]) <= budget),
               key=nearness)[root]


def incremental_naive_add(queries, catalog: Catalog, limit: int = DEFAULT_MAX_OPS) -> Dag:
    """The baseline memo with extra queries folded in: the baseline keeps no
    versioned history, so adding a query expands every query (`queries`,
    each with its id) again into one fresh shared memo."""
    fresh = Dag()
    for qid, query in queries:
        naive.build_naive_dag(query, catalog, limit, query_id=qid, dag=fresh)
    return fresh


def visited_expand_forest(dag: Dag, relations: dict[str, float], joins,
                          selects=()) -> dict[str, int]:
    """`forest.expand_forest` as it was when it kept a set of the
    applied-sets it had visited, and recursed into each on its first visit
    found in that set.  The oracle of the ids of the walk that keeps none."""
    names = sorted(relations)
    index = {rel: i for i, rel in enumerate(names)}
    trees = [memo.ensure_base(dag, rel, relations[rel]) for rel in names]
    if not joins and not selects:
        return dict(zip(names, trees))
    conditions = sorted([(j.canonical(), j.relations(), j.jsf) for j in joins]
                        + [(s.canonical(), (s.relation,), s.ssf) for s in selects],
                        key=itemgetter(0))
    conditions = [(1 << bit, text, index[rels[0]], index[rels[-1]], len(rels) == 1, factor, {})
                  for bit, (text, rels, factor) in enumerate(conditions)]
    everything = (1 << len(conditions)) - 1
    visited: set[int] = set()
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
            if eq is None:
                if is_select:
                    eq = costplan.intern_op(dag, memo.KIND_SELECT, text, (left,), factor)
                elif left == right:
                    eq = costplan.intern_op(dag, memo.KIND_JOINFILTER, text, (left,), factor)
                else:
                    eq = costplan.intern_op(dag, memo.KIND_JOIN, text, key, factor)
                steps[key] = eq
            if applied | bit not in visited:
                visited.add(applied | bit)
                expand([eq if t == left or t == right else t for t in state], applied | bit)

    expand(trees, 0)
    return dict(zip(names, final))


def parse_count(text: str) -> Fraction | None:
    """A count as `analytics.format_count` writes it; None for empty text."""
    return None if text == "" else Fraction(text)


def report_from_csv(text: str) -> MetricsReport:
    """The rows of a metrics CSV (`analytics.report_to_csv`) read back;
    ValidationError on a wrong header or row width."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValidationError(f"metrics CSV must start with header {CSV_COLUMNS}")
    out: list[MetricsRow] = []
    for raw in rows[1:]:
        if len(raw) != len(CSV_COLUMNS):
            raise ValidationError(f"metrics CSV row has {len(raw)} fields: {raw!r}")
        (query_id, mode, eq_nodes, op_nodes, plans, build_ms, best_cost,
         est_eq, est_plans, est_time, status) = raw
        out.append(MetricsRow(
            query_id=query_id, mode=mode,
            eq_nodes=None if eq_nodes == "" else int(eq_nodes),
            op_nodes=None if op_nodes == "" else int(op_nodes),
            plans=None if plans == "" else int(plans),
            build_ms=None if build_ms == "" else float(build_ms),
            best_cost=None if best_cost == "" else float(best_cost),
            est_eq_nodes=None if est_eq == "" else int(est_eq),
            est_plans=None if est_plans == "" else int(est_plans),
            est_time_complexity=parse_count(est_time),
            status=status))
    return MetricsReport(rows=out, notes=[])
