"""Acceptance gate: one test per published claim, one PASS/FAIL line each.

Every test prints `[criterion N] PASS|FAIL: ...` so a plain run doubles as a
checklist.  Tolerances are part of each claim: exact integer/rational checks
where stated, 1e-12 relative on the size-estimation grid, and wall-clock
budgets on the bulk randomized checks.
"""

import contextlib
import json
import math
import random
import time
from fractions import Fraction

from sprinkleqo import (analytics, costplan, joindag, memo, naive, sprinkle)
from sprinkleqo.sqlfront import parse_query

from conftest import (FIXTURES, below_structure, chain_catalog, connected_query_sql,
                      enumerate_plans, intern_plan, place_selects_on_plan, random_schema,
                      root_signatures, run_cli)

COMPANY = str(FIXTURES / "company" / "schema.json")


@contextlib.contextmanager
def criterion(number: int, claim: str):
    try:
        yield
    except BaseException as exc:
        print(f"[criterion {number}] FAIL: {claim} ({exc})")
        raise
    print(f"[criterion {number}] PASS: {claim}")


def structure(dag):
    return ({n.signature for n in dag.eq_nodes.values()},
            memo.arc_signature_set(dag))


def chain_sql(j: int, s: int, select_rel: str = "r0") -> str:
    rels = [f"r{i}" for i in range(j + 1)]
    conds = [f"r{i}.a0 = r{i + 1}.a1" for i in range(j)]
    conds += [f"{select_rel}.b > {10 + k}" for k in range(s)]
    sql = "select * from " + ", ".join(rels)
    return sql + (" where " + " and ".join(conds) if conds else "")


def _decimal(x: float) -> Fraction:
    # repr() recovers the decimal the schema actually wrote (0.1, 5000.0, ...)
    return Fraction(repr(x))


def exact_plan_size(plan) -> Fraction:
    if plan.kind == "base":
        return _decimal(plan.est_size)
    sizes = [exact_plan_size(c) for c in plan.children]
    if plan.kind == memo.KIND_JOIN:
        return _decimal(plan.factor) * sizes[0] * sizes[1]
    (a,) = sizes
    if plan.kind in (memo.KIND_SELECT, memo.KIND_HAVING, memo.KIND_JOINFILTER):
        return _decimal(plan.factor) * a
    if plan.kind == memo.KIND_GROUPBY:
        return min(_decimal(plan.factor), a)
    return a


def exact_plan_cost(plan) -> Fraction:
    """Plan cost re-evaluated in exact rational arithmetic over the decimal
    parameter values.

    Floats commit both pipelines to an association order, and plans that tie
    in real arithmetic (both cost exactly 130, say) come out a few ulps apart
    depending on the multiplication order.  Comparing optima therefore has to
    happen on the model's real-valued definition, where ties are ties.
    """
    if plan.kind == "base":
        return Fraction(0)
    below = sum((exact_plan_cost(c) for c in plan.children), Fraction(0))
    sizes = [exact_plan_size(c) for c in plan.children]
    mine = sizes[0] * sizes[1] if plan.kind == memo.KIND_JOIN else sizes[0]
    return below + mine


def unpruned_select_sprinkle(jd, selects):
    """Decorate every join-order plan, keeping all of them (no pruning)."""
    fresh = memo.Dag()
    for query_id, root in sorted(jd.query_roots.items()):
        new_root = None
        for plan in enumerate_plans(jd, root):
            decorated = place_selects_on_plan(plan, selects)
            new_root = intern_plan(fresh, decorated)
        memo.register_root(fresh, query_id, new_root)
    return fresh


def test_criterion_1_reference_time_value():
    with criterion(1, "joindag time complexity of (4, 3) is exactly 2713 "
                      "in under a millisecond"):
        assert analytics.joindag_time_complexity(4, 3) == 2713
        best = min(_timed_call() for _ in range(5))
        assert best < 0.001, f"took {best * 1000:.3f} ms"


def _timed_call() -> float:
    start = time.perf_counter()
    analytics.joindag_time_complexity(4, 3)
    return time.perf_counter() - start


def test_criterion_2_discrepancy_is_surfaced(tmp_path):
    with criterion(2, "naive time complexity of 7 operations is the exact "
                      "rational 311236355.5 and reports flag the quoted "
                      "6356724 as inconsistent"):
        value = analytics.naive_time_complexity(7)
        assert value == Fraction(622472711, 2)
        f = math.factorial(7)
        assert value == f + Fraction(7 * 7 * (f * f + f - 2), 4)  # independent
        assert analytics.format_count(value) == "311236355.5"

        report = tmp_path / "bench.csv"
        code, _, err = run_cli("bench", "--schema", COMPANY,
                               "--queries", str(FIXTURES / "company"),
                               "--report", str(report))
        assert code == 0
        assert "note:" in err and "6356724" in err
        assert "does not satisfy" in err


def test_criterion_3_reported_enumeration_counts(tmp_path):
    with criterion(3, "company query 1 reports 24 naive permutations vs 2 "
                      "join combinations, query 2 reports 720 vs 6"):
        expected = {("q1", "naive"): "permutations_considered=24",
                    ("q1", "joindag"): "join_combinations_considered=2",
                    ("q2", "naive"): "permutations_considered=720",
                    ("q2", "joindag"): "join_combinations_considered=6"}
        for (name, mode), token in expected.items():
            code, out, _ = run_cli(
                "optimize", "--schema", COMPANY, "--mode", mode,
                "--query", str(FIXTURES / "company" / f"{name}.sql"))
            assert code == 0
            assert token in out, f"{name}/{mode}: {out.strip()}"


def test_criterion_4_incremental_equals_complete():
    with criterion(4, "below each batch component's full-join node, iterated "
                      "incremental history builds equal the one-shot complete "
                      "build on 200 random schemas, in either batch order, and "
                      "one batch of every join is that build"):
        rng = random.Random(8101)
        start, apart = time.perf_counter(), 0
        for _ in range(200):
            catalog = random_schema(rng)
            joins = list(catalog.graph.edges)
            complete = joindag.build_complete_history(catalog, tuple(joins))
            rng.shuffle(joins)
            whole = joindag.build_incremental(joindag.empty_history(catalog), tuple(joins),
                                              catalog)
            assert memo.dag_to_doc(whole.dag) == memo.dag_to_doc(complete.dag)
            batches = []
            while joins:
                take = rng.randint(1, len(joins))
                batches.append(tuple(joins[:take]))
                joins = joins[take:]
            grown = []
            for order in (batches, batches[::-1]):
                history = joindag.empty_history(catalog)
                for batch in order:
                    history = joindag.build_incremental(history, batch, catalog)
                grown.append(history)
            for batch in batches:
                parts = joindag._components({cond.canonical(): cond for cond in batch})
                apart += len(parts) > 1
                for rels, texts in parts:
                    signature = memo.make_signature(rels, texts)
                    assert len({below_structure(history, signature)
                                for history in (*grown, complete)}) == 1
            assert structure(grown[0].dag) == structure(grown[1].dag)
            assert set(grown[0].known_joins) == set(complete.known_joins)
        assert apart > 0
        assert time.perf_counter() - start < 60.0


def test_criterion_5_sprinkler_matches_exhaustive_optimum():
    with criterion(5, "join-dag + sprinkling reproduces the exhaustive "
                      "optimum on 500 random join/select instances"):
        rng = random.Random(55021)
        checked = 0
        attempts = 0
        while checked < 500:
            attempts += 1
            assert attempts < 5000, "instance generator starved"
            catalog = random_schema(rng)
            sql = connected_query_sql(catalog, rng, max_selects=2)
            query = parse_query(sql, catalog)
            if len(query.joins) > 3 or len(query.selects) > 2:
                continue
            res = sprinkle.optimize_single(query, catalog)
            baseline = naive.build_naive_dag(query, catalog)
            optimum = min(exact_plan_cost(p) for p in enumerate_plans(
                baseline, baseline.query_roots["q1"]))

            # the sprinkled search space keeps the optimum: exact equality
            jd = sprinkle.extract_query_joindag(res.history, query, catalog, "q1")
            space = unpruned_select_sprinkle(jd, query.selects)
            candidates = enumerate_plans(space, space.query_roots["q1"])
            sprinkled = min(exact_plan_cost(p) for p in candidates)
            if sprinkled != optimum:
                dump = {"sql": sql, "sprinkled": float(sprinkled),
                        "exhaustive": float(optimum)}
                raise AssertionError(f"optimality mismatch: {json.dumps(dump)}")

            # the double-precision search returns it, up to plans that tie
            # at double resolution (their exact costs differ below 1e-12)
            picked = exact_plan_cost(res.plan)
            assert picked - optimum <= optimum * Fraction(1, 10 ** 12), sql
            checked += 1


def test_criterion_6_bounded_growth_per_select():
    with criterion(6, "each sprinkled select grows a p-plan join dag by at "
                      "most p eq-nodes, within the closed-form bound on 500 "
                      "random fixtures"):
        # worst case: every select over the same relation of a join chain
        for j in (2, 3):
            catalog = chain_catalog(j)
            base_query = parse_query(chain_sql(j, 0), catalog)
            history = joindag.build_complete_history(
                catalog, catalog.graph.edges)
            jd = sprinkle.extract_query_joindag(history, base_query, catalog, "q1")
            n_eq, _, p = memo.count_nodes(jd)
            previous = n_eq
            for s in range(1, 5):
                query = parse_query(chain_sql(j, s), catalog)
                grown = unpruned_select_sprinkle(jd, query.selects)
                eq, _, _ = memo.count_nodes(grown)
                assert eq - previous <= p, f"j={j} s={s}: delta {eq - previous} > p={p}"
                assert eq <= analytics.joindag_eqnodes_after_selects(n_eq, p, s)
                previous = eq

        rng = random.Random(6006)
        checked = 0
        while checked < 500:
            catalog = random_schema(rng)
            sql = connected_query_sql(catalog, rng, max_selects=3)
            query = parse_query(sql, catalog)
            if len(query.joins) > 4 or not query.selects:
                continue
            params = analytics.complexity_params_for(query, catalog)
            history = joindag.build_complete_history(
                catalog, catalog.graph.edges)
            jd = sprinkle.extract_query_joindag(history, query, catalog, "q1")
            grown = unpruned_select_sprinkle(jd, query.selects)
            eq, _, _ = memo.count_nodes(grown)
            bound = analytics.joindag_eqnodes_after_selects(
                params.n_eq, params.p, params.q)
            assert eq <= bound, f"{sql}: measured {eq} > bound {bound}"
            checked += 1


def test_criterion_7_count_dominance_and_ratio_trends(tpch_catalog):
    with criterion(7, "join-dag node counts never exceed the exhaustive "
                      "counts (equal only for the zero-join query) and "
                      "count ratios grow with the select dimension"):
        start = time.perf_counter()
        relative = {}
        for name in ("q1", "q2", "q3", "q4"):
            sql = (FIXTURES / "tpch" / f"{name}.sql").read_text()
            query = parse_query(sql, tpch_catalog)
            ndag = naive.build_naive_dag(query, tpch_catalog, 8)
            n_eq, n_op, _ = memo.count_nodes(ndag)
            res = sprinkle.optimize_single(query, tpch_catalog, limit=8)
            j_eq, j_op, _ = memo.count_nodes(res.dag)
            relative[name] = (j_eq, n_eq, j_op, n_op)
            assert j_eq <= n_eq and j_op <= n_op, f"{name}: {relative[name]}"
        assert relative["q1"][0] == relative["q1"][1]
        assert relative["q1"][2] == relative["q1"][3]
        for name in ("q2", "q3", "q4"):
            j_eq, n_eq, j_op, n_op = relative[name]
            assert j_eq < n_eq and j_op < n_op, f"{name}: {relative[name]}"

        for j in (1, 2, 3):
            catalog = chain_catalog(j)
            eq_ratios, op_ratios = [], []
            for s in range(0, 4):
                query = parse_query(chain_sql(j, s), catalog)
                ndag = naive.build_naive_dag(query, catalog, 8)
                n_eq, n_op, _ = memo.count_nodes(ndag)
                res = sprinkle.optimize_single(query, catalog, limit=8)
                j_eq, j_op, _ = memo.count_nodes(res.dag)
                eq_ratios.append(n_eq / j_eq)
                op_ratios.append(n_op / j_op)
            assert eq_ratios == sorted(eq_ratios), f"j={j}: {eq_ratios}"
            assert op_ratios == sorted(op_ratios), f"j={j}: {op_ratios}"
        assert time.perf_counter() - start < 120.0


def test_criterion_8_size_estimation_grid():
    with criterion(8, "join and select size estimates match independent "
                      "re-evaluation on a 1000-case grid to 1e-12 relative"):
        rng = random.Random(88088)
        for _ in range(1000):
            a = rng.uniform(1.0, 1e6)
            b = rng.uniform(1.0, 1e6)
            jsf = rng.uniform(1e-6, 1.0)
            ssf = rng.uniform(1e-6, 1.0)
            joined = costplan.estimate_size("join", (a, b), jsf)
            # evaluate in a different association order
            independent = (Fraction(jsf) * Fraction(a)) * Fraction(b)
            assert abs(joined - independent) <= 1e-12 * independent
            selected = costplan.estimate_size("select", (a,), ssf)
            assert abs(selected - Fraction(ssf) * Fraction(a)) <= \
                1e-12 * Fraction(ssf) * Fraction(a)


def test_criterion_9_persistence_round_trips(tmp_path):
    with criterion(9, "history save/load preserves the graph and later "
                      "incremental builds agree, over 100 random histories"):
        rng = random.Random(9909)
        for i in range(100):
            catalog = random_schema(rng)
            joins = list(catalog.graph.edges)
            rng.shuffle(joins)
            split = rng.randint(0, len(joins))
            first, second = tuple(joins[:split]), tuple(joins[split:])
            h = joindag.build_complete_history(catalog, first)

            path = str(tmp_path / f"h{i}.json")
            joindag.save_history(h, path)
            loaded = joindag.load_history(path)
            joindag.verify_catalog(loaded, catalog)
            assert structure(loaded.dag) == structure(h.dag)
            assert memo.dag_to_doc(loaded.dag) == memo.dag_to_doc(h.dag)
            assert loaded.known_joins == h.known_joins
            assert loaded.version == h.version

            # the reloaded history keeps growing exactly like the original
            grown_mem = joindag.build_incremental(h, second, catalog)
            grown_disk = joindag.build_incremental(loaded, second, catalog)
            assert structure(grown_disk.dag) == structure(grown_mem.dag)
            assert root_signatures(grown_disk.dag) == root_signatures(grown_mem.dag)
            assert grown_disk.version == grown_mem.version
            grown_path = str(tmp_path / f"h{i}g.json")
            joindag.save_history(grown_disk, grown_path)
            assert memo.dag_to_doc(joindag.load_history(grown_path).dag) == \
                memo.dag_to_doc(grown_mem.dag)

            # serialization itself is reproducible byte for byte
            again = str(tmp_path / f"h{i}b.json")
            joindag.save_history(loaded, again)
            with open(path) as f1, open(again) as f2:
                assert f1.read() == f2.read()
