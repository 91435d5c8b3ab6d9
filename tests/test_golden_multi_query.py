"""Golden digest of multi-query mode over every fixture set.

`sprinkle.optimize_many` runs over each fixture set's flat queries (all but
the nested ones, which multi-query mode rejects), and its output is digested
without node ids, which name nothing a query's output reads.  The digest of
one set covers the shared dag's sorted eq-node lines (signature and the bits
of its size), its sorted arc lines (the eq-node's signature, the op's kind
and detail, its inputs' signatures, the bits of its cost and of its factor),
each query's root signature, and each query's plan key and the bits of its
cost.  Eq-node and arc lines are kept as a count and a sha256; roots and
plans as they are, so a change shows which query it moved.

Regenerate the golden file only for a change meant to alter multi-query
output:

    PYTHONPATH=src python tests/test_golden_multi_query.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

from sprinkleqo import costplan, memo, sprinkle
from sprinkleqo.catalog import load_catalog_file
from sprinkleqo.sqlfront import parse_query

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "multi_query.json"
GROUPS = ("company", "tpch")


def _bits(value: float | None) -> str:
    return "-" if value is None else float(value).hex()


def shared_dag_lines(dag: memo.Dag) -> tuple[list[str], list[str]]:
    """(eq-node lines, arc lines) of a dag, sorted and free of ids."""
    def sig(eq_id: int) -> str:
        return json.dumps(dag.eq_nodes[eq_id].signature)

    eq_lines = sorted(f"{sig(n.id)}\t{_bits(n.est_size)}" for n in dag.eq_nodes.values())
    arc_lines = sorted(
        "\t".join((sig(eq_id), op.kind, op.detail, *map(sig, op.children),
                   _bits(op.op_cost), _bits(op.factor)))
        for eq_id, node in dag.eq_nodes.items()
        for op in (dag.op_nodes[op_id] for op_id in node.child_ops))
    return eq_lines, arc_lines


def _summary(lines: list[str]) -> dict:
    return {"count": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()}


def flat_queries(group: str):
    """The fixture set's catalog and its flat queries as (id, Query), by id."""
    catalog = load_catalog_file(str(FIXTURES / group / "schema.json"))
    queries = [(sql.stem, parse_query(sql.read_text(), catalog))
               for sql in sorted((FIXTURES / group).glob("*.sql"))]
    return catalog, [(qid, q) for qid, q in queries if q.subquery is None]


def digest(group: str) -> dict:
    """The id-free digest of `optimize_many` over one fixture set."""
    catalog, queries = flat_queries(group)
    shared, plans, _ = sprinkle.optimize_many(queries, catalog)
    eq_lines, arc_lines = shared_dag_lines(shared)
    return {
        "eq_nodes": _summary(eq_lines),
        "arcs": _summary(arc_lines),
        "roots": {qid: memo.signature_text(shared.eq_nodes[eq].signature)
                  for qid, eq in sorted(shared.query_roots.items())},
        "plans": {qid: [costplan.plan_key(plan), plan.cum_cost.hex()]
                  for qid, plan in sorted(plans.items())},
    }


def test_multi_query_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert {group: digest(group) for group in GROUPS} == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({group: digest(group) for group in GROUPS},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
