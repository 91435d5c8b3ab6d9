"""Golden digest of the plans, costs and final dags over optbench's streams.

`tests/plan_digest.py --seeds 3` digests every operation of seed 3's
`select_heavy`, `join_heavy` and `naive_baseline` streams: the winning
plan's `plan_key`, the bits of its cost and its final dag.  Its four
combined lines are compared to `tests/golden/plan_digest.json`.  A
refactor or a speedup must leave them unchanged.

Regenerate the golden file only for a change meant to move plans, costs or
final dags:

    PYTHONPATH=src python tests/test_plan_digest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import plan_digest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "plan_digest.json"
SEEDS = (3,)
LINES = ("plan keys", "all", "naive plan keys", "naive")


def combined_digests() -> dict:
    """The combined lines `plan_digest.main` prints for SEEDS."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert plan_digest.main(["--seeds", *map(str, SEEDS)]) == 0
    lines = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                 if line.split(": ", 1)[0] in LINES)
    return {"seeds": list(SEEDS), **{name: lines[name] for name in LINES}}


def test_plan_digest_matches_golden():
    assert combined_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(combined_digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
