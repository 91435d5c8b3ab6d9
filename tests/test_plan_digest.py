"""Golden digest of the plans, costs and final dags over optbench's streams.

`tests/plan_digest.py --seeds 3` digests every operation of seed 3's
`select_heavy`, `join_heavy` and `naive_baseline` streams (those of
`select_heavy` and `naive_baseline` in two parts, flat and grouped or
ordered operations apart): the winning plan's `plan_key`,
the bits of its cost and its final dag; and the ids of each `join_heavy`
operation's cold history.  Every line it prints, per part and
combined, is compared to `tests/golden/plan_digest.json`, so a change that
moves some plans shows which parts it left alone.  A refactor or a speedup
must leave every line unchanged.

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


def digests() -> dict:
    """Every line `plan_digest.main` prints for SEEDS, by its name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert plan_digest.main(["--seeds", *map(str, SEEDS)]) == 0
    return {"seeds": list(SEEDS),
            **dict(line.split(": ", 1) for line in out.getvalue().splitlines())}


def test_plan_digest_matches_golden():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
