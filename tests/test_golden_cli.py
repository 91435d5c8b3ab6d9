"""Golden digests of the CLI's artifacts on every fixture.

A refactor must leave plans, costs, node counts, exit codes and the bytes of
stdout, stderr, `--out`, `--dot` and `--report` unchanged.  Each fixture
query runs under `optimize` in joindag mode, naive mode and joindag mode
with `--history`; each fixture schema also runs `histdag build`,
`histdag show`, `histdag export-dot` and `bench`, and `histdag add` folds
each fixture query into a copy of the built history.  The sha256 of every
artifact, the saved history bytes included, is compared to
`tests/golden/cli_digests.json`.  The `build_ms` report column is a
wall-clock timing and is blanked before hashing.

Regenerate the golden file only for a change meant to alter artifacts:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from sprinkleqo.analytics import CSV_COLUMNS
from sprinkleqo.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_digests.json"
GROUPS = ("company", "tpch")
_BUILD_MS = CSV_COLUMNS.index("build_ms")


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _read(path: pathlib.Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _report_without_timing(data: bytes | None) -> bytes | None:
    if data is None:
        return None
    rows = list(csv.reader(io.StringIO(data.decode())))
    for row in rows[1:]:
        row[_BUILD_MS] = ""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


def _run(tmp: pathlib.Path, *argv: str, report: pathlib.Path | None = None,
         **files: pathlib.Path) -> dict:
    """Run the CLI once; digests of its exit code, streams and artifacts."""
    for path in (*files.values(), report):
        if path is not None and path.exists():
            path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    result = {"exit": code,
              "stdout": _digest(out.getvalue().replace(str(tmp), "<tmp>").encode()),
              "stderr": _digest(err.getvalue().replace(str(tmp), "<tmp>").encode())}
    for name, path in files.items():
        result[name] = _digest(_read(path))
    if report is not None:
        result["report"] = _digest(_report_without_timing(_read(report)))
    return result


def collect(group: str, tmp: pathlib.Path) -> dict[str, dict]:
    """Digests of every CLI run over one fixture directory."""
    schema = str(FIXTURES / group / "schema.json")
    hist = tmp / "history.json"
    plan, dot, report = tmp / "plan.json", tmp / "dag.dot", tmp / "report.csv"
    cases = {
        "histdag-build": _run(tmp, "histdag", "build", "--schema", schema,
                              "--out", str(hist), out=hist),
        "histdag-show": _run(tmp, "histdag", "show", "--schema", schema,
                             "--history", str(hist)),
        "histdag-export-dot": _run(tmp, "histdag", "export-dot", "--history", str(hist),
                                   "--dot", str(dot), dot=dot),
        "bench": _run(tmp, "bench", "--schema", schema,
                      "--queries", str(FIXTURES / group), "--report", str(report),
                      report=report),
    }
    grown = tmp / "grown.json"
    for sql in sorted((FIXTURES / group).glob("*.sql")):
        grown.write_bytes(hist.read_bytes())
        cases[f"{sql.stem}/histdag-add"] = _run(
            tmp, "histdag", "add", "--schema", schema, "--history", str(grown),
            "--query", str(sql))
        cases[f"{sql.stem}/histdag-add"]["history"] = _digest(_read(grown))
        for mode, extra in (("joindag", ()), ("naive", ("--mode", "naive")),
                            ("history", ("--history", str(hist)))):
            cases[f"{sql.stem}/{mode}"] = _run(
                tmp, "optimize", "--schema", schema, "--query", str(sql), *extra,
                "--out", str(plan), "--dot", str(dot), "--report", str(report),
                report=report, out=plan, dot=dot)
    return cases


@pytest.mark.parametrize("group", GROUPS)
def test_cli_artifacts_match_golden(group, tmp_path):
    golden = json.loads(GOLDEN.read_text())[group]
    cases = collect(group, tmp_path)
    # every case and artifact that differs, so one run shows all that changed
    changed = [f"{name}: {artifact}"
               for name in sorted(cases.keys() | golden.keys())
               for artifact in sorted(cases.get(name, {}).keys() | golden.get(name, {}).keys())
               if cases.get(name, {}).get(artifact, "<absent>")
               != golden.get(name, {}).get(artifact, "<absent>")]
    assert not changed, f"{len(changed)} artifacts differ: " + "; ".join(changed)


if __name__ == "__main__":
    digests = {}
    for group in GROUPS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[group] = collect(group, pathlib.Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
