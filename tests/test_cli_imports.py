"""Which modules a CLI run imports.

A run imports only the layers its command uses (see the `cli` docstring),
so start-up does not pay for the others.  Each case runs `cli.main` in a
fresh interpreter and lists the modules it added to those the bare
interpreter had loaded before it (whatever `site` loads on a machine does
not count), with every module loaded at the end.
"""

import ast
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

SRC = FIXTURES.parent / "src"
COMPANY = str(FIXTURES / "company" / "schema.json")
Q1 = str(FIXTURES / "company" / "q1.sql")

# prints (exit code, modules the run added, every module loaded at the end)
PROBE = """
import sys
bare = set(sys.modules)
from sprinkleqo import cli
code = cli.main(sys.argv[1:])
print(repr((code, sorted(set(sys.modules) - bare), sorted(sys.modules))))
"""

NAIVE, SPRINKLE, JOINDAG, ANALYTICS = (f"sprinkleqo.{m}" for m in
                                       ("naive", "sprinkle", "joindag", "analytics"))


def probe(tmp_path, *argv, log=None):
    env = {k: v for k, v in os.environ.items() if k != "SPRINKLE_QO_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if log is not None:
        env["SPRINKLE_QO_LOG"] = log
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=str(tmp_path), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, added, loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(added), set(loaded)


@pytest.fixture
def history(tmp_path):
    path = str(tmp_path / "history.json")
    probe(tmp_path, "histdag", "build", "--schema", COMPANY, "--out", path)
    return path


def optimize(*extra):
    return ("optimize", "--schema", COMPANY, "--query", Q1, *extra)


def test_naive_mode_loads_no_joindag_layer(tmp_path):
    added, _ = probe(tmp_path, *optimize("--mode", "naive"))
    assert NAIVE in added
    assert not added & {SPRINKLE, JOINDAG, ANALYTICS, "logging"}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "history"])
def test_joindag_mode_loads_no_naive_layer(tmp_path, history, warm):
    added, _ = probe(tmp_path, *optimize(*(["--history", history] if warm else [])))
    assert {SPRINKLE, JOINDAG} <= added
    assert not added & {NAIVE, ANALYTICS, "logging"}


@pytest.mark.parametrize("mode", ["naive", "joindag"])
def test_a_report_loads_analytics(tmp_path, mode):
    added, _ = probe(tmp_path, *optimize("--mode", mode, "--report", "r.csv"))
    assert ANALYTICS in added
    if mode == "naive":   # its complexity parameters need no history or sprinkler
        assert not added & {SPRINKLE, JOINDAG}


@pytest.mark.parametrize("level", ["info", "debug"])
def test_logging_is_loaded_when_asked_for(tmp_path, level):
    _, loaded = probe(tmp_path, *optimize(), log=level)
    assert "logging" in loaded


def test_history_commands_and_bench_run(tmp_path, history):
    for argv in (("histdag", "add", "--schema", COMPANY, "--history", history, "--query", Q1),
                 ("histdag", "show", "--schema", COMPANY, "--history", history),
                 ("histdag", "export-dot", "--history", history, "--dot", "h.dot"),
                 ("bench", "--schema", COMPANY, "--queries", str(FIXTURES / "company"),
                  "--report", "b.csv")):
        added, _ = probe(tmp_path, *argv)
        assert JOINDAG in added
        assert "logging" not in added
