"""README's examples run as written."""

import contextlib
import io
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_library_use_block_runs_from_the_repo_root(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "sprinkle.sprinkle_selects(" in block
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    first, placed = out.getvalue().splitlines()
    # the optimum less the root projection, which the placement stage does not add
    assert 0.0 < float(placed) < float(first.split()[0])
