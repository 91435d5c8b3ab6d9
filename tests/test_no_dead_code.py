"""Every function, method and class the package defines is used somewhere.

The guard parses `src/sprinkleqo/*.py` and collects each function, method
and class name it defines (dunders aside).  A name passes when some module
under `src/`, `tests/` or `optbench/` refers to it: as a bare name, as an
attribute, or in an import.  It reads syntax trees, not text, so a name
used only inside an f-string counts and a name that only appears in a
docstring or comment does not.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sprinkleqo"
SEARCHED = ("src", "tests", "optbench")


def defined_names() -> dict[str, list[str]]:
    """Each function, method and class name of the package, dunders aside,
    with where it is defined (`module:line`)."""
    out: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    return out


def referenced_names() -> set[str]:
    """Every name a module under the searched trees refers to: bare names,
    attributes, and imported names."""
    out: set[str] = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute):
                    out.add(node.attr)
                elif isinstance(node, ast.alias):
                    out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_defined_name_is_referenced():
    defined, used = defined_names(), referenced_names()
    unused = sorted(f"{name} ({', '.join(where)})" for name, where in defined.items()
                    if name not in used)
    assert not unused, "defined but never referenced: " + "; ".join(unused)
    assert len(defined) > 200
