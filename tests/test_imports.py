"""Source hygiene: every import in the package, its tests and the benchmark is used."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = [
    path for part in ("src/geodistill", "tests", "perfbench") for path in sorted((ROOT / part).glob("*.py"))
]


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads.
    A name counts as read when it appears as an identifier, as the root
    of an attribute chain, or as a string in ``__all__``; a ``noqa`` on
    the imported name's own line keeps it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import_and_honours_noqa():
    source = "import math\nimport os\nfrom json import dumps  # noqa: F401\n\nos.getcwd()\n"
    assert unused_imports(source) == [(1, "math")]
