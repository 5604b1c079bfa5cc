"""Source hygiene: no module of the package imports a name it never uses,
and every name the package exports exists.

Built on ``ast`` alone, so it needs no linter.  ``__init__.py``
re-exports by design and is skipped, as is any import line marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import ringdisperse

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringdisperse"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom .verify import worker_count, map_jobs\nmap_jobs()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: worker_count"]
    assert unused_imports("import os  # noqa: F401\n") == []


def test_every_export_resolves():
    assert len(set(ringdisperse.__all__)) == len(ringdisperse.__all__)
    assert [name for name in ringdisperse.__all__ if not hasattr(ringdisperse, name)] == []
