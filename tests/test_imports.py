"""Every name a module of `src/illumest` imports is used in that module.

A name imported only so that it is an attribute of the module (the sites
bench/spans.py traces) carries `# noqa: F401` on its import line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "illumest"


def unread_imports(source: str) -> list[tuple[int, str, bool]]:
    """(line, name, marked) of each imported name the source never reads;
    `marked` when its import line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # `__all__` names its re-exports by string
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in bound:
            if name not in used:
                marked = "# noqa: F401" in lines[alias.lineno - 1]
                unread.append((alias.lineno, name, marked))
    return sorted(unread)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never reads, unless marked."""
    return [(line, name) for line, name, marked in unread_imports(source) if not marked]


def test_every_imported_name_is_used():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_checker_sees_unused_marked_and_exported_names():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import numpy as np",
            "from typing import Optional, Sequence",
            "from .a import (",
            "    kept,  # noqa: F401",
            "    dropped,",
            ")",
            "from .b import Exported",
            "__all__ = ['Exported']",
            "def f(x: Optional[int]) -> None:",
            "    return np.zeros(1)",
        ]
    )
    assert unused_imports(source) == [(2, "os"), (4, "Sequence"), (7, "dropped")]
