"""Every module-level import in ``src/`` is used by its module. A name
left behind when its last caller moves elsewhere fails here, since no
linter is part of the toolchain; the check needs only the stdlib ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and its code
    never reads, annotations written as strings included."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                read.update(n.id for n in ast.walk(ast.parse(annotation.value)) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_no_module_level_import_is_unused():
    unused = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_the_check_finds_an_unused_import():
    source = "from .series import row_index, standardize\nimport numpy as np\n\nx = standardize\n"
    assert unused_imports(source) == ["line 1: row_index", "line 2: np"]
    assert unused_imports("from __future__ import annotations\nimport io\n\ndef f() -> 'io.IOBase': ...\n") == []
