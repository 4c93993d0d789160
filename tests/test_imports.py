"""Every module-level import in ``src/`` is used by its module, and
every module-level function, class and constant in ``src/`` is read
somewhere in the repository. A name left behind when its last caller
moves elsewhere fails here, since no linter is part of the toolchain;
the checks need only the stdlib ``ast``."""

import ast
import re
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


ROOT = SRC.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def defined_names(source: str) -> dict[str, int]:
    """The functions, classes and constants ``source`` defines at module
    level, dunders aside, with the line of each."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                defined[target.id] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """The names ``source`` reads: loaded names, attributes, imported
    names, and the words of string constants other than docstrings (the
    benchmark's tracer binds names by string)."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            read.update(re.findall(r"\w+", node.value))
    return read


def dead_names(sources: dict[str, str], defining: list[str]) -> list[str]:
    """The module-level names of the ``defining`` sources that no source reads."""
    read = set().union(*map(read_names, sources.values()))
    return [f"{path}:{line}: {name}" for path in defining
            for name, line in defined_names(sources[path]).items() if name not in read]


def test_every_module_level_name_in_src_is_read_somewhere():
    paths = sorted(path for top in SEARCHED for path in (ROOT / top).rglob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    assert dead_names(sources, [p for p in sources if p.startswith("src")]) == []


def test_the_check_finds_a_dead_name():
    sources = {
        "a.py": 'STEP = 10\nLEFT = 1\n\ndef used():\n    """LEFT"""\n    return STEP\n\nclass Gone:\n    pass\n',
        "b.py": 'from a import used\n\nbound = getattr(used, "attr")\nLAYER = "a.used"\n',
    }
    assert dead_names(sources, ["a.py"]) == ["a.py:2: LEFT", "a.py:8: Gone"]
