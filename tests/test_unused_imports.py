"""Every module-level import in the package is read.

A deletion can leave an import that nothing reads behind; this finds it by
walking each module's syntax tree, with the standard library only. A name
counts as read when the module loads it anywhere, or lists it in __all__
(a re-export). `from __future__` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streamqc"


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{lineno}: {name}" for name, lineno in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_the_check_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "from json import dumps, loads as parse\n__all__ = ['dumps']\n"
              "def f(x: osp.PathLike):\n    return parse(x)\n")
    assert unused_imports(source) == ["2: os"]


def test_every_module_level_import_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {path.name: found for path in modules
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
