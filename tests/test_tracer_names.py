"""Every name the benchmark's tracer patches exists in the package.

perfbench/tracer.py wraps streamqc's entry points with
`tracer.patch(owner, "attr", wrapper)`, which looks the attribute up with
getattr. A deletion of one of those names passes every other test here and
breaks only a traced benchmark run, so this reads the patch calls from the
tracer's syntax tree and resolves each against the imported package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def patched_names(source: str) -> list[tuple[str, str]]:
    """(owner, attr) of each `.patch(owner, "attr", ...)` call, the owner as
    its dotted source text, which starts with a streamqc module's name."""
    return [(ast.unparse(node.args[0]), node.args[1].value)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)]


def missing_names(patched: list[tuple[str, str]]) -> list[str]:
    """The owner.attr of each patched name the package does not have."""
    missing = []
    for owner, attr in patched:
        module, *path = owner.split(".")
        try:
            target = importlib.import_module(f"streamqc.{module}")
        except ImportError:
            target = None
        for part in path:
            target = getattr(target, part, None)
        if target is None or not hasattr(target, attr):
            missing.append(f"{owner}.{attr}")
    return missing


def test_the_check_finds_a_patched_name_that_is_gone():
    source = ("tracer.patch(model, 'ts', f)\ntracer.patch(model.MetaRecord, 'to_json_line', f)\n"
              "tracer.patch(model.MetaRecord, 'gone', f)\ntracer.patch(model.Gone, 'x', f)\n"
              "tracer.patch(nosuch, 'x', f)\nsetattr(model, 'y', f)\n")
    patched = patched_names(source)
    assert len(patched) == 5
    assert missing_names(patched) == ["model.MetaRecord.gone", "model.Gone.x", "nosuch.x"]


def test_every_name_the_tracer_patches_exists():
    patched = patched_names(TRACER.read_text(encoding="utf-8"))
    assert ("windowing.PaneStore", "close_ready") in patched
    assert ("model.MetaRecord", "to_json_line") in patched
    assert missing_names(patched) == []
