"""Every function, method and class defined in src/ncgraded is referenced
somewhere in src/, tests/ or bench/: by name, as an attribute, in an import,
or as a word in a string (bench/tracer.py wraps functions by name).

Dunders are exempt (Python calls them), and so are the `cmd_*` functions,
which `cli.main` dispatches by name."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(tree) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("cmd_")


def test_every_definition_in_src_is_referenced():
    refs = set()
    for _, tree in _trees("src", "tests", "bench"):
        refs |= _references(tree)
    unused = []
    for path, tree in _trees("src/ncgraded"):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _exempt(node.name) and node.name not in refs):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
