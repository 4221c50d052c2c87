"""Every function, method and class defined in src/ncgraded, and every name
assigned at the top level of one of its modules, is read somewhere in src/,
tests/ or bench/: by name, as an attribute, in an import, or as a word in a
string (bench/tracer.py wraps functions by name).  Assigning a name does not
read it, so a tuned constant cannot outlive the code it tuned.

Dunders are exempt (Python calls them), and so are the `cmd_*` functions,
which `cli.main` dispatches by name.

Every parameter with a default is passed by some call in src/, tests/ or
bench/, matched by the callee's name (a class's name calls its __init__):
by keyword, or positionally, or through *args or **kwargs.  A default that
no call overrides is a constant.

Every parameter of a function in src/ncgraded is read by its body, nested
functions included.  Exempt are self and cls, and interface methods whose
body only raises NotImplementedError."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references() -> set:
    refs = set()
    for _, tree in _trees("src", "tests", "bench"):
        refs |= _tree_references(tree)
    return refs


def _tree_references(tree) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
    refs = _references()
    unused = []
    for path, tree in _trees("src/ncgraded"):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _exempt(node.name) and node.name not in refs):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)


def test_every_module_level_name_in_src_is_read():
    refs = _references()
    unread = []
    for path, tree in _trees("src/ncgraded"):
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                unread += [f"{path.relative_to(ROOT)}:{node.lineno} {n.id}"
                           for n in ast.walk(target) if isinstance(n, ast.Name)
                           and not _exempt(n.id) and n.id not in refs]
    assert not unread, "assigned at module level but never read:\n" + "\n".join(unread)


def _calls(trees) -> dict:
    """Callee name -> [(positional count, keyword names, splat)] of every call."""
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            splat = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((len(node.args), keywords, splat))
    return calls


def _defaulted(tree):
    """(line, callee name, parameter, positional index or None if keyword-only)
    for every parameter with a default; the index leaves out a method's self."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            method = isinstance(parent, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            name = parent.name if method and node.name == "__init__" else node.name
            positional = a.posonlyargs + a.args
            skip = 1 if method else 0
            for k in range(len(positional) - len(a.defaults), len(positional)):
                yield node.lineno, name, positional[k].arg, k - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield node.lineno, name, arg.arg, None


def test_every_default_in_src_is_overridden_by_some_call():
    calls = _calls(_trees("src", "tests", "bench"))
    constant = []
    for path, tree in _trees("src/ncgraded"):
        for lineno, name, param, index in _defaulted(tree):
            if not any(param in kws or splat or (index is not None and n > index)
                       for n, kws, splat in calls.get(name, [])):
                constant.append(f"{path.relative_to(ROOT)}:{lineno} {name}({param}=)")
    assert not constant, "default never overridden by a call:\n" + "\n".join(constant)


def _only_raises_not_implemented(node) -> bool:
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0].exc))


def test_every_parameter_in_src_is_read():
    unread = []
    for path, tree in _trees("src/ncgraded"):
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or _only_raises_not_implemented(node)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            unread += [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({p.arg})"
                       for p in params if p.arg not in ("self", "cls") and p.arg not in read]
    assert not unread, "parameter never read by its function:\n" + "\n".join(unread)
