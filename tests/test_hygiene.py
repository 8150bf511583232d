"""Static checks over the package sources."""

import ast
from pathlib import Path

import pytest

import distpac

SOURCES = sorted(Path(distpac.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each name an import binds that the module never
    reads and does not list in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# Parameters a signature keeps on purpose: ``channel.send`` takes the
# receiver for the message transcript (ROADMAP item 4), and every CLI runner
# takes ``(cfg, seed)`` so that ``cli.PROTOCOLS`` can call them alike.
UNREAD_ALLOWED = {("channel.py", "send", "to")}
RUNNER_PARAMS = ("cfg", "seed")


def _abstract(body: list) -> bool:
    """The body only raises NotImplementedError (after a docstring)."""
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(tree: ast.Module) -> list:
    """(line, function, parameter) of each parameter that its function's
    body never reads; a method's ``self``/``cls`` and abstract bodies are
    skipped."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        if _abstract(body):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [p for p in (a.vararg, a.kwarg) if p]
        if id(node) in methods:
            params = params[1:]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, p.arg) for p in params
                if p.arg not in read]
    return sorted(out)


def _allowed(path: Path, name: str, param: str) -> bool:
    if (path.name, name, param) in UNREAD_ALLOWED:
        return True
    return path.name == "cli.py" and name.startswith("_run_") and \
        param in RUNNER_PARAMS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    found = unread_parameters(ast.parse(path.read_text()))
    assert [f for f in found if not _allowed(path, f[1], f[2])] == []
