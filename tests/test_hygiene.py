"""Static checks over the package sources (unused imports: the tests
too), and over the exception classes the package defines."""

import ast
import importlib
from pathlib import Path

import pytest

import distpac
from distpac.cli import ConfigError
from distpac.core import ConfigurationError, ProtocolError

PACKAGE = Path(distpac.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _parsed(paths) -> dict:
    return {p: ast.parse(p.read_text()) for p in paths}


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# Parameters a signature keeps on purpose: ``channel.send`` takes the
# receiver for the message transcript (ROADMAP item 5), and the CLI's job for
# the adversarial perceptron, a deterministic construction, takes the seed
# that every job is called with.
UNREAD_ALLOWED = {("channel.py", "send", "to"),
                  ("cli.py", "_adversarial_job", "seed")}


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    found = unread_parameters(ast.parse(path.read_text()))
    assert [f for f in found
            if (path.name, f[1], f[2]) not in UNREAD_ALLOWED] == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(fn) -> list:
    """The nodes of ``fn``'s body outside any function, lambda or class
    nested in it."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        out.append(node)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return out


def unused_locals(tree: ast.Module) -> list:
    """(line, function, name) of each name a function assigns (by ``=``,
    an augmented assignment, a ``for`` or ``with`` target, ...) and never
    reads, nested functions' reads included; the line is the name's first
    assignment.  ``_``-names and ``global``/``nonlocal`` names are
    skipped."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = _own_scope(fn)
        shared = {name for node in own
                  if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        stored = {}
        for n in own:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored[n.id] = min(n.lineno, stored.get(n.id, n.lineno))
        out += [(line, fn.name, name) for name, line in stored.items()
                if name not in read | shared and not name.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(ast.parse(path.read_text())) == []


def test_unused_locals_sees_each_kind():
    tree = ast.parse("def run(xs):\n"
                     "    m, n = shape(xs)\n"
                     "    count = 0\n"
                     "    count += n\n"
                     "    _cost, h = pick(xs)\n"
                     "    for i, x in enumerate(xs):\n"
                     "        h = h + x\n"
                     "    with open(xs) as fh:\n"
                     "        pass\n"
                     "    def inner():\n"
                     "        return h\n"
                     "    return inner\n"
                     "def outer(specs):\n"
                     "    k = len(specs)\n"
                     "    def helper():\n"
                     "        nonlocal k\n"
                     "        k = 2\n"
                     "    return helper\n"
                     "def clean(x):\n"
                     "    y = x + 1\n"
                     "    return [z for z in range(y) if (w := z) > 1]\n")
    assert unused_locals(tree) == [
        (2, "run", "m"), (3, "run", "count"), (6, "run", "i"),
        (8, "run", "fh"), (14, "outer", "k"), (21, "clean", "w")]


# A CLI job runs one seed on the values that the prepare step read and
# checked from the whole config; it takes the seed.  A config read, or a
# config check, inside anything that takes a seed would come after seeds
# have run, past the check for undeclared keys.
CONFIG_READERS = ("_field", "_read", "_check", "_fail", "_sized",
                  "_undeclared", "_distribution", "_setup")


def config_reads_in_jobs(tree: ast.Module) -> list:
    """(line, what) of each call of a config reader, and each use of the
    name ``cfg``, inside a function or lambda that takes a ``seed``."""
    out = set()
    for job in ast.walk(tree):
        if not (isinstance(job, (ast.FunctionDef, ast.Lambda)) and "seed" in
                [a.arg for a in job.args.args + job.args.kwonlyargs]):
            continue
        for node in ast.walk(job):
            if isinstance(node, ast.Call) and \
                    _callee(node) in CONFIG_READERS:
                out.add((node.lineno, _callee(node)))
            elif isinstance(node, ast.Name) and node.id == "cfg":
                out.add((node.lineno, "cfg"))
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_jobs_read_no_config(path):
    assert config_reads_in_jobs(ast.parse(path.read_text())) == []


def test_config_reads_in_jobs_sees_each_kind():
    tree = ast.parse("def _prepare(name, cfg):\n"
                     "    values = _read(cfg, TABLE[name][0], {})\n"
                     "    _sized(values, 'eps', size)\n"
                     "    return partial(TABLE[name][2], values)\n"
                     "def _a_job(v, seed):\n"
                     "    return run(v['n'], _field(cfg, 'c', float), seed)\n"
                     "def _b_job(v, seed):\n"
                     "    return [cli._distribution(e, 1, False)\n"
                     "            for e in helper(v)]\n"
                     "def _c_job(v, *, seed):\n"
                     "    return lambda: _check('k', v['k'], True, 'be')\n"
                     "TABLE = {'d': ([], [], lambda v, seed: go(\n"
                     "    _read(cfg, [], v), seed))}\n"
                     "def _e_job(v, seed):\n"
                     "    return run(v['eps'], seed)\n")
    assert config_reads_in_jobs(tree) == [
        (6, "_field"), (6, "cfg"), (8, "_distribution"), (11, "_check"),
        (13, "_read"), (13, "cfg")]


# README's replay contract: all randomness flows from the seed through the
# named streams of ``core.streams``, which is what lets a run replay exactly.
# Its ``ISeedSequence`` adapter, which hands each ``PCG64`` the state words
# ``streams`` made, is the one class beside it that may name numpy's random.
STREAM_OWNER = ("core.py", "streams", "_StateWords")


def _owned(path: Path, tree: ast.Module, owner: tuple) -> set:
    """ids of the nodes inside the functions or classes ``owner`` =
    (file, name, ...) names."""
    return {id(n) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and path.name == owner[0] and node.name in owner[1:]
            for n in ast.walk(node)}


def _annotations(tree: ast.Module) -> set:
    """ids of the nodes inside annotations, which name types and run
    nothing (the sources use ``from __future__ import annotations``)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None
            for n in ast.walk(root)}


def _is_np_random(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "random" and \
        isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")


def random_sources(path: Path, tree: ast.Module) -> list:
    """(line, what) of each reference to ``np.random`` outside
    ``core.streams`` and its adapter and outside annotations (a call, a
    base class, an alias, ...), and each import of ``random`` or
    ``numpy.random``, wherever it is."""
    skip = _owned(path, tree, STREAM_OWNER) | _annotations(tree)
    out = []
    # ast.walk visits a node before its children, so the outermost
    # attribute of a reference is reported and its inner parts skipped
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in skip and \
                isinstance(node.func, ast.Attribute) and \
                _is_np_random(node.func.value):
            skip |= {id(node.func), id(node.func.value)}
            out.append((node.lineno, f"{node.func.value.value.id}.random."
                                     f"{node.func.attr}()"))
        elif isinstance(node, ast.Attribute) and id(node) not in skip and \
                _is_np_random(node.value):
            skip.add(id(node.value))
            out.append((node.lineno,
                        f"{node.value.value.id}.random.{node.attr}"))
        elif _is_np_random(node) and id(node) not in skip:
            out.append((node.lineno, f"{node.value.id}.random"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names
                    if a.name == "random" or a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                (node.module == "random"
                 or node.module.startswith("numpy.random")):
            out.append((node.lineno, f"from {node.module} import"))
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_randomness_only_through_named_streams(path):
    assert random_sources(path, ast.parse(path.read_text())) == []


def test_random_sources_sees_each_kind():
    tree = ast.parse("import random\nfrom numpy.random import rand\n"
                     "def streams():\n    return np.random.default_rng(1)\n"
                     "x = numpy.random.normal()\n")
    core, other = Path("core.py"), Path("other.py")
    assert [w for _, w in random_sources(core, tree)] == [
        "import random", "from numpy.random import", "numpy.random.normal()"]
    assert len(random_sources(other, tree)) == 4
    # an import counts even inside the owner
    tree = ast.parse("def streams():\n    import random\n"
                     "class _StateWords:\n"
                     "    from numpy.random import bit_generator\n")
    assert random_sources(core, tree) == [
        (2, "import random"), (4, "from numpy.random import")]
    # references that are not calls count too; annotations do not
    tree = ast.parse("class Words(np.random.bit_generator.ISeedSequence):\n"
                     "    pass\n"
                     "def streams(rng: np.random.Generator) -> np.random.A:\n"
                     "    make = np.random.PCG64\n"
                     "    return make, numpy.random\n"
                     "hidden: np.random.Generator = np.random\n"
                     "class _StateWords(np.random.bit_generator.ISeedSequence):"
                     "\n    pass\n")
    assert random_sources(core, tree) == [
        (1, "np.random.bit_generator"), (6, "np.random")]
    assert random_sources(other, tree) == [
        (1, "np.random.bit_generator"), (4, "np.random.PCG64"),
        (5, "numpy.random"), (6, "np.random"), (7, "np.random.bit_generator")]


# One seed derivation for labelled draws: only core's ``draw_parts`` opens a
# "draw_sample" stream, so a batched draw cannot drift from a per-part one.
DRAW_OWNER = ("core.py", "draw_parts")


def draw_streams(path: Path, tree: ast.Module) -> list:
    """Line of each ``stream``/``streams`` call outside ``core.draw_parts``
    whose arguments name "draw_sample"."""
    owned = _owned(path, tree, DRAW_OWNER)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in owned
        and (getattr(node.func, "id", None) in ("stream", "streams")
             or getattr(node.func, "attr", None) in ("stream", "streams"))
        and any(isinstance(a, ast.Constant) and a.value == "draw_sample"
                for arg in node.args for a in ast.walk(arg)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_draw_sample_streams_only_in_draw_parts(path):
    assert draw_streams(path, ast.parse(path.read_text())) == []


def test_draw_streams_sees_a_second_site():
    tree = ast.parse("def draw_parts(tags):\n"
                     "    return stream(0, 'draw_sample', *tags)\n"
                     "def shortcut():\n"
                     "    return core.stream(1, 'draw_sample', 'x')\n")
    assert draw_streams(Path("core.py"), tree) == [4]
    assert draw_streams(Path("agnostic.py"), tree) == [2, 4]
    # a batch names the tag inside its tag tuples
    tree = ast.parse("def draw_parts(tags):\n"
                     "    return streams(0, [('draw_sample', *t)\n"
                     "                       for t in tags])\n"
                     "def shortcut(j):\n"
                     "    return core.streams(1, [('draw_sample', j)])\n")
    assert draw_streams(Path("core.py"), tree) == [5]
    assert draw_streams(Path("agnostic.py"), tree) == [2, 5]


# Each charged example is one ``channel.send_example`` call, the count the
# benchmark checks against the examples a run reports: only that function
# may pass ``examples=`` to ``send``.
EXAMPLE_OWNER = ("channel.py", "send_example")


def example_charges(path: Path, tree: ast.Module) -> list:
    """Line of each ``send``/``channel.send`` call outside
    ``channel.send_example`` that passes ``examples=``, or unpacks a mapping
    that may hold it."""
    owned = _owned(path, tree, EXAMPLE_OWNER)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in owned
        and _callee(node) == "send"
        and any(kw.arg in ("examples", None) for kw in node.keywords))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_examples_charged_only_by_send_example(path):
    assert example_charges(path, ast.parse(path.read_text())) == []


def test_example_charges_sees_each_kind():
    tree = ast.parse("def send_example(ledger, frm, to, bits):\n"
                     "    return send(ledger, frm, to, bits, examples=1)\n"
                     "def ship(ledger, bits):\n"
                     "    send(ledger, 'p1', CENTER, 7)\n"
                     "    send(ledger, 'p1', CENTER, 7, hypotheses=1)\n"
                     "    channel.send(ledger, 'p1', CENTER, sum(bits),\n"
                     "                 examples=len(bits))\n"
                     "    send(ledger, 'p1', CENTER, 7, **opts)\n"
                     "    send_example(ledger, 'p1', CENTER, 7)\n"
                     "    resend(ledger, examples=2)\n")
    assert example_charges(Path("channel.py"), tree) == [6, 8]
    # outside channel.py a function of the same name is no exception
    assert example_charges(Path("baseline.py"), tree) == [2, 6, 8]


def defaulted_parameters(tree: ast.Module) -> list:
    """(line, function, parameter, position) of each defaulted parameter of
    a public module-level function; position is None for keyword-only."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(node.lineno, node.name, p.arg, i)
                for i, p in enumerate(positional) if i >= first]
        out += [(node.lineno, node.name, p.arg, None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def passed_arguments(trees: list) -> set:
    """(callee, keyword or position) of each argument a call passes,
    keyed by the name the call uses (``f(...)`` or ``mod.f(...)``);
    (callee, "*") for a call that unpacks ``*args``, which may fill any
    positional parameter, and (callee, "**") for one that unpacks a mapping
    it cannot see into, which may fill any.  It sees into a dict literal
    bound to the name in the same function, and a function that hands its
    own ``**kwargs`` on passes the keywords its own callers pass."""
    out, forwards = set(), set()
    for tree in trees:
        for node, fn in _calls(tree, tree):
            callee = _callee(node)
            out |= {(callee, i) for i in range(len(node.args))}
            if any(isinstance(a, ast.Starred) for a in node.args):
                out.add((callee, "*"))
            for kw in node.keywords:
                name = getattr(kw.value, "id", None)
                if kw.arg:
                    out.add((callee, kw.arg))
                elif isinstance(fn, ast.FunctionDef) and fn.args.kwarg and \
                        fn.args.kwarg.arg == name:
                    forwards.add((callee, fn.name))
                else:
                    out |= {(callee, key) for key in _dict_keys(fn, name)}
    while True:  # forwarded keywords, through any number of hops
        more = {(callee, arg) for callee, via in forwards
                for name, arg in out if name == via and arg != "*"
                and isinstance(arg, str)}
        if more <= out:
            return out
        out |= more


def _calls(node, fn):
    """(call, innermost function or module around it) of each call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, fn
        yield from _calls(child, child if isinstance(child, ast.FunctionDef)
                          else fn)


def _dict_keys(scope, name) -> list:
    """The keys of the dict literal ``scope`` binds to ``name``, or
    ["**"] if there is none with constant keys."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) \
                and [getattr(t, "id", None) for t in node.targets] == [name] \
                and all(isinstance(k, ast.Constant) for k in node.value.keys):
            return [k.value for k in node.value.keys]
    return ["**"]


def _callee(call: ast.Call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def unused_defaults(tree: ast.Module, passed: set) -> list:
    """(line, function, parameter) of each defaulted parameter of a public
    function that no call in ``passed`` sets, by keyword or by position:
    every caller takes the default, so the parameter is dead generality."""
    return [(line, fn, param) for line, fn, param, i in
            defaulted_parameters(tree)
            if not {(fn, param), (fn, "**")} & passed and
            (i is None or not {(fn, i), (fn, "*")} & passed)]


def src_unused_defaults(trees: dict) -> list:
    """(file, line, function, parameter) of each defaulted parameter of a
    public package function that no call in the package sets.  ``trees``
    maps paths, in the package or not, to parsed modules; a call outside
    the package (a test's) does not count, because a parameter that only
    tests set is a knob of the tests, not of any protocol."""
    src = {p: t for p, t in trees.items() if p.parent == PACKAGE}
    passed = passed_arguments(list(src.values()))
    return [(p.name, *f) for p, t in src.items()
            for f in unused_defaults(t, passed)]


# Defaulted parameters that only tests set, each kept on purpose: the guard
# caps ``c_l``, ``max_rounds`` and ``max_meta_rounds``, which tests trip to
# see the guard raise, and the entry point's ``argv``, which the console
# script leaves unset.
DEFAULTS_ALLOWED = {("agnostic.py", "run_robust_halving", "c_l"),
                    ("declist.py", "run_decision_list", "max_rounds"),
                    ("linear.py", "round_robin_perceptron",
                     "max_meta_rounds"),
                    ("cli.py", "main", "argv")}


def test_no_unused_default_parameters():
    found = {(name, fn, param) for name, _line, fn, param
             in src_unused_defaults(_parsed(SOURCES + TESTS))}
    assert sorted(found - DEFAULTS_ALLOWED) == []
    assert sorted(DEFAULTS_ALLOWED - found) == []  # no stale entry


def test_src_unused_defaults_sees_each_kind():
    trees = {PACKAGE / "run.py": ast.parse(
                 "def run(f, *, beta=0.25, cap=None, weak=None):\n"
                 "    return helper(f, beta=beta)\n"
                 "def helper(f, beta=0.5, knob=1):\n"
                 "    pass\n"),
             PACKAGE / "cli.py": ast.parse("run(f, beta=0.1, weak=g)\n"),
             Path("tests") / "test_run.py": ast.parse(
                 "run(f, cap=3)\nhelper(f, 0.2, 2)\n")}
    # set in the package, by keyword from another module or from the
    # same one, counts; set only by a test does not
    assert src_unused_defaults(trees) == [
        ("run.py", 1, "run", "cap"), ("run.py", 3, "helper", "knob")]


def test_unused_defaults_sees_each_kind():
    tree = ast.parse("def run(f, seed, *, beta=0.25, weak=None, cap=None):\n"
                     "    pass\n"
                     "def size(d, eps, k=1, agnostic=False):\n"
                     "    pass\n"
                     "def _private(x=1):\n"
                     "    pass\n"
                     "class C:\n"
                     "    def method(self, y=2):\n"
                     "        pass\n")
    calls = ast.parse("run(f, 0, beta=0.5)\nmod.size(10, 0.1, 4)\n")
    assert unused_defaults(tree, passed_arguments([calls])) == [
        (1, "run", "weak"), (1, "run", "cap"), (3, "size", "agnostic")]
    # by keyword, by position, or through unpacked arguments
    calls = ast.parse("run(f, 0, weak=g, beta=0.5)\n"
                      "size(1, 0.1, 2, True)\nrun(**opts)\n")
    assert unused_defaults(tree, passed_arguments([calls])) == []
    # *args fills only positional parameters
    calls = ast.parse("size(1, 0.1, agnostic=True)\nrun(*args)\n"
                      "size(*args)\n")
    assert unused_defaults(tree, passed_arguments([calls])) == [
        (1, "run", "beta"), (1, "run", "weak"), (1, "run", "cap")]
    # a helper that hands on its own **kw passes what its callers pass
    calls = ast.parse("class T:\n"
                      "    def go(self, seed, **kw):\n"
                      "        return run(f, seed, **kw)\n"
                      "    def test(self):\n"
                      "        self.go(0, beta=0.5)\n"
                      "def wrap(**kw):\n"
                      "    return T().go(1, **kw)\n"
                      "wrap(cap=3)\n")
    assert unused_defaults(tree, passed_arguments([calls])) == [
        (1, "run", "weak"), (3, "size", "k"), (3, "size", "agnostic")]
    # a dict literal bound in the calling function is seen into
    calls = ast.parse("def go():\n"
                      "    opts = {'weak': 1, 'cap': 2}\n"
                      "    run(f, 0, **opts)\n")
    assert unused_defaults(tree, passed_arguments([calls])) == [
        (1, "run", "beta"), (3, "size", "k"), (3, "size", "agnostic")]


def _foreign_modules(tree: ast.Module) -> set:
    """Names that ``import`` statements bind in ``tree``: modules outside
    the package, whose own modules import each other relatively."""
    return {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for a in node.names}


def _read_off(node: ast.Attribute, modules: set) -> bool:
    """Whether the attribute ``node`` (such as ``np.random.default_rng``)
    is read off one of ``modules``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def unreferenced_public_names(trees: dict) -> list:
    """(file, line, name) of each public module-level function or class of
    the package that no package module names outside its own definition:
    not its own recursion or methods, and not a test (``trees`` maps paths,
    in the package or not, to parsed modules).  A name counts as referenced
    by a ``Name``, an attribute (``mod.f``) or a ``from ... import``, all
    matched by name alone, except an attribute read off a module outside
    the package (``np.empty`` names no package ``empty``)."""
    src = {p: t for p, t in trees.items() if p.parent == PACKAGE}
    owners = {}  # name -> {(file, top-level definition) that names it}
    for path, tree in src.items():
        foreign = _foreign_modules(tree)
        for top in tree.body:
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [] if _read_off(node, foreign) else [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                else:
                    continue
                for name in names:
                    owners.setdefault(name, set()).add(owner)
    return sorted((path.name, top.lineno, top.name)
                  for path, tree in src.items() for top in tree.body
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                  and not top.name.startswith("_")
                  and not owners.get(top.name, set()) - {(path.name,
                                                          top.name)})


def unreferenced_public_methods(trees: dict) -> list:
    """(file, line, "Class.method") of each public method or property of a
    top-level package class whose name no package module names outside the
    method's own definition (a test does not count).  As for
    :func:`unreferenced_public_names`, a ``Name`` or an attribute not read
    off a module outside the package counts, matched by name alone:
    ``h.predict`` references every ``predict``, ``np.empty`` no ``empty``."""
    src = {p: t for p, t in trees.items() if p.parent == PACKAGE}
    refs = {}  # name -> ids of the nodes that name it
    for tree in src.values():
        foreign = _foreign_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute) and \
                    not _read_off(node, foreign):
                refs.setdefault(node.attr, set()).add(id(node))
    return sorted(
        (path.name, fn.lineno, f"{cls.name}.{fn.name}")
        for path, tree in src.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and not refs.get(fn.name, set()) - {id(n) for n in ast.walk(fn)})


# Public methods no package code calls, each kept on purpose: numpy's
# ``PCG64`` calls ``generate_state`` on the state words ``core.streams``
# hands it, and README's quick start and the tests' ledger digests read a
# ledger through ``to_dict``.
METHODS_ALLOWED = {("core.py", "_StateWords.generate_state"),
                   ("channel.py", "CostLedger.to_dict")}


def test_public_methods_referenced_from_src():
    found = {(name, what) for name, _line, what
             in unreferenced_public_methods(_parsed(SOURCES + TESTS))}
    assert sorted(found - METHODS_ALLOWED) == []
    assert sorted(METHODS_ALLOWED - found) == []  # no stale entry


def test_unreferenced_public_methods_sees_each_kind():
    trees = {PACKAGE / "a.py": ast.parse(
                 "class Ledger:\n"
                 "    def total(self):\n"
                 "        return self.size\n"
                 "    @property\n"
                 "    def size(self):\n"
                 "        return 1\n"
                 "    def upstream(self):\n"
                 "        return 2\n"
                 "    def again(self):\n"
                 "        return self.again()\n"
                 "    def _hidden(self):\n"
                 "        pass\n"
                 "    def __len__(self):\n"
                 "        return 0\n"
                 "    @classmethod\n"
                 "    def create(cls):\n"
                 "        return cls()\n"
                 "    def empty(self):\n"
                 "        return 0\n"
                 "def make():\n"
                 "    return Ledger.create\n"),
             # numpy's empty is no reference to Ledger.empty
             PACKAGE / "b.py": ast.parse("import numpy as np\n"
                                         "x = a.Ledger().total()\n"
                                         "buf = np.empty(3)\n"),
             Path("tests") / "test_a.py": ast.parse(
                 "Ledger().upstream()\n")}
    assert unreferenced_public_methods(trees) == [
        ("a.py", 7, "Ledger.upstream"), ("a.py", 9, "Ledger.again"),
        ("a.py", 18, "Ledger.empty")]


# Public names no protocol reaches, each kept on purpose: the single-machine
# AdaBoost that the boosting tests compare the distributed run against.
REFERENCE_ALLOWED = {("boosting.py", "adaboost_single")}


def test_public_names_referenced_from_src():
    found = {(name, what) for name, _line, what
             in unreferenced_public_names(_parsed(SOURCES + TESTS))}
    assert sorted(found - REFERENCE_ALLOWED) == []
    assert sorted(REFERENCE_ALLOWED - found) == []  # no stale entry


def test_unreferenced_public_names_sees_each_kind():
    trees = {PACKAGE / "a.py": ast.parse(
                 "def used():\n"
                 "    pass\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "class Shape:\n"
                 "    def copy(self) -> Shape:\n"
                 "        return Shape()\n"
                 "def tested():\n"
                 "    pass\n"
                 "def imported():\n"
                 "    pass\n"
                 "def _private():\n"
                 "    pass\n"
                 "class Base:\n"
                 "    pass\n"
                 "def caller():\n"
                 "    return Base\n"
                 "def zeros():\n"
                 "    pass\n"),
             PACKAGE / "b.py": ast.parse(
                 "import numpy.linalg as la\n"
                 "from .a import imported\n"
                 "from . import a\n"
                 "x = a.used()\n"
                 "y = la.np.zeros(3)\n"
                 "def _helper():\n"
                 "    return a.caller()\n"),
             Path("tests") / "test_a.py": ast.parse(
                 "from distpac.a import tested\n"
                 "tested()\n")}
    assert unreferenced_public_names(trees) == [
        ("a.py", 3, "recursive"), ("a.py", 5, "Shape"), ("a.py", 8, "tested"),
        ("a.py", 18, "zeros")]


def test_every_exception_is_one_run_config_catches():
    # run_config exits 2 on the CLI's ConfigError and 1 on a
    # ConfigurationError or ProtocolError; any other exception class of
    # the package would escape it as a traceback
    modules = [importlib.import_module(f"distpac.{p.stem}") for p in SOURCES
               if p.stem != "__init__"]
    stray = [f"{m.__name__}.{name}" for m in modules
             for name, obj in vars(m).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)
             and obj.__module__ == m.__name__
             and not issubclass(obj, (ConfigError, ConfigurationError,
                                      ProtocolError))]
    assert stray == []


# The 0/1 specs draw bool blocks, and every learner and concept answers a
# bool block as it would its float64 copy (tests/test_bool_blocks.py), so a
# widening to float64 is a copy and a pass that change nothing.  Each
# allowed (file, function) says why it widens.
WIDENING_ALLOWED = {
    ("core.py", "Sample.__post_init__"):
        "a Sample stores any block that is not bool as float64, once",
    ("core.py", "LinearSeparator.predict"):
        "w is real-valued, so w . x is a float64 product whatever the "
        "block; the linear protocols draw float64 blocks",
    ("boosting.py", "best_stump"):
        "the float64 labels against the block are one exact BLAS count; "
        "a weak learner's sample is a few hundred rows, where a float32 "
        "or integer count timed no faster",
}
# numpy calls whose value holds the entries of their first argument
_DATA_CALLS = ("asarray", "array", "asanyarray", "ascontiguousarray",
               "atleast_2d", "concatenate", "vstack", "hstack", "stack",
               "column_stack")


def _float64(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "float64"
    if isinstance(node, ast.Name):
        return node.id in ("float", "float64")
    return isinstance(node, ast.Constant) and \
        node.value in ("float", "float64", "f8", "<f8", "d")


def _holds_data(node, data: set) -> bool:
    """``node``'s value holds the entries of a ``.features`` block or of a
    name in ``data``: directly, sliced, in a list, or through a numpy call
    that keeps them (``np.concatenate([s.features for s in samples])``)."""
    if isinstance(node, ast.Name):
        return node.id in data
    if isinstance(node, ast.Attribute):
        return node.attr == "features"
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return _holds_data(node.value, data)
    if isinstance(node, (ast.List, ast.Tuple)):
        return any(_holds_data(e, data) for e in node.elts)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _holds_data(node.elt, data)
    return isinstance(node, ast.Call) and bool(node.args) and \
        _callee(node) in _DATA_CALLS and _holds_data(node.args[0], data)


def _widened(call: ast.Call) -> list:
    """The expressions ``call`` converts to float64: the receiver of
    ``.astype(float64)``, the arguments of a call with ``dtype=float64``,
    and the first argument of ``np.asarray(x, float64)`` and its kin."""
    if isinstance(call.func, ast.Attribute) and call.func.attr == "astype" \
            and call.args and _float64(call.args[0]):
        return [call.func.value]
    if any(kw.arg == "dtype" and _float64(kw.value) for kw in call.keywords):
        return call.args
    if _callee(call) in _DATA_CALLS and len(call.args) > 1 and \
            _float64(call.args[1]):
        return call.args[:1]
    return []


def _float64_array(node, names: set) -> bool:
    """``node``'s value is an explicitly float64 array: a float64
    conversion, a ``dtype=float64`` call, or a name in ``names``."""
    if isinstance(node, ast.Name):
        return node.id in names
    return isinstance(node, ast.Call) and bool(_widened(node))


def _bound(nodes: list, holds, names: set) -> set:
    """``names`` and, to a fixed point, every local name assigned a value
    for which ``holds(value, names)`` is true; a tuple target takes its
    element's value from a tuple of the same length."""
    while True:
        more = set()
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            for t in node.targets:
                pairs = [(t, node.value)]
                if isinstance(t, ast.Tuple) and \
                        isinstance(node.value, ast.Tuple) and \
                        len(t.elts) == len(node.value.elts):
                    pairs = zip(t.elts, node.value.elts)
                more |= {n.id for t, v in pairs if holds(v, names)
                         for n in ast.walk(t) if isinstance(n, ast.Name)}
        if more <= names:
            return names
        names = names | more


def float64_widenings(tree: ast.Module) -> list:
    """(line, qualified function) of each float64 conversion of a
    ``predict`` argument or of a ``.features`` expression, also through a
    local name bound to one, and of each ``@`` between such an expression
    and an explicitly float64 array (built by a float64 conversion or a
    ``dtype=float64`` call, or a local name bound to one), which numpy
    widens to float64 to multiply."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                scan(child, f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")

    def scan(fn, name):
        args = [a.arg for a in fn.args.args if a.arg not in ("self", "cls")]
        data = set(args[:1]) if fn.name == "predict" else set()
        nodes = _own_scope(fn)
        data = _bound(nodes, _holds_data, data)
        wide = _bound(nodes, _float64_array, set())
        out.extend((node.lineno, name) for node in nodes
                   if isinstance(node, ast.Call)
                   and any(_holds_data(w, data) for w in _widened(node)))
        out.extend((node.lineno, name) for node in nodes
                   if isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.MatMult)
                   and any(_holds_data(a, data) and _float64_array(b, wide)
                           for a, b in ((node.left, node.right),
                                        (node.right, node.left))))

    visit(tree, "")
    return sorted(set(out))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_bool_blocks_stay_bool(path):
    found = float64_widenings(ast.parse(path.read_text()))
    assert [f for f in found
            if (path.name, f[1]) not in WIDENING_ALLOWED] == []


def test_widening_allowlist_is_current():
    found = {(p.name, fn) for p in SOURCES
             for _, fn in float64_widenings(ast.parse(p.read_text()))}
    assert sorted(set(WIDENING_ALLOWED) - found) == []  # no stale entry


def test_float64_widenings_sees_each_kind():
    tree = ast.parse(
        "class Stump:\n"
        "    def predict(self, X):\n"
        "        X = np.atleast_2d(np.asarray(X, dtype=np.float64))\n"
        "        total = np.zeros(X.shape[0], dtype=np.float64)\n"
        "        return X[:, 0].astype(float) + total\n"
        "def learn(samples, pos, neg):\n"
        "    X = np.concatenate([s.features for s in samples])\n"
        "    A = X[:, 1:].astype(np.float64)\n"
        "    B = np.array(samples[0].features, np.float64)\n"
        "    y = samples[0].labels.astype(np.float64)\n"
        "    w = np.stack([pos, neg]).astype(np.float64) @ X\n"
        "    def predict(Z):\n"
        "        return np.asarray(Z, 'f8')\n"
        "    return A, B, y, w, predict\n"
        "def update(x):\n"
        "    return np.asarray(x, dtype=np.float64)\n"
        "class ParityFunc:\n"
        "    def predict(self, X):\n"
        "        # a float64 product of 0/1 rows counts exactly\n"
        "        dots = X @ np.asarray(self.vector, dtype=np.float64)\n"
        "        return np.where(dots.astype(np.int64) & 1, 1, -1)\n"
        "def stump(sample, w):\n"
        "    X, y = sample.features, sample.labels.astype(np.float64)\n"
        "    return y @ X, X @ w, y @ y\n")
    # line 11: the float64 pair is multiplied into the data block X; line
    # 24 once, for y @ X: X @ w has no explicit float64 side, and y @ y
    # (float64 labels) no data
    assert float64_widenings(tree) == [
        (3, "Stump.predict"), (5, "Stump.predict"), (8, "learn"),
        (9, "learn"), (11, "learn"), (13, "learn.predict"),
        (20, "ParityFunc.predict"), (24, "stump")]
