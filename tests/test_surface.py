"""Every public name the package defines is used somewhere.

The sources of `src/zeemanzones/*.py` are parsed with `ast`.  Each public
module-level function, class and constant, and each public method of a
module-level class, must be loaded (as a name or as an attribute) in some
Python file under `src/`, `tests/` or `bench/` other than an `__init__.py`;
re-exporting a name from `__init__` does not count as a use.

The check matches identifiers only, without types: a method whose name
numpy also uses (such as `conj` or `copy`) counts as used wherever an
array's method of that name is loaded.

In the same way, each defaulted parameter of a public function or method
must be set by some call in those files, by keyword or by position; a
`functools.partial(f, ...)` is a call of f, and a call with `*args` or
`**kwargs` sets every parameter.  Conversely, each such default must be
relied on: some call leaves its parameter unset.

And each module under `src/zeemanzones/` other than `__init__.py` loads
every name it imports; `__future__` imports and `# noqa: F401`
re-exports are exempt.

Last, every name `bench/tracer.py` patches, read from its source, still
exists in the package, so a rename cannot leave a traced run blind.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "zeemanzones"


def _public(name):
    return not name.startswith("_")


def _defined_names():
    """(qualified name, identifier) of every public definition."""
    out = []
    for path in sorted(PKG.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [(f"{mod}.{n}", n) for n in names if _public(n)]
            if isinstance(node, ast.ClassDef) and _public(node.name):
                out += [(f"{mod}.{node.name}.{m.name}", m.name)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return out


def _loaded_identifiers():
    seen = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    seen.add(node.attr)
    return seen


def test_no_unused_public_names():
    loaded = _loaded_identifiers()
    unused = [q for q, name in _defined_names() if name not in loaded]
    assert not unused, f"public names nothing loads: {unused}"


def _public_functions():
    """(qualified name, node, leading parameters a call does not pass) of
    every public function and of every public method of a public class."""
    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and _public(m.name):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in m.decorator_list)
                        yield (f"{path.stem}.{node.name}.{m.name}", m,
                               0 if static else 1)


def _defaulted_parameters():
    """(qualified name, identifier, parameter, position) of every defaulted
    parameter of a public function or method; the position is that of the
    call's positional argument, None for a keyword-only parameter."""
    out = []
    for qual, fn, skip in _public_functions():
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(qual, fn.name, p.arg, i - skip)
                for i, p in enumerate(positional) if i >= first]
        out += [(qual, fn.name, p.arg, None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls():
    """(callee identifier, number of positional arguments, keywords set)
    of every call, a `partial(f, ...)` counting as a call of f; `*args`
    or `**kwargs` set every parameter (None)."""
    out = []
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func, args = node.func, node.args
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "partial" and args:
                    func, args = args[0], args[1:]
                    name = getattr(func, "id", getattr(func, "attr", None))
                keywords = {k.arg for k in node.keywords}
                if None in keywords or any(isinstance(x, ast.Starred) for x in args):
                    keywords = None
                out.append((name, len(args), keywords))
    return out


def _sets(param, pos, n_args, keywords):
    return (keywords is None or param in keywords
            or (pos is not None and n_args > pos))


def test_no_default_parameter_nothing_sets():
    calls = _calls()
    unset = [f"{qual}.{param}"
             for qual, name, param, pos in _defaulted_parameters()
             if not any(callee == name and _sets(param, pos, n_args, keywords)
                        for callee, n_args, keywords in calls)]
    assert not unset, f"defaulted parameters no call sets: {unset}"


def test_no_default_parameter_every_call_sets():
    calls = _calls()
    always = [f"{qual}.{param}"
              for qual, name, param, pos in _defaulted_parameters()
              if all(_sets(param, pos, n_args, keywords)
                     for callee, n_args, keywords in calls if callee == name)]
    assert not always, f"defaulted parameters every call sets: {always}"


def test_no_unused_imports():
    unused = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [f"{path.stem}: {a.name}" for a in node.names
                       if (a.asname or a.name.split(".")[0]) not in loaded]
    assert not unused, f"imported names the module never loads: {unused}"


def _tuple_value(node, known):
    """A module-level tuple of the tracer: a literal, a name bound earlier
    or a sum of those."""
    if isinstance(node, ast.Name):
        return known[node.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _tuple_value(node.left, known) + _tuple_value(node.right, known)
    return ast.literal_eval(node)


def test_bench_tracer_hooks_exist():
    # the tracer rebinds the package's names from outside; a hook that no
    # longer exists fails only in the slow bench test, or reads 0 quietly
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    tuples = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and node.targets[0].id in ("LAYERS", "ALL_MODULES",
                                           "ZONEPOLY_OPS")):
            tuples[node.targets[0].id] = _tuple_value(node.value, tuples)
    assert {"LAYERS", "ALL_MODULES", "ZONEPOLY_OPS"} <= tuples.keys()
    missing = set()
    for name in tuples["LAYERS"] + tuples["ALL_MODULES"]:
        try:
            importlib.import_module(f"zeemanzones.{name}")
        except ImportError:
            missing.add(f"zeemanzones.{name}")

    aliases = {}

    def resolve(node):
        """The package object a tracer expression names, or None: a
        modules["name"] subscript, a name bound to one or an attribute."""
        if (isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == "modules"
                and isinstance(node.slice, ast.Constant)):
            name = f"zeemanzones.{node.slice.value}"
            try:
                return importlib.import_module(name)
            except ImportError:
                missing.add(name)
                return None
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None and not hasattr(owner, node.attr):
                missing.add(f"{getattr(owner, '__name__', owner)}.{node.attr}")
                return None
            return None if owner is None else getattr(owner, node.attr)
        return None

    assigns = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Assign)
                      and len(n.targets) == 1
                      and isinstance(n.targets[0], ast.Name)),
                     key=lambda n: n.lineno)
    for node in assigns:
        obj = resolve(node.value)
        if obj is not None:
            aliases[node.targets[0].id] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    assert "QuadRule" in aliases and "ZonePoly" in aliases
    ops = vars(aliases["ZonePoly"])
    missing |= {f"ZonePoly.{op}" for op in tuples["ZONEPOLY_OPS"]
                if op not in ops}
    assert not missing, f"names bench/tracer.py patches are gone: {missing}"
