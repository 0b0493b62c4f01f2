"""Every public name the package defines is used somewhere.

The sources of `src/zeemanzones/*.py` are parsed with `ast`.  Each public
module-level function, class and constant, and each public method of a
module-level class, must be loaded (as a name or as an attribute) in some
Python file under `src/`, `tests/` or `bench/` other than an `__init__.py`;
re-exporting a name from `__init__` does not count as a use.

The check matches identifiers only, without types: a method whose name
numpy also uses (such as `conj` or `copy`) counts as used wherever an
array's method of that name is loaded.
"""

import ast
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
