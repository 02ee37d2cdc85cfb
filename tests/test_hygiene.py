"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "okakit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["c (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def _imported_names(node) -> set[str]:
    return {alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for alias in n.names}


def orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_x``) that no code of the package reads
    outside their own definition."""
    nodes = [(mod, node) for mod, source in sources.items() for node in ast.parse(source).body]
    reads = [(node, _read_names(node)) for _, node in nodes]
    return sorted(f"{mod}: {name}" for mod, node in nodes for name in _defined(node)
                  if name.startswith("_") and not name.startswith("__")
                  and not any(name in names for other, names in reads if other is not node))


def test_checker_flags_orphans():
    sources = {"a": "def _used(): return 1\ndef _rec(): return _rec()\n_TABLE = 1\nx = _used()\n",
               "b": "import a\ny = a._TABLE\nclass _Lone: pass\n"}
    assert orphans(sources) == ["a: _rec", "b: _Lone"]


def test_no_orphaned_private_names():
    assert orphans({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def unread_public(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Module-level public functions and classes that no other code of the
    package reads or imports (``__init__`` re-exporting one imports it), and
    that no caller script reads as a name, an attribute or a string constant
    (a tracer patches some by name)."""
    nodes = [(mod, node) for mod, source in sources.items() for node in ast.parse(source).body]
    reads = [(node, _read_names(node) | _imported_names(node)) for _, node in nodes]
    outside = set()
    for tree in map(ast.parse, callers):
        outside |= _read_names(tree) | _imported_names(tree)
        outside |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(f"{mod}: {node.name}" for mod, node in nodes
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                  and node.name not in outside
                  and not any(node.name in names for other, names in reads if other is not node))


def test_checker_flags_unread_public_names():
    sources = {"__init__": "from .a import Exported\n",
               "a": "class Exported: pass\ndef helper(): return 1\ndef lone(): return lone()\nx = helper()\n",
               "b": "def called(): pass\ndef patched(): pass\ndef imported(): pass\nclass Unread: pass\n"}
    callers = ["import b\nb.called()\nsetattr(b, 'patched', None)\n", "from b import imported\n"]
    assert unread_public(sources, callers) == ["a: lone", "b: Unread"]


def test_no_unread_public_names():
    callers = [p.read_text() for p in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])]
    assert unread_public({p.name: p.read_text() for p in SRC.glob("*.py")}, callers) == []


def cousin_imports(source: str) -> set[str]:
    """The names a package module imports from the quadrature module
    ``cousin``, and ``cousin`` itself for ``from . import cousin``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "cousin":
                names |= {alias.name for alias in node.names}
            elif node.module is None:
                names |= {alias.name for alias in node.names if alias.name == "cousin"}
    return names


def test_checker_reads_cousin_imports():
    source = "from .cousin import a, b as c\nfrom . import cousin, merge\nfrom .merge import d\nfrom cousin import e\n"
    assert cousin_imports(source) == {"a", "b", "cousin"}


def test_solver_core_imports_no_quadrature():
    """Only the cousin-split command and the package's exports import the
    quadrature module; the solver core takes its types from ``evaluable``."""
    found = {p.stem: names for p in SRC.glob("*.py") if (names := cousin_imports(p.read_text()))}
    assert found == {
        "cli": {"QuadratureSpec", "SplitGeometry", "cousin_split", "morera_residual", "overlap_grid"},
        "__init__": {"QuadratureSpec", "SplitGeometry", "cauchy_segment_integral", "cousin_split", "morera_residual"},
        # merge's entry goes with seam_difference, the tracer-only seam check (ROADMAP item 5)
        "merge": {"morera_residual"},
    }
