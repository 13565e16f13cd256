"""Every name a package module imports is used there.

A name imported into a module of src/rotframes must be read in that
module or listed in its __all__. The one exception is an attribute that
rfbench/layers.py reads off the module to trace it (its SPANS and
COUNTS): such a name is imported only so that the benchmark can wrap it.
Once the benchmark stops wrapping it, this test reports the leftover
import.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotframes"
LAYERS = ROOT / "rfbench" / "layers.py"


def _traced() -> set:
    """(module, attribute) of every boundary rfbench/layers.py wraps on a
    package module."""
    spec = importlib.util.spec_from_file_location("rfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {(owner.__name__, attr) for owner, attr, _ in layers.SPANS + layers.COUNTS
            if getattr(owner, "__name__", "").startswith("rotframes")}


def _unused_imports(path: Path) -> list:
    """The names path binds by an import and neither reads nor exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert _unused_imports(module) == ["math", "path"]


def test_every_imported_name_is_used_or_traced():
    traced = _traced()
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "rotframes" if path.stem == "__init__" else f"rotframes.{path.stem}"
        stale += [(module, name) for name in _unused_imports(path)
                  if (module, name) not in traced]
    assert stale == []
