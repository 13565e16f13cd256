"""The package attributes the benchmark harness in rfbench/ wraps or reads.

rfbench/layers.py replaces module attributes by name to trace them,
rfbench/run.py reads rotframes._kernels.USING_NUMBA for its provenance
line, and every rfbench file imports or reads other package names.
Renaming or deleting one of them breaks the benchmark, not the package,
so these tests keep the names in step.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import rotframes._kernels as kernels

RFBENCH = Path(__file__).resolve().parents[1] / "rfbench"
LAYERS = RFBENCH / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("rfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    layers = _layers()
    boundaries = layers.SPANS + layers.COUNTS
    assert boundaries
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in boundaries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_provenance_flag_exists():
    assert kernels.USING_NUMBA is False


def _member(module: str, name: str):
    """module's name, a submodule or an attribute; None where it has none."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _package_reads(path: Path):
    """(file, owner, name, found) for each package name a file imports or reads.

    A read is an attribute of a name bound by a rotframes import, such as
    cli.PERTURB_ENV; strings (metric names) are not reads.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("rotframes"):
                    bound[alias.asname] = importlib.import_module(alias.name)
                elif alias.name.split(".")[0] == "rotframes":
                    bound["rotframes"] = importlib.import_module("rotframes")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "rotframes"):
            for alias in node.names:
                value = _member(node.module, alias.name)
                reads.append((path.name, node.module, alias.name, value is not None))
                bound[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and bound.get(node.value.id) is not None):
            owner = bound[node.value.id]
            reads.append((path.name, node.value.id, node.attr, hasattr(owner, node.attr)))
    return reads


def test_every_package_name_rfbench_reads_exists():
    reads = [read for path in sorted(RFBENCH.glob("*.py"))
             for read in _package_reads(path)]
    assert [read for read in reads if not read[3]] == []
    names = {(owner, name) for _, owner, name, _ in reads}
    # the reads outside layers.py that the other tests do not see
    assert {("cli", "PERTURB_ENV"), ("congruences", "KINDS"),
            ("congruences", "four_velocity"), ("rotframes.kinematics", "VelocityField"),
            ("_kernels", "USING_NUMBA")} <= names
