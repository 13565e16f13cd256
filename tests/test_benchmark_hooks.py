"""The package attributes the benchmark harness in rfbench/ wraps or reads.

rfbench/layers.py replaces module attributes by name to trace them, and
rfbench/run.py reads rotframes._kernels.USING_NUMBA for its provenance
line. Renaming or deleting one of them breaks the benchmark, not the
package, so these tests keep the names in step.
"""

import importlib.util
from pathlib import Path

import rotframes._kernels as kernels

LAYERS = Path(__file__).resolve().parents[1] / "rfbench" / "layers.py"


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
