"""fw_transport, bit for bit, over seeded draws of its domain.

tests/data/fw_trajectories.json holds one row per draw of _draws() and
sample count of N_SAMPLES: the kind, rho, omega and c as float.hex
strings, the spin's weights on u / c and on the radial, azimuthal and z
legs, tau_span (in revolutions for a seeded draw), the step count and
n_samples, then the outcome. A run's outcome maps taus,
spins, max_drift, step_angle and generator to their float.hex strings;
an array of more than 32 entries is stored as the SHA-256 of its
space-joined float.hex strings, with its shape. A call that raised gives
the [exception class, message] pair. Four draws in ten are at the edge
of the domain as in tests/test_fw_angles.py (gal near its light
cylinder, tt and mtt at rapidities from 1.2 to 8); tau_span runs from a
hundredth of a revolution to 30 revolutions and the step count from 16
to 1e6, so both runs and drift errors occur. A few fixed rows add the
error paths the draws miss.
``python tests/test_fw_trajectories.py > tests/data/fw_trajectories.json``
writes the table.
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from rotframes import (
    CongruenceSpec,
    RotframesError,
    corotating_dyad,
    fw_transport,
    proper_period,
    worldline,
)

TABLE = Path(__file__).parent / "data" / "fw_trajectories.json"
N_SAMPLES = (2, 5, 1025)

# a span past the float range, a span of inf, too few steps, no span, a
# timelike spin, a spin off u, a spin norm, a metric and a generator
# past the float range
FIXED = [
    ("tt", 1.0, 0.5, 1.0, (0.0, 1.0, 0.0, 0.0), 1e200, 16),
    ("tt", 1.0, 0.5, 1.0, (0.0, 1.0, 0.0, 0.0), math.inf, 16),
    ("gal", 1.0, 0.5, 1.0, (0.0, 1.0, 0.0, 0.0), 1.0, 15),
    ("gal", 1.0, 0.5, 1.0, (0.0, 1.0, 0.0, 0.0), 0.0, 256),
    ("gal", 1.0, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 256),
    ("gal", 1.0, 0.5, 1.0, (1e-8, 1.0, 0.0, 0.0), 1.0, 256),
    ("gal", 1.0, 0.5, 1.0, (0.0, 1e200, 0.0, 0.0), 1.0, 256),
    ("tt", 1e200, 1e-200, 1.0, (0.0, 1.0, 0.0, 0.0), 1.0, 256),
    ("tt", 1e-160, 1e150, 1.0, (0.0, 1.0, 0.0, 0.0), 1.0, 256),
]


def _draws():
    """(kind, rho, omega, c, weights, tau_span, steps): 20 seeded draws,
    then FIXED."""
    rng = random.Random(27)
    draws = []
    for i in range(20):
        kind = ("gal", "tt", "mtt")[i % 3]
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        rho = 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.4:
            lam = (1.0 - 10.0 ** rng.uniform(-9.0, -1.0) if kind == "gal"
                   else rng.uniform(1.2, 8.0))
        else:
            lam = rng.uniform(0.01, 0.9 if kind == "gal" else 1.2)
        weights = ((0.0, 1.0, 0.0, 0.0) if i % 4 == 0 else
                   (0.0, *(rng.uniform(-1.0, 1.0) for _ in range(3))))
        revolutions = 10.0 ** rng.uniform(-2.0, math.log10(30.0))
        steps = round(10.0 ** rng.uniform(math.log10(16.0), 6.0))
        draws.append((kind, rho, lam * c / rho, c, weights, revolutions, steps))
    return draws + FIXED


def _bits(values) -> object:
    values = np.asarray(values, dtype=float)
    hexes = [float(v).hex() for v in values.ravel()]
    if len(hexes) <= 32:
        return hexes
    digest = hashlib.sha256(" ".join(hexes).encode("ascii")).hexdigest()
    return {"shape": list(values.shape), "sha256": digest}


def _outcome(kind, rho, omega, c, weights, tau_span, steps, n_samples):
    try:
        spec = CongruenceSpec(kind, omega, c)
        wl = worldline(spec, rho)
        e_r, e_p = corotating_dyad(wl)
        w_u, w_r, w_p, w_z = weights
        e_z = np.array([0.0, 0.0, 0.0, 1.0])
        s0 = (w_u / c) * wl.u + w_r * e_r + w_p * e_p + w_z * e_z
        if (kind, rho, omega, c, weights, tau_span, steps) not in FIXED:
            tau_span *= proper_period(spec, rho)
        traj = fw_transport(wl, s0, tau_span, steps, n_samples)
    except (RotframesError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]
    return {"taus": _bits(traj.taus), "spins": _bits(traj.spins),
            "max_drift": traj.max_drift.hex(), "step_angle": traj.step_angle.hex(),
            "generator": _bits(traj.generator)}


def _inputs(kind, rho, omega, c, weights, tau_span, steps, n_samples):
    return [kind, rho.hex(), omega.hex(), c.hex(), [w.hex() for w in weights],
            tau_span.hex(), steps, n_samples]


def _cases():
    return [(*draw, n) for draw in _draws() for n in N_SAMPLES]


def _table():
    return [_inputs(*case) + [_outcome(*case)] for case in _cases()]


def test_trajectories_match_the_table_bit_for_bit():
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    cases = _cases()
    assert [row[:8] for row in golden] == [_inputs(*case) for case in cases]
    for k, (row, case) in enumerate(zip(golden, cases)):
        assert _outcome(*case) == row[8], (f"case {k}", *case)


def test_the_table_holds_runs_and_each_error_path():
    outcomes = [row[8] for row in json.loads(TABLE.read_text(encoding="utf-8"))]
    runs = [o for o in outcomes if isinstance(o, dict)]
    errors = {o[0] for o in outcomes if isinstance(o, list)}
    assert len(runs) >= 30
    assert any(isinstance(o["spins"], dict) for o in runs)
    assert errors == {"ConstraintDriftError", "DomainError", "ValueError"}


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in _table())
    sys.stdout.write(f"[\n{rows}\n]\n")
