"""measure_precession_angle, bit for bit, over seeded draws of its domain.

tests/data/fw_angles.json holds one row per draw of _draws(): the kind,
rho, omega and c as float.hex strings, the step count, then the angle's
float.hex string or the [exception class, message] pair the call raised.
Four draws in ten are at the edge: gal near its light cylinder (1 - beta
from 1e-9 to 0.1), tt and mtt at rapidities from 1.2 to 8; the others
are at beta or rapidity from 0.01 to 0.9 (gal) or 1.2 (tt, mtt), where
the last bit of the connection term still reaches the angle. c runs from
1e-3 to 1e3 and the step count from 16 to 1e9, mostly above what the
drift bound needs; a few fixed rows add the error paths the draws miss.
``python tests/test_fw_angles.py > tests/data/fw_angles.json`` writes the
table; the stored one was written before the transport generator was
formed from its written-out entries, which left every bit in place.
"""

import json
import math
import random
import sys
from pathlib import Path

from rotframes import CongruenceSpec, RotframesError, measure_precession_angle

TABLE = Path(__file__).parent / "data" / "fw_angles.json"

# the light cylinder, a generator past the float range, u^t past the
# rounding bound, no revolution, and too few steps at rapidity 8
FIXED = [
    ("gal", 1.0, 1.0, 1.0, 1000),
    ("gal", 1e-320, 1.0, 1.0, 1000),
    ("tt", 1.0, 12.0, 1.0, 1000),
    ("tt", 1.0, 0.0, 1.0, 1000),
    ("tt", 1.0, 8.0, 1.0, 16),
]


def _draws():
    """(kind, rho, omega, c, steps) tuples: 55 seeded draws, then FIXED."""
    rng = random.Random(26)
    draws = []
    for i in range(55):
        kind = ("gal", "tt", "mtt")[i % 3]
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        rho = 10.0 ** rng.uniform(-3.0, 3.0)
        edge = rng.random() < 0.4
        if kind == "gal":
            lam = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0) if edge else rng.uniform(0.01, 0.9)
            u_t = 1.0 / math.sqrt((1.0 - lam) * (1.0 + lam))
        else:
            lam = rng.uniform(1.2, 8.0) if edge else rng.uniform(0.01, 1.2)
            u_t = math.cosh(lam)
        # RK4 keeps the drift below DRIFT_LIMIT from about 50 (u^t)^1.2
        # steps a revolution; draws start at half that, one in four at 16
        low = 16.0 if i % 4 == 0 else max(16.0, 25.0 * u_t**1.2)
        steps = round(10.0 ** rng.uniform(math.log10(low), 9.0))
        draws.append((kind, rho, lam * c / rho, c, steps))
    return draws + FIXED


def _outcome(kind, rho, omega, c, steps):
    try:
        return measure_precession_angle(CongruenceSpec(kind, omega, c), rho, steps).hex()
    except RotframesError as exc:
        return [type(exc).__name__, str(exc)]


def _inputs(kind, rho, omega, c, steps):
    return [kind, rho.hex(), omega.hex(), c.hex(), steps]


def _table():
    return [_inputs(*draw) + [_outcome(*draw)] for draw in _draws()]


def test_angles_match_the_table_bit_for_bit():
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    draws = _draws()
    assert [row[:5] for row in golden] == [_inputs(*draw) for draw in draws]
    for k, (row, draw) in enumerate(zip(golden, draws)):
        assert _outcome(*draw) == row[5], (f"draw {k}", *draw)


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in _table())
    sys.stdout.write(f"[\n{rows}\n]\n")
