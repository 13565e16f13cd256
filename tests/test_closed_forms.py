"""Every closed form, bit for bit, over the edges of its domain.

tests/data/closed_forms.json holds one row per kind and grid point of
_points(): the kind, rho, omega and c as float.hex strings, then one
outcome per entry of FUNCTIONS, in that order. An outcome is the
result's float.hex string (a list of them for a report or a
four-velocity) or the [exception class, message] pair it raised; an
outcome equal to an earlier one of its row is stored as that function's
name. ``python tests/test_closed_forms.py > tests/data/closed_forms.json``
writes the table; the stored one was written before the closed forms
shared one fixed-point evaluation. Its tt and mtt rows at subnormal rho
were rewritten later, once the period stopped rounding 2 pi rho in the
subnormal range (they held 6.0 for 2 pi, for one), and so were the six
per kind whose speed c tanh(lam) is subnormal, once the period stopped
dividing by that speed (they held 2 pi for 2 pi / tanh 1, for one).
Then 40 tt and mtt rows were rewritten once lambda stopped rounding
rho * omega in the subnormal range first (at rho = 1e-6, omega = 4e-308,
c = 1e-6 every closed form was 3.6e-11 off, and where rho * omega
underflowed to 0 the vorticity was 0.0 and the period refused), and 6
more once the proper period stopped failing where only the lab period
overflows. Each changed outcome was checked against a 40-digit decimal
value.

The one intended difference from that table is _intended(): where
rho * omega / c is infinite, tt and mtt gave a proper time rate (and a
proper period) of 0.0 instead of the overflow error that rapidity 711
gives.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from rotframes import (
    KINDS,
    CongruenceSpec,
    DomainError,
    Event,
    RotframesError,
    fixed_point_speed,
    four_velocity,
    omega_closed_form,
    precession_per_revolution,
    proper_period,
    proper_time_rate,
    revolution_period,
)

TABLE = Path(__file__).parent / "data" / "closed_forms.json"

VALUES = [5e-324, 1e-300, 1e-6, 1.0, 1e300]
# rapidities at which rho is placed as well: the gal light cylinder, where
# sinh * cosh (355) and cosh (710.5) leave the float range, and beyond
RAPIDITIES = [1.0, 355.0, 710.0, 711.0, 1000.0]

FUNCTIONS = {
    "fixed_point_speed": lambda rho, spec: fixed_point_speed(rho, spec),
    "proper_time_rate": lambda rho, spec: proper_time_rate(rho, spec),
    "revolution_period": lambda rho, spec: revolution_period(rho, spec),
    "omega_closed_form": lambda rho, spec: omega_closed_form(rho, spec),
    "proper_period": lambda rho, spec: proper_period(spec, rho),
    "precession_per_revolution": lambda rho, spec: [
        getattr(precession_per_revolution(spec, rho), name)
        for name in ("vorticity", "delta_tau", "delta_phi", "net_angle")],
    "four_velocity": lambda rho, spec: list(
        four_velocity(Event(0.0, rho, 0.0), spec).components),
}


def _points():
    """(rho, omega, c) triples: every value, and rho at each rapidity."""
    points = []
    for c in VALUES:
        for omega in [0.0, 4e-308] + VALUES:
            rhos = VALUES + [lam * c / omega for lam in RAPIDITIES if omega > 0.0]
            for rho in dict.fromkeys(r for r in rhos if 0.0 < r < math.inf):
                points.append((rho, omega, c))
    return points


def _outcome(fn, rho, spec):
    try:
        value = fn(rho, spec)
    except RotframesError as exc:
        return [type(exc).__name__, str(exc)]
    return [v.hex() for v in value] if isinstance(value, list) else value.hex()


def _table():
    rows = []
    for kind in KINDS:
        for rho, omega, c in _points():
            spec = CongruenceSpec(kind, omega, c)
            row, first = [kind, rho.hex(), omega.hex(), c.hex()], {}
            for name, fn in FUNCTIONS.items():
                outcome = _outcome(fn, rho, spec)
                key = json.dumps(outcome)
                row.append(first[key] if key in first else outcome)
                first.setdefault(key, name)
            rows.append(row)
    return rows


def _outcomes(row):
    """name -> outcome of one table row, with references resolved."""
    outcomes = {}
    for name, stored in zip(FUNCTIONS, row[4:]):
        if isinstance(stored, str) and stored in outcomes:
            stored = outcomes[stored]
        outcomes[name] = stored
    return outcomes


def _overflow_error(rho, omega, c):
    return ["DomainError", f"overflow at rho = {rho}, omega = {omega}, c = {c}: "
            "a value exceeds the float range"]


def _intended(name, kind, rho, omega, c):
    """Whether the stored 0.0 of this outcome is meant to be the overflow error."""
    return (name in ("proper_time_rate", "proper_period") and kind != "gal"
            and math.isinf(rho * omega / c))


def test_closed_forms_match_the_table_bit_for_bit():
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    table = _table()
    assert [row[:4] for row in table] == [row[:4] for row in golden]
    changed = 0
    for row, gold in zip(table, golden):
        kind, params = row[0], [float.fromhex(p) for p in row[1:4]]
        expected = _outcomes(gold)
        for name, outcome in _outcomes(row).items():
            where = (name, kind, *params)
            if _intended(*where) and expected[name] == (0.0).hex():
                assert outcome == _overflow_error(*params), where
                changed += 1
            else:
                assert outcome == expected[name], where
    assert changed > 0


def test_report_speed_and_rate_are_the_scalar_closed_forms():
    for kind in KINDS:
        for rho, omega, c in _points():
            spec = CongruenceSpec(kind, omega, c)
            try:
                report = precession_per_revolution(spec, rho)
            except RotframesError:  # the table test covers errors
                continue
            assert report.speed == fixed_point_speed(rho, spec)
            assert report.dtau_dt == proper_time_rate(rho, spec)


@pytest.mark.parametrize("kind", ["tt", "mtt"])
def test_infinite_rapidity_is_an_overflow_error(kind):
    # rho * omega / c = inf: math.cosh gives inf without an OverflowError,
    # and the rate 1 / cosh came back as 0.0
    spec = CongruenceSpec(kind, 1e200)
    message = _overflow_error(1e300, 1e200, 1.0)[1]
    with pytest.raises(DomainError) as info:
        proper_time_rate(1e300, spec)
    assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        proper_period(spec, 1e300)
    assert str(info.value) == message


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in _table())
    sys.stdout.write(f"[\n{rows}\n]\n")
