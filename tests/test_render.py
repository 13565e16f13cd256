"""The block-wise CSV and JSON renderers against their one-call references.

_render_json must print exactly what json.dumps(payload, indent=2,
sort_keys=True) prints, with non-finite numbers as null, and _render_csv
exactly format(v, ".17g") per number. The tables are seeded draws that
hold the values where a float's repr or its 17-digit form changes shape,
for every field list the CLI emits and for row counts around the block
size. A flat table is one (None, rows) section; a report table split into
(kind, rows) sections, some sharing one rows list, must print as the
flat table of its rows with each kind cell rewritten to its section's.
The params head, filled from a cached template, must print as json.dumps
prints the params of each command, over seeded values.
"""

import json
import math
import sys

import numpy as np
import pytest

import rotframes
from rotframes import cli
from rotframes.cli import CSV_HEADER, ROW_FIELDS, _render_csv, _render_json

SPECIAL = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e-05,
    0.0001, 1e16, 9999999999999998.0, -1e16, sys.float_info.max,
    -sys.float_info.max, sys.float_info.min, 0.1, 2.0 / 3.0, 1.0, -2.5,
]
KIND_NAMES = ["gal", "tt", "mtt"]
STATUSES = ["ok", "light_cylinder", "domain_error"]

# (field names, the index of each string field and its choices)
TABLES = {
    "report": (ROW_FIELDS, {0: KIND_NAMES, len(ROW_FIELDS) - 1: STATUSES}),
    "fw_check": (ROW_FIELDS + ["fw_measured", "fw_deviation"],
                 {0: KIND_NAMES, len(ROW_FIELDS) - 1: STATUSES}),
    "transform": (["t", "rho", "phi", "z"], {}),
}
PARAMS = {
    "report": {"command": "omega", "kind": ["gal", "tt", "mtt"], "rho_min": 0.1,
               "rho_max": 1.8, "steps": 20, "omega": 0.5, "c": 1.0,
               "format": "json"},
    "fw_check": {"command": "precess", "kind": "tt", "rho": 1e-310, "omega": 1.7e308,
                 "c": 5e-324, "format": "json", "fw_check": None},
    "transform": {"command": "transform", "map": "tt", "direction": "inv",
                  "omega": 0.0, "c": 1.0, "format": "json"},
}
SIZES = [0, 1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1]
# the params each command adds to command, omega, c and format
COMMAND_FIELDS = {
    "omega": ("kind", "rho_min", "rho_max", "steps"),
    "compare": ("rho",),
    "precess": ("kind", "rho", "fw_check"),
    "transform": ("map", "direction"),
}
EXTREME_INTS = [0, 2, 2**53, 2**63, 10**30]


def _value(rng):
    u = rng.random()
    if u < 0.5:
        value = SPECIAL[int(rng.integers(len(SPECIAL)))]
    else:
        value = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-320, 300))
    return np.float64(value) if rng.random() < 0.2 else value


def _table(rng, table, n):
    names, strings = TABLES[table]
    return [
        tuple(str(rng.choice(strings[i])) if i in strings else _value(rng)
              for i in range(len(names)))
        for _ in range(n)
    ]


def _command_params(rng, command):
    """Params of command with seeded values: floats of every shape, ints up
    to 10**30, a list of 0 to 3 kinds for omega, and null for fw_check."""
    def integer():
        return EXTREME_INTS[int(rng.integers(len(EXTREME_INTS)))]

    drawn = {
        "kind": (str(rng.choice(KIND_NAMES)) if command == "precess" else
                 [str(k) for k in rng.choice(KIND_NAMES, int(rng.integers(0, 4)))]),
        "steps": integer(),
        "fw_check": None if rng.random() < 0.5 else integer(),
        "map": str(rng.choice(["gal", "tt"])),
        "direction": str(rng.choice(["fwd", "inv"])),
    }
    params = {"command": command, "omega": _value(rng), "c": _value(rng),
              "format": "json"}
    for name in COMMAND_FIELDS[command]:
        params[name] = drawn[name] if name in drawn else _value(rng)
    return params


def _reference_json(params, names, rows):
    def cell(v):
        if isinstance(v, str):
            return v
        v = float(v)
        return v if math.isfinite(v) else None

    payload = {
        "params": params,
        "rows": [{name: cell(v) for name, v in zip(names, row)} for row in rows],
        "version": rotframes.__version__,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reference_csv(names, rows):
    lines = [",".join(names)] + [
        ",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("table", sorted(TABLES))
def test_json_matches_json_dumps_with_indent(table, n):
    rng = np.random.default_rng([17, n, len(table)])
    names = TABLES[table][0]
    rows = _table(rng, table, n)
    assert _render_json(PARAMS[table], names, [(None, rows)]) == _reference_json(
        PARAMS[table], names, rows)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("table", sorted(TABLES))
def test_csv_matches_per_value_formatting(table, n):
    rng = np.random.default_rng([19, n, len(table)])
    names = TABLES[table][0]
    rows = _table(rng, table, n)
    assert _render_csv(",".join(names), [(None, rows)]) == _reference_csv(names, rows)


@pytest.mark.parametrize("n", SIZES)
def test_sections_match_the_relabelled_flat_table(n):
    rng = np.random.default_rng([29, n])
    shared, other = _table(rng, "report", n), _table(rng, "report", n // 3 + 2)
    sections = [("mtt", shared), ("gal", other), ("tt", shared), ("tt", [])]
    flat = [(kind, *row[1:]) for kind, rows in sections for row in rows]
    params = PARAMS["report"]
    assert _render_json(params, ROW_FIELDS, sections) == _reference_json(
        params, ROW_FIELDS, flat)
    assert _render_csv(CSV_HEADER, sections) == _reference_csv(ROW_FIELDS, flat)


def test_every_special_value_in_one_row():
    names = [f"x{i}" for i in range(len(SPECIAL))] + ["kind"]
    rows = [SPECIAL + ["gal"], [np.float64(v) for v in SPECIAL] + ["tt"]]
    params = {"command": "omega"}
    assert _render_json(params, names, [(None, rows)]) == _reference_json(
        params, names, rows)
    assert _render_csv(",".join(names), [(None, rows)]) == _reference_csv(names, rows)


@pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
def test_params_head_matches_json_dumps(command):
    rng = np.random.default_rng([31, len(command)])
    for _ in range(40):
        params = _command_params(rng, command)
        assert cli._params_head(params) == json.dumps(
            {"params": params}, indent=2, sort_keys=True)[:-2]
        assert _render_json(params, ["x"], []) == _reference_json(params, ["x"], [])


def test_json_rows_round_trip():
    rng = np.random.default_rng(23)
    rows = _table(rng, "report", cli._BLOCK + 3)
    parsed = json.loads(_render_json(PARAMS["report"], ROW_FIELDS, [(None, rows)]))["rows"]
    for row, back in zip(rows, parsed):
        for name, v in zip(ROW_FIELDS, row):
            if isinstance(v, str):
                assert back[name] == v
            elif math.isfinite(v):
                assert back[name] == v and math.copysign(1, back[name]) == math.copysign(1, v)
            else:
                assert back[name] is None
