"""Command-line front end: sweeps, precession reports and coordinate maps.

Subcommands
-----------
omega      sweep the vorticity scalar over a radius grid, comparing the
           finite-difference pipeline against the closed forms
precess    per-revolution precession report for one congruence and radius
compare    three-way gal / tt / mtt report at identical parameters
transform  apply one coordinate map (or its inverse) to a single event

Shared flags: --format {csv|json} (default csv), --out PATH (default
stdout), --c VALUE (default 1), --self-check.

CSV output is deterministic: fixed column order, floats printed with 17
significant digits, LF line endings, no timestamps. Rows at or beyond the
gal light cylinder are emitted with status "light_cylinder" and NaN /
null numerics rather than dropped. A row whose closed-form columns raise
DomainError (off the domain, or out of the float range), or whose
numeric scalar kinematics gives as nan (difference stencil off the chart
or across the light cylinder, or a value out of the float range), is
emitted the same way with status "domain_error". precess turns either
mark into exit 3. JSON output is an object
{"params": ..., "rows": [...], "version": ...} as json.dumps prints it with
indent=2 and sorted keys: floats print as Python repr, so they round-trip
exactly, and non-finite values become null. Both formats are rendered a
block of rows at a time (_render_csv, _render_json). Each JSON object,
the params head and every row, fills the %-template of its layout, built
once per shape (_json_object: the sorted keys and the length of each list
value), from one pass of json's C encoder over its values (_fill).

omega, compare and precess each compute their rows with one compute_rows
call: each distinct model once (congruences._MODEL), every radius of it
differenced in one kinematics._scalar_rows call, whose passes are bounded
in size. A table of _ROWS_FROM radii or more takes the closed-form
columns of its ordinary rows from arrays, one numpy pass per model
(_array_rows); a shorter one, such as the one-row tables of compare and
precess, builds and marks each row in one place, _row, whose bits the
array path keeps. Kinds of one model share one rows list: the mtt rows
are rendered once, as the tt section with its kind cell rewritten.

Exit codes: 0 success, 2 self-check failure (some rel_err above 1e-6,
or precess's fw_measured more than 1e-6 relative off the Thomas angle
-2 pi u^t), 3 domain error (one-line diagnostic, no traceback), 64 usage
error (a bad flag, an --out that cannot be written, or a bad
ROTFRAMES_SELF_CHECK_PERTURB), also with one line.

Negative flag values may be written in exponent form (--t -1e-05), not
only as plain decimals. The argument parser is built once per process, on
the first main() call, and reused by every later call; build_parser()
always returns a fresh one. An argv whose first word is a subcommand name
goes straight to that subcommand's parser, and the top parser reports
only the arguments left over (_parse); any other argv takes the top
parser's full parse. argparse writes every message either way, with the
bytes a full parse gives.

ROTFRAMES_SELF_CHECK_PERTURB, set to a finite number x, multiplies every
numeric vorticity by (1 + x) in compute_rows, its one reader; a product
past the float range marks its row domain_error. Any other value that
is not blank is a usage error. It fault-injects --self-check in tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import cache, partial
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import __version__
from .congruences import (
    _MODEL,
    KINDS,
    CongruenceSpec,
    _fixed_point_rows,
    _rapidity,
    _rapidity_rows,
    gal_inverse,
    gal_map,
    omega_closed_form,  # noqa: F401  rfbench/layers.py traces it here
    tt_inverse,
    tt_map,
)
from .errors import (
    ConstraintDriftError,
    DegenerateError,
    DomainError,
    LightCylinderError,
)
from .kinematics import (
    _scalar_rows,
    vorticity_scalar,  # noqa: F401  rfbench/layers.py traces it here
)
from .tensors import Event
from .transport import (
    SELF_CHECK_TOL,
    measure_precession_angle,
    precession_per_revolution,
)

CSV_HEADER = (
    "kind,rho,lambda,omega_numeric,omega_closed,rel_err,"
    "v,dtau_dt,delta_phi_prime,thomas_net,status"
)
ROW_FIELDS = CSV_HEADER.split(",")

# a three-kind sweep of this many steps peaks at about 223 MiB RSS as CSV and
# 342 MiB as JSON (ru_maxrss at 152ca44; Python 3.11, numpy 2.4, x86-64 Linux)
MAX_SWEEP_STEPS = 100_000
PERTURB_ENV = "ROTFRAMES_SELF_CHECK_PERTURB"

EXIT_OK = 0
EXIT_SELF_CHECK = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64

_NANS = (float("nan"),) * 7  # the numeric columns of a marked row
# rows per table from which compute_rows takes the array path (see there)
_ROWS_FROM = 16


class UsageError(Exception):
    """Invalid flag combination detected after parsing."""


# argparse reads "-1e-05" as an option because its pattern has no exponent
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with the usage code on bad flags and
    takes negative numbers in exponent form as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class ReportRow(NamedTuple):
    """One line of the unified report table (see CSV_HEADER)."""

    kind: str
    rho: float
    lam: float
    omega_numeric: float
    omega_closed: float
    rel_err: float
    v: float
    dtau_dt: float
    delta_phi_prime: float
    thomas_net: float
    status: str = "ok"


def _perturbation() -> float:
    """The x of PERTURB_ENV, 0 where it is unset or blank; a value that is
    not a finite number is a usage error."""
    raw = os.environ.get(PERTURB_ENV, "")
    if not raw.strip():
        return 0.0
    try:
        return _finite(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"{PERTURB_ENV} must be a finite number, got {raw!r}") from None


def _row(spec: CongruenceSpec, rho: float, lam: float, scalar: float) -> ReportRow:
    """The row of spec at rho with the numeric scalar scalar; its closed-form
    columns come from one precession_per_revolution report. It is marked
    light_cylinder where that raises LightCylinderError, and domain_error
    where it raises another DomainError or where scalar is not finite."""
    try:
        report = precession_per_revolution(spec, rho)
        status = "ok" if math.isfinite(scalar) else "domain_error"
    except LightCylinderError:
        status = "light_cylinder"
    except DomainError:
        status = "domain_error"
    if status != "ok":
        return ReportRow(spec.kind, rho, lam, *_NANS, status)
    closed = report.vorticity
    return ReportRow(spec.kind, rho, lam, scalar, closed, abs(scalar - closed) / closed,
                     report.speed, report.dtau_dt, report.delta_phi, report.net_angle)


def compute_rows(kinds: list[str], rhos, omega: float,
                 c: float) -> list[tuple[str, list[ReportRow]]]:
    """One (kind, rows) section per kind, in order; domain failures become
    marked rows.

    Each distinct model (congruences._MODEL) is computed once, and the
    kinds it models share its one rows list, whose rows carry the model's
    kind: the renderers format that list once and write it under each
    kind (an mtt section is the tt section with its kind cell rewritten).
    One kinematics._scalar_rows call differences every radius of every
    model, nan where the stencil does not fit or a value is not finite, and
    the rows take each scalar times (1 + x), x read first from PERTURB_ENV.

    A table of fewer than _ROWS_FROM radii then builds and marks each row
    in one place, _row, from one precession_per_revolution report. A
    longer one builds each model's rows with _array_rows, whose one numpy
    pass gives the ordinary rows the bits _row gives them, so no row
    depends on its table. The pass has a fixed cost that per-row reports
    do not: the break-even measured 10 to 12 rows, hence _ROWS_FROM.
    """
    factor = 1.0 + _perturbation()
    rho = np.array(rhos, dtype=float)
    rhos = rho.tolist()
    specs = [CongruenceSpec(model, omega, c)
             for model in dict.fromkeys(_MODEL[kind] for kind in kinds)]
    x = np.zeros((len(rhos), 4))
    x[:, 1] = rho
    scalars = _scalar_rows(specs, [x] * len(specs))
    if len(rhos) < _ROWS_FROM:
        lams = [_rapidity(r, omega, c) for r in rhos]
        computed = {spec.kind: [_row(spec, r, lam, v * factor)
                                for r, lam, v in zip(rhos, lams, s.tolist())]
                    for spec, s in zip(specs, scalars)}
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lams = _rapidity_rows(rho, rho.min(), omega, c).tolist()
            computed = {spec.kind: _array_rows(spec, rho, rhos, lams, s * factor)
                        for spec, s in zip(specs, scalars)}
    return [(kind, computed[_MODEL[kind]]) for kind in kinds]


def _array_rows(spec: CongruenceSpec, rho: np.ndarray, rhos: list, lams: list,
                scalar: np.ndarray) -> list[ReportRow]:
    """The rows of spec at the radii rho with the numeric scalars scalar,
    as _row builds them; rhos holds the radii as floats, lams their
    rapidities.

    The closed-form columns of the plain rows (congruences._fixed_point_rows)
    and their rel_err, delta_phi and net come from one numpy pass. A gal
    row at or past the light cylinder is marked from its mask, without a
    report; _row builds every other row, a non-finite scalar among them.
    """
    fp = _fixed_point_rows(rho, spec)
    scalars = scalar.tolist()
    rel_err = np.abs(scalar - fp.vorticity) / fp.vorticity
    delta_phi = -fp.vorticity * fp.proper_period
    columns = zip(repeat(spec.kind), rhos, lams, scalars, fp.vorticity.tolist(),
                  rel_err.tolist(), fp.speed.tolist(), fp.dtau_dt.tolist(),
                  delta_phi.tolist(), (delta_phi + 2.0 * math.pi).tolist(), repeat("ok"))
    # ReportRow._make without its Python-level call per row
    rows = list(map(tuple.__new__, repeat(ReportRow), columns))
    (others,) = (~(fp.plain & np.isfinite(scalar))).nonzero()
    for i, outside in zip(others.tolist(), fp.light_cylinder[others].tolist()):
        rows[i] = (ReportRow(spec.kind, rhos[i], lams[i], *_NANS, "light_cylinder")
                   if outside else _row(spec, rhos[i], lams[i], scalars[i]))
    return rows


def compute_row(kind: str, rho: float, omega: float, c: float) -> ReportRow:
    """Evaluate one grid point of one kind; a batch of one of compute_rows,
    its row relabelled with the kind."""
    _, rows = compute_rows([kind], [rho], omega, c)[0]
    return rows[0]._replace(kind=kind)


# rows per %-template: one encoder pass per block keeps the token list and
# the %-tuple small however long the table is
_BLOCK = 512
_json_str = json.encoder.encode_basestring_ascii  # json.dumps of a str, without its overhead
# json.dumps(..., separators=("\n", ":")) without building its encoder per call
_JSON_TOKENS = json.JSONEncoder(separators=("\n", ":"))


def _blocks(rows: list, row_template: str, sep: str):
    """(block, row_template once per row of it, joined by sep) for each block."""
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        yield block, sep.join([row_template] * len(block))


def _section_texts(sections: list, render_body, fill) -> list[str]:
    """The text of each non-empty (kind, rows) section, in order.

    A section whose kind is None is a flat table, its rows printed as they
    are. Otherwise the first cell of each row is the kind cell, and it
    prints as fill(kind): render_body(rows, True) formats a rows list once,
    with that cell left as a %s slot, and each section sharing the list
    fills the slots of that one body. The slot is safe because no other
    cell of such a table, nor a field name, can print a %: the cells are
    floats, null and the statuses ok, light_cylinder and domain_error.
    """
    bodies, texts = {}, []
    for kind, rows in sections:
        if not rows:
            continue
        body = bodies.get(id(rows))
        if body is None:
            body = bodies[id(rows)] = render_body(rows, kind is not None)
        texts.append(body if kind is None else body % ((fill(kind),) * len(rows)))
    return texts


def _csv_body(rows: list, slotted: bool) -> str:
    first = 1 if slotted else 0  # the first cell that is formatted here
    # "%.17g" prints nan and inf as format() does
    fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0][first:])
    if slotted:
        fmt = "%%s," + fmt
    cells = itemgetter(*range(first, len(rows[0])))  # a tuple: every table has 2+ cells
    return "\n".join(template % tuple(chain.from_iterable(map(cells, block)))
                     for block, template in _blocks(rows, fmt, "\n"))


def _render_csv(header: str, sections: list) -> str:
    """The header line and then each section's rows (see _section_texts)."""
    return "\n".join([header, *_section_texts(sections, _csv_body, str), ""])


@cache
def _json_object(keys: tuple, depth: int, slot: str | None = None) -> str:
    """The %-template of an object as json.dumps(indent=2, sort_keys=True)
    prints it at nesting depth depth. keys holds its sorted (key, length of
    a list value or None) pairs; each value is a %s slot, the key slot's a
    %%s slot (see _section_texts)."""
    indent = "\n" + "  " * (depth + 1)
    lines = []
    for key, size in keys:
        if size is None:
            value = "%%s" if key == slot else "%s"
        else:
            value = "[" + ",".join([indent + "  %s"] * size) + indent + "]" if size else "[]"
        lines.append(f"{indent}{_json_str(key)}: {value}")
    return "{" + ",".join(lines) + "\n" + "  " * depth + "}"


def _fill(template: str, values: list, null: bool = False) -> str:
    """template filled from one pass of json's C encoder over values, one
    token per line (ensure_ascii escapes a newline in a string); null
    prints the non-finite tokens as null."""
    text = _JSON_TOKENS.encode(values)[1:-1]
    if null:
        text = text.replace("-Infinity", "null").replace("Infinity", "null").replace("NaN", "null")
    return template % tuple(text.split("\n"))


@cache
def _json_row(field_names: tuple[str, ...], slotted: bool) -> tuple[str, itemgetter]:
    """The template of one JSON row of field_names, a slotted table's kind
    cell (field 0) left as a slot, and the getter of its other cells."""
    order = sorted(range(len(field_names)), key=field_names.__getitem__)
    keys = tuple((field_names[i], None) for i in order)
    row_template = "    " + _json_object(keys, 2, field_names[0] if slotted else None)
    return row_template, itemgetter(*[i for i in order if i or not slotted])


def _json_body(field_names: tuple[str, ...], rows: list, slotted: bool) -> str:
    row_template, cells = _json_row(field_names, slotted)
    return ",\n".join([_fill(template, list(chain.from_iterable(map(cells, block))), True)
                       for block, template in _blocks(rows, row_template, ",\n")])


def _params_head(params: dict) -> str:
    """json.dumps({"params": params}, indent=2, sort_keys=True) without its
    closing brace, NaN and Infinity kept, for params whose values are
    scalars or lists of scalars, at least one of them a scalar (every
    command's command name)."""
    keys, values = [], []
    for name in sorted(params):
        value = params[name]
        if isinstance(value, list):
            keys.append((name, len(value)))
            values += value
        else:
            keys.append((name, None))
            values.append(value)
    return '{\n  "params": ' + _fill(_json_object(tuple(keys), 1), values)


def _render_json(params: dict, field_names: list[str], sections: list) -> str:
    """The bytes of json.dumps({"params", "rows", "version"}, indent=2,
    sort_keys=True) with non-finite numbers as null, the rows being each
    section's rows in turn (see _section_texts).

    indent makes json.dumps use its pure-Python encoder, so the rows
    instead fill a key-sorted %-template (_json_row, built once per field
    list) one block at a time, from one pass of json's C encoder over the
    block's values (_fill). Its non-finite tokens become null: no string
    cell can hold them, as the cells are floats, the kinds and the
    statuses (see _section_texts).
    """
    head = _params_head(params)
    version = _json_str(__version__)
    body = partial(_json_body, tuple(field_names))
    texts = _section_texts(sections, body, _json_str)
    if not texts:
        return f'{head},\n  "rows": [],\n  "version": {version}\n}}\n'
    pieces = [f'{head},\n  "rows": [\n']
    for text in texts:
        pieces += (text, ",\n")
    pieces[-1] = f'\n  ],\n  "version": {version}\n}}\n'
    return "".join(pieces)


def _emit(args, params: dict, field_names: list[str], sections: list) -> None:
    """Write the (kind, rows) sections as CSV or JSON (--format) to --out or
    stdout."""
    if args.format == "json":
        text = _render_json(params, field_names, sections)
    else:
        text = _render_csv(",".join(field_names), sections)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _gate(args, sections: list) -> int:
    """Exit 2 under --self-check at the first row, in output order, whose
    rel_err is above the tolerance, naming its section's kind."""
    if not args.self_check:
        return EXIT_OK
    for kind, rows in sections:
        for row in rows:
            if math.isfinite(row.rel_err) and row.rel_err > SELF_CHECK_TOL:
                print(
                    f"self-check failed: rel_err {row.rel_err:.3e} at "
                    f"kind={kind} rho={row.rho}",
                    file=sys.stderr,
                )
                return EXIT_SELF_CHECK
    return EXIT_OK


def _emit_report(args, params: dict, sections: list) -> int:
    _emit(args, params, ROW_FIELDS, sections)
    return _gate(args, sections)


def _parse_kinds(raw: str) -> list[str]:
    kinds = [k.strip() for k in raw.split(",") if k.strip()]
    if not kinds:
        raise UsageError("at least one congruence kind is required")
    for k in kinds:
        if k not in KINDS:
            raise UsageError(f"unknown kind {k!r}; choose from {','.join(KINDS)}")
    return kinds


def _params(args, command: str, **fields) -> dict:
    """The JSON params of command: the flags every command shares, then fields."""
    return {"command": command, "omega": args.omega, "c": args.c,
            "format": args.format, **fields}


def cmd_omega(args) -> int:
    kinds = _parse_kinds(args.kind)
    if not args.rho_min < args.rho_max:
        raise UsageError("--rho-min must be smaller than --rho-max")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.steps > MAX_SWEEP_STEPS:
        raise UsageError(f"--steps must be at most {MAX_SWEEP_STEPS}")
    grid = np.linspace(args.rho_min, args.rho_max, args.steps)
    sections = compute_rows(kinds, grid, args.omega, args.c)
    params = _params(args, "omega", kind=kinds, rho_min=args.rho_min,
                     rho_max=args.rho_max, steps=args.steps)
    return _emit_report(args, params, sections)


def cmd_compare(args) -> int:
    sections = compute_rows(list(KINDS), [args.rho], args.omega, args.c)
    return _emit_report(args, _params(args, "compare", rho=args.rho), sections)


def cmd_precess(args) -> int:
    # above 2**53 step indices are no longer exact floats
    if args.fw_check is not None and not 16 <= args.fw_check <= 2**53:
        raise UsageError("--fw-check needs 16 to 2**53 steps")
    spec = CongruenceSpec(args.kind, args.omega, args.c)
    row = compute_row(args.kind, args.rho, args.omega, args.c)
    if row.status != "ok":
        # single-point command: a closed-form DomainError (the light
        # cylinder among them) reaches the user with its own message
        precession_per_revolution(spec, args.rho)
        raise DomainError(
            f"point not numerically evaluable: rho = {args.rho}, "
            f"omega = {args.omega}, c = {args.c}"
        )
    params = _params(args, "precess", kind=args.kind, rho=args.rho,
                     fw_check=args.fw_check)
    names, values = ROW_FIELDS, row
    if args.fw_check is not None:
        try:
            fw_measured = measure_precession_angle(spec, args.rho, args.fw_check)
        except ConstraintDriftError as exc:
            raise DomainError(f"{exc}; increase --fw-check") from exc
        names = ROW_FIELDS + ["fw_measured", "fw_deviation"]
        values = (*row, fw_measured, fw_measured - row.delta_phi_prime)
    _emit(args, params, names, [(None, [values])])
    code = _gate(args, [(row.kind, [row])])
    if code == EXIT_OK and args.self_check and args.fw_check is not None:
        # the Thomas angle -2 pi u^t is the dyad-referenced reference of every kind
        thomas = -2.0 * math.pi / row.dtau_dt
        rel = abs(fw_measured - thomas) / -thomas
        if not rel <= SELF_CHECK_TOL:
            print(
                f"self-check failed: fw_measured is {rel:.3e} off -2 pi u^t at "
                f"kind={row.kind} rho={row.rho}; increase --fw-check",
                file=sys.stderr,
            )
            return EXIT_SELF_CHECK
    return code


def cmd_transform(args) -> int:
    spec = CongruenceSpec(args.map, args.omega, args.c)
    event = Event(args.t, args.rho, args.phi, args.z)
    maps = {
        ("gal", "fwd"): gal_map,
        ("gal", "inv"): gal_inverse,
        ("tt", "fwd"): tt_map,
        ("tt", "inv"): tt_inverse,
    }
    out = maps[(args.map, args.direction)](event, spec)
    params = _params(args, "transform", map=args.map, direction=args.direction)
    _emit(args, params, ["t", "rho", "phi", "z"],
          [(None, [[out.t, out.rho, out.phi, out.z]])])
    return EXIT_OK


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--c", type=_positive, default=1.0, help="light speed")
    common.add_argument(
        "--self-check",
        action="store_true",
        help=f"exit {EXIT_SELF_CHECK} if any rel_err, or precess's fw_measured "
             f"against -2 pi u^t, exceeds {SELF_CHECK_TOL:g} relative",
    )

    parser = _Parser(
        prog="rotframes",
        description="Rotating-congruence vorticity and gyroscope precession.",
        epilog="exit codes: 0 ok, 2 self-check failure, 3 domain error, 64 usage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser(
        "omega", parents=[common], help="vorticity sweep over a radius grid"
    )
    p_omega.add_argument("--kind", default="gal,tt,mtt",
                         help="comma-separated congruences, e.g. gal,tt")
    p_omega.add_argument("--rho-min", type=_positive, required=True)
    p_omega.add_argument("--rho-max", type=_positive, required=True)
    p_omega.add_argument("--steps", type=int, required=True)
    p_omega.add_argument("--omega", type=_positive, required=True)
    p_omega.set_defaults(func=cmd_omega)

    p_precess = sub.add_parser(
        "precess", parents=[common], help="per-revolution precession report"
    )
    p_precess.add_argument("--kind", choices=KINDS, required=True)
    p_precess.add_argument("--rho", type=_positive, required=True)
    p_precess.add_argument("--omega", type=_positive, required=True)
    p_precess.add_argument(
        "--fw-check",
        type=int,
        default=None,
        metavar="STEPS",
        help="also run the transport integrator with this many RK4 steps",
    )
    p_precess.set_defaults(func=cmd_precess)

    p_compare = sub.add_parser(
        "compare", parents=[common], help="three-way congruence comparison"
    )
    p_compare.add_argument("--rho", type=_positive, required=True)
    p_compare.add_argument("--omega", type=_positive, required=True)
    p_compare.set_defaults(func=cmd_compare)

    p_transform = sub.add_parser(
        "transform", parents=[common], help="apply one coordinate map to an event"
    )
    p_transform.add_argument("--map", choices=("gal", "tt"), required=True)
    p_transform.add_argument("--direction", choices=("fwd", "inv"), default="fwd")
    p_transform.add_argument("--t", type=_finite, default=0.0)
    p_transform.add_argument("--rho", type=_positive, required=True)
    p_transform.add_argument("--phi", type=_finite, default=0.0)
    p_transform.add_argument("--z", type=_finite, default=0.0)
    p_transform.add_argument("--omega", type=_non_negative, required=True)
    p_transform.set_defaults(func=cmd_transform)

    parser.commands = sub.choices  # subcommand name -> its parser, for _parse
    return parser


_parser: argparse.ArgumentParser | None = None  # filled by the first main() call


def _parse(argv) -> argparse.Namespace:
    """_parser.parse_args(argv), with argv[0] that names a subcommand
    dispatched straight to that subcommand's parser.

    The top parser's only option is -h, and its subcommand positional
    takes argv[0] and every argument after it (nargs=PARSER), so it hands
    argv[1:] to the subcommand's parse_known_args unchanged; here the top
    parser reports only the arguments left over, as parse_args does. Any
    other argv (empty, an option first, no subcommand) takes the full parse.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        return _parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"rotframes: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, DegenerateError) as exc:
        print(f"rotframes: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
