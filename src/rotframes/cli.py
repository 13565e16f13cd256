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
{"params": ..., "rows": [...], "version": ...} whose floats round-trip
exactly (non-finite values become null).

Exit codes: 0 success, 2 self-check failure (some rel_err above 1e-6),
3 domain error (one-line diagnostic, no traceback), 64 usage error.

Negative flag values may be written in exponent form (--t -1e-05), not
only as plain decimals. The argument parser is built once per process, on
the first main() call, and reused by every later call; build_parser()
always returns a fresh one.

The environment variable ROTFRAMES_SELF_CHECK_PERTURB, when set to a
float x, multiplies every numerically computed vorticity by (1 + x).
It exists to fault-inject the --self-check gate in tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .congruences import (
    KINDS,
    CongruenceSpec,
    fixed_point_speed,
    gal_inverse,
    gal_map,
    omega_closed_form,  # noqa: F401  rfbench/layers.py traces it here
    proper_time_rate,
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
from .transport import measure_precession_angle, precession_per_revolution

CSV_HEADER = (
    "kind,rho,lambda,omega_numeric,omega_closed,rel_err,"
    "v,dtau_dt,delta_phi_prime,thomas_net,status"
)
ROW_FIELDS = CSV_HEADER.split(",")

SELF_CHECK_TOL = 1e-6
# a three-kind sweep of this many steps peaks at about 450 MB RSS
MAX_SWEEP_STEPS = 100_000
PERTURB_ENV = "ROTFRAMES_SELF_CHECK_PERTURB"

EXIT_OK = 0
EXIT_SELF_CHECK = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64

_NANS = (float("nan"),) * 7  # the numeric columns of a marked row


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
        self.print_usage(sys.stderr)
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


def _jsonable(value):
    if isinstance(value, str) or value is None:
        return value
    v = float(value)
    return v if math.isfinite(v) else None


def _perturbation() -> float:
    raw = os.environ.get(PERTURB_ENV, "")
    return float(raw) if raw.strip() else 0.0


def _marked_row(kind: str, rho: float, lam: float, status: str) -> ReportRow:
    return ReportRow(kind, rho, lam, *_NANS, status)


def _closed_columns(spec: CongruenceSpec, rho: float) -> tuple:
    """(omega_closed, v, dtau_dt, delta_phi_prime, thomas_net) at one radius."""
    report = precession_per_revolution(spec, rho)
    return (report.vorticity, fixed_point_speed(rho, spec), proper_time_rate(rho, spec),
            report.delta_phi, report.net_angle)


def compute_rows(kind: str, rhos, omega: float, c: float,
                 perturb: float = 0.0) -> list[ReportRow]:
    """Evaluate grid points of one kind; domain failures become marked rows.

    Closed-form columns are computed per row; a row whose closed form
    raises LightCylinderError is marked light_cylinder, and one that
    raises another DomainError domain_error. The numeric scalar comes
    from one kinematics._scalar_rows call over the other rows, multiplied
    by (1 + perturb); a row it gives as nan (stencil does not fit, value
    not finite) is marked domain_error too.
    """
    spec = CongruenceSpec(kind, omega, c)
    rows, pending = [], []
    for rho in map(float, rhos):
        lam = rho * omega / c
        try:
            closed = _closed_columns(spec, rho)
        except LightCylinderError:
            rows.append(_marked_row(kind, rho, lam, "light_cylinder"))
            continue
        except DomainError:
            rows.append(_marked_row(kind, rho, lam, "domain_error"))
            continue
        pending.append((len(rows), rho, lam, closed))
        rows.append(None)
    coords = np.zeros((len(pending), 4))
    coords[:, 1] = [p[1] for p in pending]
    scalars = _scalar_rows(spec, coords).tolist()
    for (i, rho, lam, closed), scalar in zip(pending, scalars):
        if math.isnan(scalar):
            rows[i] = _marked_row(kind, rho, lam, "domain_error")
            continue
        value, v, dtau_dt, delta_phi, net = closed
        scalar *= 1.0 + perturb
        rows[i] = ReportRow(kind, rho, lam, scalar, value, abs(scalar - value) / value,
                            v, dtau_dt, delta_phi, net)
    return rows


def compute_row(kind: str, rho: float, omega: float, c: float,
                perturb: float = 0.0) -> ReportRow:
    """Evaluate one grid point; a batch of one of compute_rows."""
    return compute_rows(kind, [rho], omega, c, perturb)[0]


def _render_csv(header: str, rows: list) -> str:
    if not rows:
        return header + "\n"
    # one %-format per row; "%.17g" prints nan and inf as format() does
    fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0])
    return "\n".join([header] + [fmt % tuple(row) for row in rows]) + "\n"


def _render_json(params: dict, field_names: list[str], rows: list) -> str:
    payload = {
        "params": params,
        "rows": [
            {name: _jsonable(v) for name, v in zip(field_names, row)} for row in rows
        ],
        "version": __version__,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, params: dict, field_names: list[str], rows: list) -> None:
    """Write the rows as CSV or JSON (--format) to --out or stdout."""
    if args.format == "json":
        text = _render_json(params, field_names, rows)
    else:
        text = _render_csv(",".join(field_names), rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gate(args, rows: list[ReportRow]) -> int:
    if not args.self_check:
        return EXIT_OK
    for row in rows:
        if math.isfinite(row.rel_err) and row.rel_err > SELF_CHECK_TOL:
            print(
                f"self-check failed: rel_err {row.rel_err:.3e} at "
                f"kind={row.kind} rho={row.rho}",
                file=sys.stderr,
            )
            return EXIT_SELF_CHECK
    return EXIT_OK


def _emit_report(args, params: dict, rows: list[ReportRow]) -> int:
    _emit(args, params, ROW_FIELDS, rows)
    return _gate(args, rows)


def _parse_kinds(raw: str) -> list[str]:
    kinds = [k.strip() for k in raw.split(",") if k.strip()]
    if not kinds:
        raise UsageError("at least one congruence kind is required")
    for k in kinds:
        if k not in KINDS:
            raise UsageError(f"unknown kind {k!r}; choose from {','.join(KINDS)}")
    return kinds


def cmd_omega(args) -> int:
    kinds = _parse_kinds(args.kind)
    if not args.rho_min < args.rho_max:
        raise UsageError("--rho-min must be smaller than --rho-max")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.steps > MAX_SWEEP_STEPS:
        raise UsageError(f"--steps must be at most {MAX_SWEEP_STEPS}")
    grid = np.linspace(args.rho_min, args.rho_max, args.steps)
    perturb = _perturbation()
    rows = [
        row
        for kind in kinds
        for row in compute_rows(kind, grid, args.omega, args.c, perturb)
    ]
    params = {
        "command": "omega",
        "kind": kinds,
        "rho_min": args.rho_min,
        "rho_max": args.rho_max,
        "steps": args.steps,
        "omega": args.omega,
        "c": args.c,
        "format": args.format,
    }
    return _emit_report(args, params, rows)


def cmd_compare(args) -> int:
    perturb = _perturbation()
    rows = [compute_row(kind, args.rho, args.omega, args.c, perturb) for kind in KINDS]
    params = {
        "command": "compare",
        "rho": args.rho,
        "omega": args.omega,
        "c": args.c,
        "format": args.format,
    }
    return _emit_report(args, params, rows)


def cmd_precess(args) -> int:
    spec = CongruenceSpec(args.kind, args.omega, args.c)
    # single-point command: a closed-form DomainError (the light cylinder
    # among them) reaches the user with its own message
    precession_per_revolution(spec, args.rho)
    row = compute_row(args.kind, args.rho, args.omega, args.c, _perturbation())
    if row.status != "ok":
        raise DomainError(
            f"point not numerically evaluable: rho = {args.rho}, "
            f"omega = {args.omega}, c = {args.c}"
        )
    params = {
        "command": "precess",
        "kind": args.kind,
        "rho": args.rho,
        "omega": args.omega,
        "c": args.c,
        "format": args.format,
        "fw_check": args.fw_check,
    }
    names, values = ROW_FIELDS, row
    if args.fw_check is not None:
        if not 16 <= args.fw_check <= 2**53:
            # above 2**53 step indices are no longer exact floats
            raise UsageError("--fw-check needs 16 to 2**53 steps")
        try:
            fw_measured = measure_precession_angle(spec, args.rho, args.fw_check)
        except ConstraintDriftError as exc:
            raise DomainError(f"{exc}; increase --fw-check") from exc
        names = ROW_FIELDS + ["fw_measured", "fw_deviation"]
        values = (*row, fw_measured, fw_measured - row.delta_phi_prime)
    _emit(args, params, names, [values])
    return _gate(args, [row])


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
    params = {
        "command": "transform",
        "map": args.map,
        "direction": args.direction,
        "omega": args.omega,
        "c": args.c,
        "format": args.format,
    }
    _emit(args, params, ["t", "rho", "phi", "z"], [[out.t, out.rho, out.phi, out.z]])
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
        help=f"exit {EXIT_SELF_CHECK} if any rel_err exceeds {SELF_CHECK_TOL:g}",
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

    return parser


_parser: argparse.ArgumentParser | None = None  # filled by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
