"""Seeded workloads for the rotframes benchmark: inputs, execution, checks.

Each workload turns a seed into an endless, reproducible stream of ops
(``op_stream``). Its head is the seed's fixed op list (``fixed_ops``): the
ops a run counts in ``attempted`` and ``failed``, and the whole of the
traced run, so that counts and failures repeat exactly for a seed. ``execute`` runs one op through a
public entry point of the package; only that call is timed. ``check`` then
verifies the output against oracles computed here, independently of the
package, and returns one ``Failure`` per failed op (per failed row for a
sweep).

An op is a row for ``sweep``, a CLI call for ``points`` and ``fw_check``
and a ``kinematic_sample`` draw for ``invariants`` (see ``OP_UNIT``).

Failures that match a defect already recorded in ROADMAP.md carry the name
of that defect (see ``_known``). They stay in the traffic and count in
``failed`` like any other; the run is reported incorrect only when a
failure matches none of them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from rotframes import cli, congruences, kinematics
from rotframes.congruences import CongruenceSpec
from rotframes.kinematics import VelocityField
from rotframes.tensors import Event

NAMES = ("sweep", "points", "fw_check", "invariants")

OP_UNIT = {
    "sweep": "one output row of `rotframes omega --kind gal,tt,mtt --self-check`",
    "points": "one single-point CLI call (compare, precess or transform)",
    "fw_check": "one `rotframes precess --fw-check 100000` call",
    "invariants": "one kinematic_sample draw at a random event",
}

# Ops per throughput batch: ops_per_s is the median rate over batches.
BATCH = {"sweep": 1, "points": 100, "fw_check": 1, "invariants": 200}

# Size of the seed's fixed op list, in stream items.
FIXED_ITEMS = {"sweep": 2, "points": 1000, "fw_check": 6, "invariants": 3000}

DOCUMENTED_EXITS = frozenset({0, 2, 3, 64})
SELF_CHECK_TOL = 1e-6
CLOSED_FORM_TOL = 1e-12  # closed-form column against the formula below
FW_ORACLE_TOL = 1e-6
INVARIANT_TOL = 1e-9
SCALAR_TOL = 1e-8

SWEEP_STEPS = 1500  # grid points per kind: 4500 rows per call
SWEEP_PAST_LC = 0.15  # share of the radius grid beyond the gal light cylinder
FW_STEPS = 100_000
POINT_CYCLE = ("compare",) * 14 + ("precess",) * 3 + ("transform",) * 2 + ("edge",)
EDGES = ("gal_precess_past_lc", "tt_precess_overflow", "compare_past_lc",
         "compare_overflow")
OVERFLOW_RAPIDITY = (355.0, 1000.0)

ROW_NUMERIC = ("lambda", "omega_numeric", "omega_closed", "rel_err", "v", "dtau_dt",
               "delta_phi_prime", "thomas_net")


@dataclass
class Op:
    """One benchmark op: a CLI argv or a kinematic_sample draw."""

    params: dict
    argv: list | None = None
    field: object = None
    event: Event | None = None
    n: int = 1


@dataclass
class Outcome:
    value: object = None
    code: int | None = None
    error: Exception | None = None


@dataclass
class Failure:
    label: str
    ops: int = 1
    known: str | None = None


@dataclass
class Tally:
    """Attempted and failed ops, with failures counted by label."""

    attempted: int = 0
    failed: int = 0
    unknown: int = 0
    by_label: dict = field(default_factory=dict)

    def add(self, op: Op, failures: list) -> None:
        self.attempted += op.n
        for f in failures:
            self.failed += f.ops
            if not f.known:
                self.unknown += f.ops
            key = f"{f.label} [{f.known}]" if f.known else f.label
            self.by_label[key] = self.by_label.get(key, 0) + f.ops


# ---------------------------------------------------------------- inputs


def _num(x) -> str:
    return repr(float(x))


def _sweep_stream(rng, steps):
    i = 0
    while True:
        omega = float(rng.uniform(0.3, 1.2))
        lc = 1.0 / omega
        rho_min = float(lc * rng.uniform(0.05, 0.2))
        rho_max = float(lc + (lc - rho_min) * SWEEP_PAST_LC / (1.0 - SWEEP_PAST_LC))
        fmt = ("csv", "json")[i % 2]
        argv = ["omega", "--kind", "gal,tt,mtt", "--omega", _num(omega),
                "--rho-min", _num(rho_min), "--rho-max", _num(rho_max),
                "--steps", str(steps), "--format", fmt, "--self-check"]
        params = dict(cmd="omega", omega=omega, c=1.0, rho_min=rho_min,
                      rho_max=rho_max, steps=steps, format=fmt)
        yield Op(params, argv=argv, n=3 * steps)
        i += 1


def _point(rng, slot, edge):
    c = float(rng.uniform(0.8, 1.25))
    omega = float(rng.uniform(0.1, 1.0))
    fmt = ("csv", "json")[int(rng.integers(2))]
    inside = lambda: float(rng.uniform(0.1, 0.9) * c / omega)
    overflow = lambda: float(rng.uniform(*OVERFLOW_RAPIDITY) * c / omega)
    kind = None
    if slot == "compare":
        cmd, rho = "compare", inside()
    elif slot == "precess":
        cmd, kind = "precess", congruences.KINDS[int(rng.integers(3))]
        rho = inside() if kind == "gal" else float(rng.uniform(0.05, 3.0) * c / omega)
    elif slot == "transform":
        mapping = ("gal", "tt")[int(rng.integers(2))]
        direction = ("fwd", "inv")[int(rng.integers(2))]
        t, phi, z = (float(x) for x in rng.normal(0.0, [2.0, 2.0, 1.0]))
        rho = float(rng.uniform(0.1, 3.0))
        # "--t=-1e-05": argparse reads a separate "-1e-05" as an option
        argv = ["transform", "--map", mapping, "--direction", direction,
                f"--t={_num(t)}", "--rho", _num(rho), f"--phi={_num(phi)}",
                f"--z={_num(z)}", "--omega", _num(omega), "--c", _num(c),
                "--format", fmt]
        params = dict(cmd="transform", map=mapping, direction=direction, t=t, rho=rho,
                      phi=phi, z=z, omega=omega, c=c, format=fmt)
        return Op(params, argv=argv)
    elif edge == "gal_precess_past_lc":
        cmd, kind, rho = "precess", "gal", float(rng.uniform(1.0, 2.0) * c / omega)
    elif edge == "tt_precess_overflow":
        cmd, kind, rho = "precess", ("tt", "mtt")[int(rng.integers(2))], overflow()
    elif edge == "compare_past_lc":
        cmd, rho = "compare", float(rng.uniform(1.05, 3.0) * c / omega)
    else:
        cmd, rho = "compare", overflow()
    argv = [cmd] + (["--kind", kind] if kind else []) + [
        "--rho", _num(rho), "--omega", _num(omega), "--c", _num(c), "--format", fmt]
    return Op(dict(cmd=cmd, kind=kind, rho=rho, omega=omega, c=c, format=fmt),
              argv=argv)


def _points_stream(rng):
    edges = 0
    while True:
        for slot in rng.permutation(POINT_CYCLE):
            edge = None
            if slot == "edge":
                edge = EDGES[edges % len(EDGES)]
                edges += 1
            yield _point(rng, str(slot), edge)


def _fw_stream(rng):
    i = 0
    while True:
        kind = congruences.KINDS[i % 3]
        c = float(rng.uniform(0.8, 1.25))
        omega = float(rng.uniform(0.2, 1.0))
        scale = rng.uniform(0.2, 0.8) if kind == "gal" else rng.uniform(0.1, 1.2)
        rho = float(scale * c / omega)
        fmt = ("csv", "json")[i % 2]
        argv = ["precess", "--kind", kind, "--rho", _num(rho), "--omega", _num(omega),
                "--c", _num(c), "--fw-check", str(FW_STEPS), "--format", fmt]
        yield Op(dict(cmd="precess", kind=kind, rho=rho, omega=omega, c=c, format=fmt,
                      fw=FW_STEPS), argv=argv)
        i += 1


def _user_field(spec: CongruenceSpec) -> VelocityField:
    """A user-supplied field: the built-in congruence behind the generic path."""
    return VelocityField(lambda e: congruences.four_velocity(e, spec).components,
                         spec.c)


def _invariant_stream(rng):
    i = 0
    while True:
        kind = congruences.KINDS[int(rng.integers(3))]
        c = float(rng.uniform(0.8, 1.25))
        omega = float(rng.uniform(0.1, 1.0))
        top = min(2.5, 0.9 * c / omega) if kind == "gal" else 2.5
        rho = float(rng.uniform(0.3, top))
        t, phi = (float(x) for x in rng.normal(size=2))
        spec = CongruenceSpec(kind, omega, c)
        yield Op(dict(kind=kind, rho=rho, omega=omega, c=c),
                 field=_user_field(spec) if i % 4 == 3 else spec,
                 event=Event(t, rho, phi))
        i += 1


def op_stream(workload: str, seed: int, sweep_steps: int = SWEEP_STEPS):
    """Endless seeded stream of ops for one workload."""
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        return _sweep_stream(rng, sweep_steps)
    if workload == "points":
        return _points_stream(rng)
    if workload == "fw_check":
        return _fw_stream(rng)
    if workload == "invariants":
        return _invariant_stream(rng)
    raise ValueError(f"unknown workload {workload!r}")


def fixed_ops(workload: str, seed: int, scale: float = 1.0) -> list:
    """The seed's fixed op list: the head of the stream, scaled for self-tests."""
    if workload == "sweep":
        steps = max(2, round(SWEEP_STEPS * scale))
        return list(islice(op_stream(workload, seed, steps), FIXED_ITEMS[workload]))
    count = max(1, round(FIXED_ITEMS[workload] * scale))
    return list(islice(op_stream(workload, seed), count))


# ------------------------------------------------------------- execution


def execute(op: Op) -> Outcome:
    """Run one op through the package's public entry point (the timed part)."""
    if op.argv is not None:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op.argv)
        except Exception as exc:  # an escaping exception is an op failure
            return Outcome(error=exc)
        return Outcome(value=out.getvalue(), code=code)
    try:
        return Outcome(value=kinematics.kinematic_sample(op.field, op.event))
    except Exception as exc:
        return Outcome(error=exc)


# ---------------------------------------------------------------- oracles


def closed_form(kind: str, rho: float, omega: float, c: float) -> float:
    """Vorticity scalar of the built-in congruences (README table)."""
    if kind == "gal":
        beta = omega * rho / c
        return omega / (1.0 - beta * beta)
    lam = rho * omega / c
    return (c / (2.0 * rho)) * (math.sinh(lam) * math.cosh(lam) + lam)


def dtau_dt(kind: str, rho: float, omega: float, c: float) -> float:
    if kind == "gal":
        beta = omega * rho / c
        return math.sqrt(1.0 - beta * beta)
    return 1.0 / math.cosh(rho * omega / c)


def _known(kind: str, rho: float, omega: float, c: float, label: str) -> str | None:
    """The defect recorded in ROADMAP.md that a failed row matches, if any.

    tt_overflow (item 4): tt/mtt above rapidity 355 overflow, giving inf/nan
    rows with exit 0, and OverflowError above 710.
    gal_near_light_cylinder (item 3): gal rows within 100 difference steps of
    the light cylinder miss the 1e-6 self-check.
    """
    if kind in ("tt", "mtt") and rho * omega / c > OVERFLOW_RAPIDITY[0]:
        return "tt_overflow"
    if kind == "gal" and label == "rel_err":
        if c / omega - rho < 100 * 1e-4 * max(rho, 1.0):
            return "gal_near_light_cylinder"
    return None


def _parse(text: str, fmt: str) -> list:
    """Rows of a CSV or JSON report as dicts of strings/floats."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [{k: (math.nan if v is None else v) for k, v in r.items()} for r in rows]
    return list(csv.DictReader(io.StringIO(text)))


def _check_row(row: dict, omega: float, c: float) -> str | None:
    kind, rho, status = row["kind"], float(row["rho"]), row["status"]
    past_lc = kind == "gal" and rho * omega >= c
    if status == "light_cylinder" or past_lc:
        return None if status == "light_cylinder" and past_lc else "marking"
    if status == "domain_error":
        return None
    if status != "ok":
        return "status"
    values = [float(row[name]) for name in ROW_NUMERIC]
    if not all(math.isfinite(v) for v in values):
        return "non_finite"
    if float(row["rel_err"]) > SELF_CHECK_TOL:
        return "rel_err"
    ref = closed_form(kind, rho, omega, c)
    if abs(float(row["omega_closed"]) - ref) > CLOSED_FORM_TOL * abs(ref):
        return "closed_form"
    return None


def _op_failure(op: Op, label: str, kind: str | None = None) -> Failure:
    """A whole-op failure, labelled with the known defect it matches, if any."""
    p = op.params
    if p["cmd"] not in ("compare", "precess"):
        return Failure(label, op.n)
    kinds = [kind or p["kind"]] if kind or p["kind"] else congruences.KINDS
    known = (_known(k, p["rho"], p["omega"], p["c"], label) for k in kinds)
    return Failure(label, op.n, next((k for k in known if k), None))


def _check_sweep(op: Op, rows: list, code: int) -> list:
    p = op.params
    grid = np.linspace(p["rho_min"], p["rho_max"], p["steps"])
    expect = [(k, float(r)) for k in ("gal", "tt", "mtt") for r in grid]
    if [(r["kind"], float(r["rho"])) for r in rows] != expect:
        return [Failure("rows", op.n)]
    gate = any(r["status"] == "ok" and float(r["rel_err"]) > SELF_CHECK_TOL
               for r in rows)
    if code != (2 if gate else 0):
        return [Failure("self_check_gate", op.n)]
    out = []
    for r in rows:
        label = _check_row(r, p["omega"], p["c"])
        if label:
            out.append(Failure(label, 1, _known(r["kind"], float(r["rho"]), p["omega"],
                                                p["c"], label)))
    return out


def _check_point_rows(op: Op, rows: list, kinds: tuple) -> list:
    p = op.params
    if tuple(r["kind"] for r in rows) != kinds:
        return [Failure("rows")]
    for r in rows:
        label = _check_row(r, p["omega"], p["c"])
        if label:
            return [_op_failure(op, label, r["kind"])]
    if p.get("fw"):
        row = rows[0]
        oracle = -2.0 * math.pi / dtau_dt(p["kind"], p["rho"], p["omega"], p["c"])
        if not abs(float(row["fw_measured"]) - oracle) <= FW_ORACLE_TOL:
            return [Failure("fw_oracle")]
    return []


def _check_transform(op: Op, rows: list) -> list:
    p = op.params
    t, rho, phi, z = p["t"], p["rho"], p["phi"], p["z"]
    if p["map"] == "gal":
        sign = -1.0 if p["direction"] == "fwd" else 1.0
        ref = (t, rho, phi + sign * p["omega"] * t, z)
    else:
        lam = rho * p["omega"] / p["c"] * (1.0 if p["direction"] == "fwd" else -1.0)
        ch, sh = math.cosh(lam), math.sinh(lam)
        ref = (t * ch - phi * (rho / p["c"]) * sh, rho,
               phi * ch - t * (p["c"] / rho) * sh, z)
    if len(rows) != 1:
        return [Failure("rows")]
    got = [float(rows[0][k]) for k in ("t", "rho", "phi", "z")]
    scale = max(1.0, abs(t), abs(phi), abs(z))
    if not all(abs(g - r) <= 1e-12 * scale * math.cosh(abs(rho * p["omega"] / p["c"]))
               for g, r in zip(got, ref)):
        return [Failure("transform")]
    return []


def _check_cli(op: Op, out: Outcome) -> list:
    p = op.params
    if out.error is not None:
        return [_op_failure(op, f"exception:{type(out.error).__name__}")]
    if out.code not in DOCUMENTED_EXITS:
        return [_op_failure(op, f"exit:{out.code}")]
    if p["cmd"] == "precess" and p["kind"] == "gal" and p["rho"] * p["omega"] >= p["c"]:
        return [] if out.code == 3 else [Failure(f"exit:{out.code}")]
    if p["cmd"] == "omega":
        return _check_sweep(op, _parse(out.value, p["format"]), out.code)
    if out.code != 0:
        return [_op_failure(op, f"exit:{out.code}")]
    rows = _parse(out.value, p["format"])
    if p["cmd"] == "transform":
        return _check_transform(op, rows)
    kinds = ("gal", "tt", "mtt") if p["cmd"] == "compare" else (p["kind"],)
    return _check_point_rows(op, rows, kinds)


def _check_sample(op: Op, out: Outcome) -> list:
    if out.error is not None:
        return [Failure(f"exception:{type(out.error).__name__}")]
    p, s = op.params, out.value
    g = np.array([p["c"] ** 2, -1.0, -p["rho"] ** 2, -1.0])
    u = s.u.components
    ud = s.u_dot.components
    w = s.vorticity_vector.components
    wt = s.vorticity_tensor
    dot = lambda a, b: float(a @ (g * b))
    un = math.sqrt(abs(dot(u, u)))
    an = math.sqrt(abs(dot(ud, ud)))
    wn = math.sqrt(abs(dot(w, w)))
    if not abs(dot(u, u) - p["c"] ** 2) <= INVARIANT_TOL * p["c"] ** 2:
        return [Failure("u.u")]
    if not abs(dot(ud, u)) <= INVARIANT_TOL * max(an * un, 1e-12):
        return [Failure("u_dot.u")]
    if not abs(dot(w, u)) <= INVARIANT_TOL * max(wn * un, 1e-12):
        return [Failure("w.u")]
    scale = float(np.linalg.norm(wt)) * float(np.linalg.norm(u))
    if not float(np.max(np.abs(wt @ u))) <= INVARIANT_TOL * max(scale, 1e-12):
        return [Failure("w_ab.u^b")]
    ref = closed_form(p["kind"], p["rho"], p["omega"], p["c"])
    if not abs(s.vorticity_scalar - ref) <= SCALAR_TOL * ref:
        return [Failure("scalar")]
    return []


def check(op: Op, out: Outcome) -> list:
    """Failures of one executed op; empty when every output check passes."""
    try:
        return _check_cli(op, out) if op.argv is not None else _check_sample(op, out)
    except (KeyError, ValueError, TypeError, IndexError) as exc:  # unreadable output
        return [_op_failure(op, f"output:{type(exc).__name__}")]
