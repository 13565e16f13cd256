"""A ledger of outputs: the CLI's bytes and kinematic_sample's bits.

tests/data/outputs.json holds, for each list of ops below, one digest per
op: the first 16 hex digits of the sha256 of the op's input and outcome.

- fuzz: the argv that test_cli._CliFuzz._argv draws for TestFuzz and
  TestFuzzFloatRange, each run with ROTFRAMES_SELF_CHECK_PERTURB unset
  and at 1e-3;
- dispatch: the TestDispatch argv;
- kinematic_sample: seeded (field, event) draws, built-in and user
  fields, ordinary points and every edge of the domain; the outcome is
  every array of the sample and the vorticity_scalars of three radii
  around the event, as float.hex, or each call's exception type and text;
- sweep: one seeded omega sweep of 3 x 1500 rows per format, across the
  gal light cylinder, under --self-check.

A CLI op's digest covers its argv, the perturbation, stdout, stderr and
exit code, with COLUMNS at 80 (argparse wraps its usage text to it). A
mismatch names the list and its first op that differs, and prints that
op's current outcome.

The bits depend on this platform's libm through math.cosh and friends,
as the criterion-8 golden CSV does, so another platform may move a last
bit and with it a digest. ``python tests/test_outputs.py >
tests/data/outputs.json`` writes the table. A change that moves bytes by
design rewrites it with this generator and says which ops moved, and why.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import test_cli

from rotframes import (
    CongruenceSpec,
    Event,
    VelocityField,
    four_velocity,
    kinematic_sample,
    vorticity_scalars,
)
from rotframes.cli import PERTURB_ENV, main

TABLE = Path(__file__).parent / "data" / "outputs.json"
PERTURBS = (None, "1e-3")


def _digest(item) -> str:
    text = json.dumps(item, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run(argv, perturb=None) -> dict:
    """main(argv)'s exit code, stdout and stderr, warnings raised as errors."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        mp.setenv("COLUMNS", "80")
        if perturb is None:
            mp.delenv(PERTURB_ENV, raising=False)
        else:
            mp.setenv(PERTURB_ENV, perturb)
        code = main(list(argv))
    return {"argv": argv, "perturb": perturb, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _fuzz_argv():
    argv = []
    for fuzz in (test_cli.TestFuzz, test_cli.TestFuzzFloatRange):
        rng = np.random.default_rng(fuzz.SEED)
        argv += [fuzz()._argv(rng) for _ in range(fuzz.DRAWS)]
    return argv


def _sweep_argv():
    rng = np.random.default_rng(28)
    omega = 10.0 ** rng.uniform(-1.0, 1.0)
    # from near the axis to past the gal light cylinder at rho = 1 / omega
    rho_min, rho_max = 10.0 ** rng.uniform(-4.0, -2.0) / omega, rng.uniform(1.01, 1.5) / omega
    return [["omega", "--rho-min", repr(rho_min), "--rho-max", repr(rho_max),
             "--steps", "1500", "--omega", repr(omega), "--self-check", "--format", fmt]
            for fmt in ("csv", "json")]


def _kinematic_draws():
    """(kind, rho, omega, c, user, event) tuples: 60 draws per kind."""
    rng = np.random.default_rng(2816)
    draws = []
    for i in range(180):
        kind = ("gal", "tt", "mtt")[i % 3]
        c = [10.0 ** rng.uniform(-3.0, 3.0), 1e-160, 1e150][rng.choice(3, p=[0.8, 0.1, 0.1])]
        rho = 10.0 ** rng.uniform(-6.0, 4.0)
        edge = rng.random() < 0.4
        if kind == "gal":
            lam = 1.0 - 10.0 ** rng.uniform(-12.0, -3.0) if edge else rng.uniform(0.0, 1.0)
        else:
            lam = rng.uniform(200.0, 400.0) if edge else rng.lognormal(-1.0, 1.0)
        omega = lam * c / rho
        if not 0.0 < omega < math.inf:
            omega = 1.0
        event = (rng.normal(), rho, rng.normal(), rng.normal())
        draws.append((kind, rho, omega, c, bool(rng.random() < 0.25), event))
    return draws


def _hex(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def _call(fn, *args):
    """fn(*args), or its exception's type and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


def _kinematic_op(kind, rho, omega, c, user, event) -> dict:
    spec = CongruenceSpec(kind, omega, c)
    field = VelocityField(lambda e: four_velocity(e, spec).components, c) if user else spec
    sample = _call(kinematic_sample, field, Event(*event))
    if not isinstance(sample, list):
        sample = [_hex(sample.u.components), _hex(sample.u_dot.components),
                  _hex(sample.vorticity_tensor), _hex(sample.vorticity_vector.components),
                  _hex(sample.vorticity_scalar)]
    rows = np.array([event] * 3)
    rows[:, 1] *= (1.0, 1.0 - 2e-6, 1.0 + 2e-6)
    scalars = _call(vorticity_scalars, field, rows)
    if not isinstance(scalars, list):
        scalars = _hex(scalars)
    return {"field": [kind, _hex([rho, omega, c]), user], "event": _hex(event),
            "sample": sample, "scalars": scalars}


def _ops():
    """{list name: the current outcome of each of its ops, one thunk each}."""
    return {
        "fuzz": [lambda a=argv, p=perturb: _run(a, p)
                 for argv in _fuzz_argv() for perturb in PERTURBS],
        "dispatch": [lambda a=argv: _run(a) for argv in test_cli.TestDispatch.ARGV],
        "kinematic_sample": [lambda d=draw: _kinematic_op(*d) for draw in _kinematic_draws()],
        "sweep": [lambda a=argv: _run(a) for argv in _sweep_argv()],
    }


def _table():
    return {name: [_digest(op()) for op in ops] for name, ops in _ops().items()}


@pytest.fixture(scope="module")
def ledger():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["fuzz", "dispatch", "kinematic_sample", "sweep"])
def test_outputs_match_the_ledger(ledger, name):
    ops = _ops()[name]
    assert len(ops) == len(ledger[name]), name
    for k, (op, stored) in enumerate(zip(ops, ledger[name])):
        outcome = op()
        if _digest(outcome) != stored:
            text = json.dumps(outcome, indent=1)
            if len(text) > 4000:
                text = text[:4000] + f"\n... ({len(text)} characters in all)"
            pytest.fail(f"list {name!r}, op {k} differs from the ledger; it now gives\n{text}")


if __name__ == "__main__":
    sys.stdout.write(json.dumps(_table(), indent=0) + "\n")
