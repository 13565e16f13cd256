"""Self-test of the benchmark at tiny sizes.

Run from the repository root:
    python3 -m pytest -q rfbench

Checks the result schema against BENCHMARK.json, that the output checks
catch bad output (a perturbed vorticity, a tampered Fermi-Walker angle),
that traced counts repeat exactly and the wrappers are removed afterwards,
and that the benchmark refuses to run without the package source.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from rotframes import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROVENANCE_KEYS = {"git_sha", "git_dirty", "python", "numpy", "numba", "backend",
                   "nproc", "loadavg_before", "loadavg_after", "seed", "op"}


def _bench(*argv, env=None, cwd=ROOT):
    cmd = [sys.executable, "rfbench/run.py", *argv]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def _result(stdout: str) -> tuple:
    lines = stdout.strip().splitlines()
    report = json.loads(next(x for x in lines if x.startswith("report "))[7:])
    return json.loads(lines[-1]), report


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(W.NAMES) == list(run.NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_untraced_result_schema():
    proc = _bench("--workload", "invariants", "--seed", "3", "--seconds", "0.3")
    assert proc.returncode == 0, proc.stderr
    result, report = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == W.FIXED_ITEMS["invariants"]
    assert report["all_ops"]["attempted"] >= result["attempted"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert PROVENANCE_KEYS <= set(report["provenance"])
    assert report["provenance"]["seed"] == 3
    assert report["metrics"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}


def test_perturbed_vorticity_fails_sweep():
    env = dict(os.environ, **{cli.PERTURB_ENV: "1e-3"})
    proc = _bench("--workload", "sweep", "--seed", "3", "--seconds", "0.1", env=env)
    assert proc.returncode == 0, proc.stderr
    result, report = _result(proc.stdout)
    assert result["failed"] > 0 and report["metrics"]["fail_frac"]["value"] > 0
    assert result["attempted"] == W.FIXED_ITEMS["sweep"] * 3 * W.SWEEP_STEPS
    assert result["correct"] is False
    assert report["failures"].get("rel_err", 0) > 0


@pytest.mark.parametrize("offset, failures", [(0.0, []), (1e-3, ["fw_oracle"])])
def test_fw_angle_is_checked_against_oracle(monkeypatch, offset, failures):
    op = W.fixed_ops("fw_check", 5, scale=0.1)[0]
    p = op.params
    oracle = -2.0 * math.pi / W.dtau_dt(p["kind"], p["rho"], p["omega"], p["c"])
    monkeypatch.setattr(cli, "measure_precession_angle",
                        lambda spec, rho, steps: oracle + offset)
    assert [f.label for f in W.check(op, W.execute(op))] == failures


def test_known_defects_stay_in_traffic():
    tally = W.Tally()
    for op in W.fixed_ops("points", 7, scale=0.2):
        tally.add(op, W.check(op, W.execute(op)))
    assert tally.failed == 5 and tally.unknown == 0
    assert all("[tt_overflow]" in label for label in tally.by_label)


def test_counted_failures_do_not_depend_on_run_length():
    runs = []
    for seconds in ("0.1", "4"):
        proc = _bench("--workload", "points", "--seed", "6", "--seconds", seconds)
        assert proc.returncode == 0, proc.stderr
        result, report = _result(proc.stdout)
        runs.append((result["attempted"], result["failed"], report["failures"]))
        assert result["correct"] is True
    assert runs[0] == runs[1] and runs[0][1] > 0
    assert report["all_ops"]["attempted"] > runs[1][0]


def test_same_seed_same_inputs():
    head = lambda seed: [op.argv for op in W.fixed_ops("points", seed, scale=0.05)]
    assert head(4) == head(4)
    assert head(4) != head(5)


@pytest.mark.parametrize("workload, per_result", [("sweep", 17), ("invariants", 68)])
def test_traced_counts_repeat_and_wrappers_are_removed(workload, per_result):
    originals = [(o, a, getattr(o, a)) for o, a, _ in layers.SPANS + layers.COUNTS]
    first = run.traced(workload, 2, scale=0.01)
    second = run.traced(workload, 2, scale=0.01)
    assert all(getattr(o, a) is f for o, a, f in originals)
    exact = ("kinematics.field_evals", "kinematics.jacobians", "tensors.events",
             "transport.steps", "transport.samples")
    assert [first["metrics"][k] for k in exact] == [second["metrics"][k] for k in exact]
    m = first["metrics"]
    assert first["consistent"] and first["tally"].unknown == 0
    assert m["kinematics.field_evals"] > 0 and m["transport.steps"] == 0
    if workload == "invariants":
        assert m["kinematics.field_evals_per_result"] == per_result
    else:  # stencils next to the light cylinder stop before evaluating
        assert abs(m["kinematics.field_evals_per_result"] - per_result) < 0.5
    assert set(m) == set(layers.UNITS)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "rfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", env=env,
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
