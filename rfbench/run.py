#!/usr/bin/env python3
"""rotframes benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 rfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 rfbench/run.py --workload all --seed 1 --seconds 20 --out FILE

One workload runs per process, on one thread. ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json: ``setup_s`` is the median over fresh
interpreters of importing rotframes plus one warm-up op, ``ops_per_s`` the
median rate over batches of ops run in a closed loop for ``--seconds``,
scaled to reference speed (see calibration_s), and ``peak_rss_mb`` the
process's peak resident set. ``--trace 1`` runs the workload's fixed op
list for the seed twice, untraced and then traced, and reports the
per-layer metrics of BENCHMARK.json, tracing overhead included; it does not
use ``--seconds``. ``--workload all`` runs every workload in both modes,
one process at a time, prints one table and can write it to a JSON file.
See rfbench/README.md.

Every op's output is checked (see workloads.py). ``attempted`` and
``failed`` count the seed's fixed op list, which every run makes, so they
repeat exactly for a seed. The last line of standard output is the result
object; the line before it, starting with "report ", holds every metric
with its unit, failures by label (of the counted ops and of all ops) and
provenance.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "NUMBA_NUM_THREADS": "1"}
NAMES = ("sweep", "points", "fw_check", "invariants")
LATENCY_MIN_OPS = 1000


# Calibration loop time at reference speed: a round value near the fastest
# typical ``calibration_s`` (1.0 to 2.8 ms as the host drifts) on a 2-vCPU
# x86_64 VM with Python 3.11.7 and numpy 2.4.6. Only its constancy matters:
# it converts measured rates to reference speed the same way on every commit.
CALIB_REF_S = 1.0e-3


def calibration_s(reps: int = 3) -> float:
    """Best-of-reps time of a fixed pure-Python float loop.

    The host's speed drifts by tens of percent within seconds (load from
    neighbouring machines that the guest cannot see), so each batch rate is
    scaled by calibration_s() / CALIB_REF_S measured beside it. The loop runs
    no rotframes code, so a change to the package cannot move it. A plain
    interpreter loop tracked the drift of all four workloads better than
    loops with small numpy calls did.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        s = 0.0
        for i in range(20_000):
            s += i * 0.5
        best = min(best, perf_counter() - t0)
    return best


def locate_source(root: Path) -> Path:
    """The package source of the checkout; exit without a result if absent."""
    src = root / "src"
    if not (src / "rotframes" / "__init__.py").is_file():
        raise SystemExit(f"rfbench: no rotframes package under {src}")
    return src


def import_package(src: Path) -> None:
    """Import rotframes from src, never from an installed copy."""
    sys.path.insert(0, str(src))
    import rotframes

    if Path(rotframes.__file__).resolve().parent != (src / "rotframes").resolve():
        raise SystemExit(f"rfbench: imported rotframes from {rotframes.__file__}")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def provenance(workload: str, seed: int, loadavg_before) -> dict:
    import numpy
    from rotframes import _kernels
    from workloads import OP_UNIT

    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = None
    return {
        **_git(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "backend": "numba" if _kernels.USING_NUMBA else "python",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_before": list(loadavg_before),
        "loadavg_after": list(os.getloadavg()),
        "seed": seed,
        "workload": workload,
        "op": OP_UNIT[workload],
    }


def probe_setup(workload: str, src: Path) -> float:
    """Set-up seconds of one fresh interpreter (see probe.py)."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _percentile(sorted_values: list, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def measure(workload: str, seed: int, seconds: float, src: Path,
            probes: int = SETUP_PROBES) -> dict:
    """End-to-end run: a closed loop for `seconds` between set-up probes.

    Each batch's rate is scaled to reference speed by the calibration loop
    run before and after it (see calibration_s). Every op is checked, but
    only the seed's fixed op list, the head of the stream, is counted in
    ``tally``: how many ops fit in `seconds` varies from run to run, so the
    counted ops, and their failures, are the ones every run of the seed
    makes. The loop runs until they are done even past `seconds`. ``total``
    holds every op of the run; a failure that matches no known defect among
    them makes the run incorrect.
    """
    import workloads as W
    from probe import warm_up

    warm_up(workload)
    # probes before and after the loop, so they sample two moments of the host
    setup = [probe_setup(workload, src) for _ in range(probes // 2)]
    stream = W.op_stream(workload, seed)
    counted = W.FIXED_ITEMS[workload]
    tally, total = W.Tally(), W.Tally()
    latencies, rates, raw_rates = [], [], []
    batch_ops = items = 0
    batch_busy = busy = 0.0
    calib_before = calibration_s()
    deadline = perf_counter() + seconds
    while True:
        op = next(stream)
        t0 = perf_counter()
        out = W.execute(op)
        dt = perf_counter() - t0
        failures = W.check(op, out)
        total.add(op, failures)
        if items < counted:
            tally.add(op, failures)
        latencies.append(dt)
        busy += dt
        batch_busy += dt
        batch_ops += op.n
        items += 1
        if items % W.BATCH[workload] == 0:
            calib_after = calibration_s()
            slowness = 0.5 * (calib_before + calib_after) / CALIB_REF_S
            raw_rates.append(batch_ops / batch_busy)
            rates.append(raw_rates[-1] * slowness)
            batch_ops, batch_busy, calib_before = 0, 0.0, calib_after
        if rates and items >= counted and perf_counter() >= deadline:
            break
    setup += [probe_setup(workload, src) for _ in range(probes - probes // 2)]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    latencies.sort()
    extra = {
        "fail_frac": tally.failed / tally.attempted,
        "fail_frac_all_ops": total.failed / total.attempted,
        "ops_per_s_unscaled": statistics.median(raw_rates),
        "batches": len(rates),
        "setup_samples_s": setup,
    }
    if items >= LATENCY_MIN_OPS:
        extra["op_p50_ms"] = 1e3 * statistics.median(latencies)
        extra["op_p99_ms"] = 1e3 * _percentile(latencies, 0.99)
    return {"tally": tally, "total": total, "metrics": metrics, "extra": extra,
            "consistent": total.unknown == 0}


def _pass(ops: list, tracer=None):
    import workloads as W

    tally = W.Tally()
    busy = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        out = W.execute(op)
        busy += perf_counter() - t0
        tally.add(op, W.check(op, out))
    return busy, tally


def traced(workload: str, seed: int, scale: float = 1.0) -> dict:
    """Traced run: the fixed op list untraced, then traced; per-layer metrics."""
    import layers as T
    import workloads as W
    from probe import warm_up

    ops = W.fixed_ops(workload, seed, scale)
    warm_up(workload)
    untraced_wall, plain = _pass(ops)
    tracer = T.Tracer()
    with tracer.installed():
        wall, tally = _pass(ops, tracer)
    return {
        "tally": tally,
        "metrics": T.layer_metrics(tracer, wall, untraced_wall),
        "extra": {"fail_frac": tally.failed / tally.attempted},
        # tracing must not change what the program outputs
        "consistent": plain == tally,
    }


EXTRA_UNITS = {"fail_frac": "ratio", "fail_frac_all_ops": "ratio",
               "ops_per_s_unscaled": "1/s", "batches": "count",
               "op_p50_ms": "ms", "op_p99_ms": "ms"}


def run_one(args, src: Path) -> int:
    loadavg = os.getloadavg()
    units = declared_metrics()[args.trace]
    if args.trace:
        run = traced(args.workload, args.seed)
    else:
        run = measure(args.workload, args.seed, args.seconds, src)
    tally, metrics = run["tally"], run["metrics"]
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    correct = tally.unknown == 0 and run["consistent"]
    shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    shown.update({k: {"value": v, "unit": EXTRA_UNITS[k]}
                  for k, v in run["extra"].items() if k in EXTRA_UNITS})
    print(f"rfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in shown.items():
        print(f"  {name:38s} {m['value']:<16.6g} {m['unit']}")
    print(f"  failures {tally.failed}/{tally.attempted}: {tally.by_label}")
    total = run.get("total")
    if total is not None:
        print(f"  failures of all ops {total.failed}/{total.attempted}: {total.by_label}")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.by_label,
        "all_ops": None if total is None else {
            "attempted": total.attempted, "failed": total.failed,
            "failures": total.by_label},
        "metrics": shown,
        "setup_samples_s": run["extra"].get("setup_samples_s"),
        "provenance": provenance(args.workload, args.seed, loadavg),
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: shown[k] for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    reports = {}
    for workload in NAMES:
        for trace in (1, 0):  # untraced last, so its fail_frac is the one shown
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            line = next(x for x in proc.stdout.splitlines() if x.startswith("report "))
            reports.setdefault(workload, {})[f"trace{trace}"] = json.loads(line[7:])
    table = {w: {**r["trace1"]["metrics"], **r["trace0"]["metrics"]}
             for w, r in reports.items()}
    names = list(dict.fromkeys(n for w in NAMES for n in table[w]))
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in NAMES))
    for name in names:
        unit = next(table[w][name]["unit"] for w in NAMES if name in table[w])
        cells = [f"{table[w][name]['value']:12.5g}" if name in table[w] else f"{'-':>12s}"
                 for w in NAMES]
        print(f"{name:38s} {unit:6s} " + " ".join(cells))
    for w in NAMES:
        for trace in ("trace0", "trace1"):
            rep = reports[w][trace]
            print(f"{w} {trace}: correct={rep['correct']} failed={rep['failed']}/"
                  f"{rep['attempted']} {rep['failures']}")
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the reports here")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    src = locate_source(ROOT)
    for key, value in SINGLE_THREAD_ENV.items():
        os.environ.setdefault(key, value)
    if args.workload == "all":
        return run_all(args)
    import_package(src)
    return run_one(args, src)


if __name__ == "__main__":
    sys.exit(main())
