"""Set-up probe: import rotframes in a fresh interpreter and run one warm-up op.

Usage (from the repository root, with src on PYTHONPATH):
    python3 rfbench/probe.py <workload>

Prints the seconds from the first line of this script to the end of the
warm-up op: the import of rotframes (numpy included, and numba's JIT and
cache load when numba is present) plus the smallest op of the workload.
Interpreter start-up itself is left out; it does not depend on rotframes.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402

WARMUP_ARGV = {
    "sweep": ["omega", "--kind", "gal,tt,mtt", "--omega", "0.5", "--rho-min", "0.5",
              "--rho-max", "1.5", "--steps", "2"],
    "points": ["compare", "--rho", "1", "--omega", "0.5"],
    "fw_check": ["precess", "--kind", "gal", "--rho", "1", "--omega", "0.5",
                 "--fw-check", "1000"],
}


def warm_up(workload: str) -> None:
    """Run the workload's smallest op once; raise if it does not succeed."""
    if workload == "invariants":
        from rotframes import CongruenceSpec, Event, kinematic_sample

        kinematic_sample(CongruenceSpec("tt", 0.5), Event(0.0, 1.0, 0.0))
        return
    from rotframes import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(WARMUP_ARGV[workload])
    if code != 0:
        raise RuntimeError(f"warm-up op of {workload} exited with {code}")


if __name__ == "__main__":
    warm_up(sys.argv[1])
    print(repr(time.perf_counter() - _T0))
