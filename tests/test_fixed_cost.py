"""The fixed numpy cost of a one-event difference pass and of one angle.

A one-row compare or precess table, a kinematic_sample, the Fermi-Walker
angle of precess --fw-check and a transport run work on arrays of a few
rows, where each numpy call costs about a microsecond whatever its size.
The number of numpy calls such a pass makes therefore bounds its
latency, and unlike a timing it repeats exactly on a noisy host. It is
counted here as sys.setprofile c_call events: numpy's builtin functions
(np.array, np.empty, ...), ndarray methods (.all, .reshape, ...) and
ufunc methods (.reduce). The functions numpy dispatches in C through
__array_function__ (np.concatenate, np.dot, np.vdot, ...), calls of a
ufunc itself, operators and indexing raise no c_call event and are not
counted.

Each bound is the count measured with numpy 2.4 when the pass was last
made cheaper; a change that adds a numpy call to one of these passes
fails here. A numpy release that moves the counts needs new bounds, read
with _numpy_calls.
"""

import sys

import numpy as np
import pytest

from rotframes import (
    CongruenceSpec,
    Event,
    VelocityField,
    four_velocity,
    fw_transport,
    kinematic_sample,
    measure_precession_angle,
    worldline,
)
from rotframes.cli import compute_rows

TT = CongruenceSpec("tt", 0.5)
EVENT = Event(0.0, 1.0, 0.0)
USER = VelocityField(lambda e: four_velocity(e, TT).components)
WORLDLINE = worldline(TT, 1.0)


def _is_numpy(fn) -> bool:
    """Whether a c_call event's callable is numpy's."""
    owner = getattr(fn, "__self__", None)
    return (getattr(fn, "__module__", None) or "").startswith("numpy") or isinstance(
        owner, (np.ndarray, np.ufunc))


def _numpy_calls(call) -> int:
    """numpy calls made by call(), counted on its second run (the first
    fills the caches)."""
    call()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and _is_numpy(arg):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


def test_the_count_sees_numpy_calls_only():
    x = np.zeros(3)
    # np.zeros and ndarray.sum, which calls ufunc.reduce; not len, math or +
    assert _numpy_calls(lambda: (np.zeros(2), x.sum(), len(x), abs(-1.0), x + x)) == 3


@pytest.mark.parametrize("call, bound", [
    # the one-row tables of compare (gal and tt in one pass) and precess
    (lambda: compute_rows(["gal", "tt", "mtt"], [1.0], 0.5, 1.0), 35),
    (lambda: compute_rows(["tt"], [1.0], 0.5, 1.0), 29),
    (lambda: kinematic_sample(CongruenceSpec("gal", 0.5), EVENT), 29),
    (lambda: kinematic_sample(TT, EVENT), 30),
    (lambda: kinematic_sample(USER, EVENT), 59),
    # the angle behind precess --fw-check: worldline, generator and RK4 map
    (lambda: measure_precession_angle(CongruenceSpec("gal", 0.5), 1.0, 100000), 19),
    (lambda: measure_precession_angle(TT, 1.0, 100000), 19),
    # a transport at its default 1025 samples
    (lambda: fw_transport(WORLDLINE, (0.0, 1.0, 0.0, 0.0), 10.0, 100000), 25),
], ids=["compare", "precess", "kinematic_sample gal", "kinematic_sample tt",
        "kinematic_sample user", "fw angle gal", "fw angle tt", "fw_transport 1025"])
def test_one_event_pass_makes_no_more_numpy_calls(call, bound):
    assert _numpy_calls(call) <= bound
