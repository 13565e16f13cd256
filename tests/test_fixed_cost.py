"""The fixed numpy cost of a one-event difference pass and of one angle.

A one-row compare or precess table, a kinematic_sample, the Fermi-Walker
angle of precess --fw-check and a transport run work on arrays of a few
rows, where each numpy call costs about a microsecond whatever its size.
The number of numpy calls such a pass makes therefore bounds its
latency, and unlike a timing it repeats exactly on a noisy host. It is
counted here as sys.setprofile c_call events, which numpy's builtin
functions (np.array, np.empty, ...), ndarray methods (.all, .reshape,
...) and ufunc methods (.reduce) raise, plus the calls of the functions
numpy dispatches in C through __array_function__ (np.concatenate,
np.dot, np.vdot, ...), which raise none: each of those is wrapped in a
counter in the numpy namespace while the call runs. Calls of a ufunc
itself, operators and indexing are not counted.

Each bound is the count measured with numpy 2.4 when the pass was last
made cheaper or the counter last changed; a change that adds a numpy
call to one of these passes fails here. A numpy release that moves the
counts needs new bounds, read with _numpy_calls.
"""

import sys
from functools import wraps

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
# the type of the functions numpy dispatches through __array_function__
_DISPATCHER = type(np.vdot)


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

    def counted(fn):
        @wraps(fn)
        def dispatch(*args, **kwargs):
            nonlocal count
            count += 1
            return fn(*args, **kwargs)

        return dispatch

    dispatched = {name: fn for name, fn in vars(np).items()
                  if isinstance(fn, _DISPATCHER)}
    previous = sys.getprofile()
    try:
        for name, fn in dispatched.items():
            setattr(np, name, counted(fn))
        sys.setprofile(profile)
        call()
    finally:
        sys.setprofile(previous)
        for name, fn in dispatched.items():
            setattr(np, name, fn)
    return count


def test_the_count_sees_numpy_calls_only():
    x = np.zeros(3)
    # np.zeros, ndarray.sum, which calls ufunc.reduce, and the dispatched
    # np.vdot; not len, math or +
    assert _numpy_calls(lambda: (np.zeros(2), x.sum(), np.vdot(x, x), len(x), abs(-1.0),
                                 x + x)) == 4


@pytest.mark.parametrize("call, bound", [
    # the one-row tables of compare (gal and tt in one pass) and precess
    (lambda: compute_rows(["gal", "tt", "mtt"], [1.0], 0.5, 1.0), 37),
    (lambda: compute_rows(["tt"], [1.0], 0.5, 1.0), 30),
    (lambda: kinematic_sample(CongruenceSpec("gal", 0.5), EVENT), 31),
    (lambda: kinematic_sample(TT, EVENT), 32),
    (lambda: kinematic_sample(USER, EVENT), 61),
    # the angle behind precess --fw-check: worldline, generator and RK4 map
    (lambda: measure_precession_angle(CongruenceSpec("gal", 0.5), 1.0, 100000), 21),
    (lambda: measure_precession_angle(TT, 1.0, 100000), 21),
    # a transport at its default 1025 samples
    (lambda: fw_transport(WORLDLINE, (0.0, 1.0, 0.0, 0.0), 10.0, 100000), 30),
], ids=["compare", "precess", "kinematic_sample gal", "kinematic_sample tt",
        "kinematic_sample user", "fw angle gal", "fw angle tt", "fw_transport 1025"])
def test_one_event_pass_makes_no_more_numpy_calls(call, bound):
    assert _numpy_calls(call) <= bound
