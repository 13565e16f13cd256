"""The package's __all__ lists each public name once, in order, and each resolves."""

import rotframes

# the public API; a change to it is a change to this list
EXPORTS = [
    "CongruenceSpec",
    "ConstraintDriftError",
    "DegenerateError",
    "DomainError",
    "Event",
    "FourVector",
    "FwTrajectory",
    "GAL",
    "KINDS",
    "KinematicSample",
    "LEVI_CIVITA",
    "LightCylinderError",
    "MTT",
    "PrecessionReport",
    "RotframesError",
    "TT",
    "VelocityField",
    "Worldline",
    "compare_congruences",
    "corotating_dyad",
    "fixed_point_speed",
    "four_velocity",
    "fw_step",
    "fw_transport",
    "gal_inverse",
    "gal_map",
    "kinematic_sample",
    "measure_precession_angle",
    "omega_closed_form",
    "precession_per_revolution",
    "proper_period",
    "proper_time_rate",
    "rapidity",
    "revolution_period",
    "tt_inverse",
    "tt_map",
    "vorticity_scalar",
    "vorticity_scalars",
    "worldline",
]


def test_every_exported_name_resolves():
    missing = [name for name in rotframes.__all__ if not hasattr(rotframes, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(rotframes.__all__)) == len(rotframes.__all__)
    assert rotframes.__all__ == sorted(rotframes.__all__)


def test_exports_are_exactly_the_public_api():
    assert rotframes.__all__ == EXPORTS
