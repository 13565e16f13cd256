"""Rotating-observer congruences in flat spacetime.

The package defines three families of rotating observers (rigid ``gal``,
Trocheris-Takeno ``tt`` and its modified variant ``mtt``), computes their
kinematic invariants (acceleration, vorticity tensor and vector, scalar
rotation rate) and verifies gyroscope precession per revolution with a
Fermi-Walker transport integrator. Numerically it demonstrates that
different congruence definitions give different precession values.
"""

from .congruences import (
    GAL,
    KINDS,
    MTT,
    TT,
    CongruenceSpec,
    fixed_point_speed,
    four_velocity,
    gal_inverse,
    gal_map,
    omega_closed_form,
    proper_time_rate,
    rapidity,
    revolution_period,
    tt_inverse,
    tt_map,
)
from .errors import (
    ConstraintDriftError,
    DegenerateError,
    DomainError,
    LightCylinderError,
    RotframesError,
)
from .kinematics import (
    KinematicSample,
    VelocityField,
    acceleration,
    kinematic_sample,
    partial_derivatives_u,
    vorticity_scalar,
    vorticity_scalars,
    vorticity_tensor,
    vorticity_vector_direct,
    vorticity_vector_from_tensor,
)
from .tensors import (
    CONTRAVARIANT,
    COVARIANT,
    LEVI_CIVITA,
    Event,
    FourVector,
    MetricAt,
    dot,
    metric_at,
)
from .transport import (
    FwTrajectory,
    PrecessionReport,
    Worldline,
    compare_congruences,
    corotating_dyad,
    fw_step,
    fw_transport,
    measure_precession_angle,
    precession_per_revolution,
    proper_period,
    worldline,
)

__version__ = "0.1.0"

__all__ = [
    "CONTRAVARIANT",
    "COVARIANT",
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
    "MetricAt",
    "PrecessionReport",
    "RotframesError",
    "TT",
    "VelocityField",
    "Worldline",
    "acceleration",
    "compare_congruences",
    "corotating_dyad",
    "dot",
    "fixed_point_speed",
    "four_velocity",
    "fw_step",
    "fw_transport",
    "gal_inverse",
    "gal_map",
    "kinematic_sample",
    "measure_precession_angle",
    "metric_at",
    "omega_closed_form",
    "partial_derivatives_u",
    "precession_per_revolution",
    "proper_period",
    "proper_time_rate",
    "rapidity",
    "revolution_period",
    "tt_inverse",
    "tt_map",
    "vorticity_scalar",
    "vorticity_scalars",
    "vorticity_tensor",
    "vorticity_vector_direct",
    "vorticity_vector_from_tensor",
    "worldline",
]
