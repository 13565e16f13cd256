"""The chart's connection as an array, the tests' reference for it.

The package writes the connection terms out where it needs them
(kinematics' acceleration, transport's generator); the tests check those
terms against this general form.
"""

import numpy as np

from rotframes.tensors import PHI, RHO


def _christoffel(rho) -> np.ndarray:
    """Gamma[..., a, b, g] = Gamma^a_{bg} at radius rho, a float or an array.

    Only Gamma^rho_{phi phi} = -rho and Gamma^phi_{rho phi} = 1/rho (and
    its mirror) are nonzero in this chart; c drops out entirely.
    """
    gam = np.zeros(np.shape(rho) + (4, 4, 4))
    gam[..., RHO, PHI, PHI] = -rho
    gam[..., PHI, RHO, PHI] = 1.0 / rho
    gam[..., PHI, PHI, RHO] = 1.0 / rho
    return gam
