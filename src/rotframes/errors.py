"""Exception types shared across the package."""


class RotframesError(Exception):
    """Base class for all rotframes errors."""


class DomainError(RotframesError):
    """Input lies outside the coordinate chart or parameter domain."""


class LightCylinderError(DomainError):
    """Rigid-rotation observer requested at or beyond rho = c / omega."""


class DegenerateError(RotframesError):
    """Operation undefined in a degenerate limit, e.g. a revolution period at omega = 0."""


class ConstraintDriftError(RotframesError):
    """Transport constraint violated beyond tolerance, usually too few steps."""
