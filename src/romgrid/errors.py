"""Exception types shared across the package."""


class RomgridError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(RomgridError):
    """Operand shapes are incompatible."""


class SingularMatrixError(RomgridError):
    """LU factorization met a pivot below the singularity threshold."""


class SingularAtSampleError(SingularMatrixError):
    """The full-order operator is singular at a given sample point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class SingularReducedSystemError(SingularMatrixError):
    """A reduced operator is singular at a given sample point."""


class MissingParameterError(RomgridError):
    """A sample point lacks a parameter required by a coefficient."""


class ZeroToNegativePowerError(RomgridError):
    """A coefficient requires a negative power of a zero parameter value."""


class UnknownParameterNameError(RomgridError):
    """A coefficient references a parameter the system does not declare."""


class MissingWorkspaceRomError(RomgridError):
    """An estimator workspace lacks a reduced model its kind requires."""


class ProjectionMismatchError(RomgridError):
    """Projecting the assembled operator disagrees with assembling the projected one."""


class AllSamplesSingularError(RomgridError):
    """Every training sample produced a singular full-order operator."""


class ManifestError(RomgridError):
    """A system manifest could not be parsed or validated."""
