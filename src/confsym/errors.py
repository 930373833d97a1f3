"""Exception types shared across the toolkit."""


class ConfsymError(Exception):
    """Base class for all toolkit errors.  ``sample`` is the index of the
    sample a floor test of a stacked kernel rejected, else None."""

    sample = None


class DimensionMismatch(ConfsymError, ValueError):
    """Operands carry incompatible space-time dimensions."""


class UnsupportedDimension(ConfsymError, ValueError):
    """Requested dimension lies outside the supported range."""


class SingularMap(ConfsymError, ValueError):
    """Special conformal map evaluated too close to its singular surface."""


class LightConePoint(ConfsymError, ValueError):
    """Operation requires x^2 != 0 but the point is (numerically) null."""


class NonTimelikePoint(ConfsymError, ValueError):
    """Spinor decoupling requires a timelike point, x^2 > 0."""


class OffShellParameters(ConfsymError, ValueError):
    """Fixture parameters do not satisfy the requested on-shell conditions."""


class WrongDimension(ConfsymError, ValueError):
    """Operation is defined only at a specific space-time dimension."""


class SingularConfiguration(ConfsymError, ValueError):
    """Mechanics state sits on the potential singularity q = 0."""


class SingularApproach(ConfsymError, RuntimeError):
    """Trajectory integration came too close to the potential singularity."""


class ParseError(ConfsymError, ValueError):
    """Model-spec text violates the strict key = value format."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SemanticError(ConfsymError, ValueError):
    """Model-spec is well formed but internally inconsistent."""


class FieldDomainError(ConfsymError, ValueError):
    """Field value outside the domain where a model's density is defined."""
