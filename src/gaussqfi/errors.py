"""Exception hierarchy shared by all gaussqfi modules."""


class GaussQfiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(GaussQfiError):
    """Mode count or array shape is inconsistent."""


class StructureError(GaussQfiError):
    """Input violates a required structural property (conjugate pairing,
    Hermiticity, symmetry, imaginary residue)."""


class InvalidInputError(GaussQfiError):
    """Input is well-formed but outside the operation's domain."""


class NumericalInstabilityError(GaussQfiError):
    """A numerical routine failed to reach its accuracy target."""


class DecompositionFailureError(GaussQfiError):
    """A matrix decomposition did not reconstruct its input."""


class CutoffTooSmallError(GaussQfiError):
    """Fock-space truncation leaks too much trace for the requested state."""


class DegenerateBudgetError(GaussQfiError):
    """Energy budget leaves the optimizer nothing to optimize."""
