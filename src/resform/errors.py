"""Exception types shared across the package.

Error classes are named after the condition that triggered them, e.g.
EvenCharacteristic means "this operation is undefined in characteristic 2",
OddCharacteristic means "this operation needs characteristic 2".
"""


class ResformError(Exception):
    """Base class for all package errors."""


class UnsupportedPrime(ResformError):
    """Requested characteristic is outside the supported list."""


class ReducibleModulus(ResformError):
    """A defining polynomial failed its irreducibility check."""


class EvenCharacteristic(ResformError):
    """Operation requires odd characteristic."""


class OddCharacteristic(ResformError):
    """Operation requires characteristic 2."""


class NonUnit(ResformError):
    """A unit was required (invertible element, unit determinant, ...)."""


class NonUnitScale(NonUnit):
    """The scale of a volume form must be a unit."""


class RamifiedClass(ResformError):
    """Witt square class with a nonzero 2-adic first digit where an
    unramified class was required; indicates a bug or bad input."""


class PolySyntaxError(ResformError):
    """Polynomial expression failed to parse."""


class UnknownVariable(PolySyntaxError):
    """Name in a polynomial expression is not a declared variable."""


class RingMismatch(ResformError):
    """Operands live over different coefficient rings."""


class FieldMismatch(RingMismatch):
    """Operands live over different fields."""


class NotIsolated(ResformError):
    """The singularity is not isolated at the origin (no finite
    truncation degree certifies a finite local algebra)."""


class ResourceLimit(ResformError):
    """A computation would hold more than the package allows itself, such
    as a relation matrix or a product's normal-form matrix past
    milnor.MAX_RELATION_CELLS."""


class NotFlat(ResformError):
    """Elimination over Z/8 hit a non-unit pivot, or left standard
    monomials other than the residue field's: the presented algebra is not
    a free lift of the reduction's.  Valid lifts never do this."""


class DegenerateFiber(ResformError):
    """A family member lost Milnor number to infinity (leading
    coefficient of the derivative vanished)."""


class SingularBezoutian(ResformError):
    """The Bezoutian matrix was not invertible over the algebra."""


class OddProduct(ResformError):
    """n * mu came out odd where an even product was required."""


class ZeroCoefficient(ResformError):
    """A coefficient that must be a unit was zero."""


class CatalogMiss(ResformError):
    """Input does not match any shape with a catalogued epsilon factor."""


class SingularForm(ResformError):
    """A homogeneous form with vanishing divided discriminant was supplied
    where a nonsingular one is required."""


class NonIntegral(ResformError):
    """An exponent or exact division that must be integral failed to be."""


class CheckFailed(ResformError):
    """A shipped example, an acceptance check or an identity the engine
    confirms as it runs (such as the Gauss sum twist law) did not hold."""
