"""Exception and warning types shared across the package."""


class FamilyError(ValueError):
    """Base class for invalid family parameters."""


class DependentDirections(FamilyError):
    """The two direction vectors are linearly dependent over Q."""


class NotMinimal(FamilyError):
    """A generator lies in the semigroup spanned by the others.

    Carries the offending generator and a certificate over the remaining
    generators.
    """

    def __init__(self, generator, certificate):
        self.generator = generator
        self.certificate = certificate
        super().__init__(f"generator {generator} is redundant: {certificate}")


class BadExtension(FamilyError):
    """The extension vector violates the gluing hypotheses."""


class OutsideCone(ValueError):
    """The vector has a negative coordinate in the extremal-ray basis."""


class BadIndex(ValueError):
    """Binomial family index out of range."""


class UnsupportedK(ValueError):
    """No closed-form resolution is stored for this k."""


class BoxTooLarge(ValueError):
    """The truncation box has more cells than the dense oracles may allocate."""


class InfiniteDimension(ValueError):
    """The quotient by the leading-term ideal is not finite dimensional."""


class NotHomogeneous(ValueError):
    """A polynomial expected to be graded-homogeneous is not."""


class CapTooSmall(UserWarning):
    """Enumeration boundary still contains candidates; raise the cap."""


class ExponentTooLarge(ValueError):
    """An exponent exceeds the largest one a packed monomial holds,
    2^31 - 1 (see `polynomials.MAX_EXPONENT`)."""
