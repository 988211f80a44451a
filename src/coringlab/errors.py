"""Exception types shared across the package."""


class CoringLabError(Exception):
    """Base class for all errors raised by this package."""


class NotWellDefinedError(CoringLabError):
    """An ambient map failed to descend to a quotient space.

    Raised by ``linalg.descend``, the one check every map onto a
    quotient goes through (``induced_map`` included), when the map does
    not kill the kernel of the quotient's projection, and by the tensor
    tower's maps when one fails its linearity certificate.
    """


class ElementNotInSpaceError(CoringLabError):
    """A vector or matrix could not be re-expressed in a space's basis."""


class AxiomError(CoringLabError):
    """A structural axiom failed at construction time.

    Covers associativity/unit failures of structure-constant algebras,
    non-multiplicative inclusions, bialgebra axiom failures, and coring
    axiom failures (coassociativity, counit laws, grouplike laws).
    """


class NoD2CertificateError(CoringLabError):
    """The depth-two certificate does not hold (f2 is not bijective)."""


class SizeLimitError(CoringLabError):
    """A requested build exceeds the configured size caps."""


class SchemaError(CoringLabError):
    """An input file does not match the expected JSON schema."""


class FacetParseError(CoringLabError):
    """A facet-list file failed to parse. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
