"""Exception hierarchy shared by all quditlab modules."""


class QuditLabError(Exception):
    """Base class for all quditlab errors."""


class ShapeError(QuditLabError):
    """Operands disagree on modulus or site count."""


class ParseError(QuditLabError):
    """Text does not parse as the serialized form it claims to be."""


class GeometryError(QuditLabError):
    """Lattice sizes or defect footprints are invalid."""


class PathError(QuditLabError):
    """A string-operator path is not connected on its lattice."""


class UnsupportedModelError(QuditLabError):
    """Operation applied to a model of the wrong provenance or modulus."""


class NotCondensableError(QuditLabError):
    """Summands fail a condensable-algebra check; ``failure`` is the first."""

    def __init__(self, failure):
        super().__init__(f"not a condensable algebra: {failure}")
        self.failure = failure


class InvalidModelError(QuditLabError):
    """Generator set violates a model invariant (e.g. non-commuting)."""


class DefectError(QuditLabError):
    """Defect region is too small, overlapping, or otherwise unusable."""


class InconsistentSyndromeError(QuditLabError):
    """Syndrome is not producible by any Pauli error on the model."""


class DecodeNotFoundError(QuditLabError):
    """Brute-force search found no correction within the weight budget."""


class ConfigError(QuditLabError):
    """Experiment configuration is malformed; message names the field."""
