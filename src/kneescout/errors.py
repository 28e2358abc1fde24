"""Exception hierarchy shared by all knee-scout modules.

Two branches matter for the CLI exit-code contract: ``InputError`` maps to
exit code 1, ``NumericalError`` to exit code 2. Errors raised while fitting
or segmenting are numerical failures even when the proximate cause is a
short series, so some classes appear under both phases at the call sites.
"""


class KneeScoutError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KneeScoutError):
    """Malformed or inconsistent input data or parameters."""


class NumericalError(KneeScoutError):
    """A numerical procedure could not produce a valid result."""


# --- ingest ---------------------------------------------------------------

class MissingColumn(InputError):
    pass


class NonMonotonicCycles(InputError):
    pass


class NonPositiveCapacity(InputError):
    pass


class TooShort(InputError):
    pass


class NonPositiveNominal(InputError):
    pass


class LengthMismatch(InputError):
    pass


class MalformedRow(InputError):
    """A CSV row with a missing or non-numeric field."""


# --- preprocess -----------------------------------------------------------

class EvenWindow(InputError):
    pass


class WindowTooLarge(InputError):
    pass


class OrderTooHigh(InputError):
    pass


class SeriesTooShort(InputError):
    pass


# --- matrix profile -------------------------------------------------------

class DegenerateWindow(InputError):
    pass


# --- segmentation ---------------------------------------------------------

class IndexOutOfRange(InputError):
    pass


class InsufficientUnmaskedRegion(NumericalError):
    pass


# --- bacon-watts ----------------------------------------------------------

class NonFiniteResidual(NumericalError):
    pass


class SingularNormalEquations(NumericalError):
    pass


class MaxIterationsReached(NumericalError):
    pass


class FitDiverged(NumericalError):
    pass


# --- synthgen -------------------------------------------------------------

class DegenerateSpec(InputError):
    pass


# --- early prediction -----------------------------------------------------

class MissingCycle(InputError):
    pass


class NoVoltageOverlap(InputError):
    pass


class InvalidDischargeCurve(InputError):
    pass


class EmptyTrainingSet(InputError):
    pass


class NonFiniteFeature(InputError):
    pass


class FeatureCountMismatch(InputError):
    pass


class ZeroTrueValue(InputError):
    pass


class InvalidModel(InputError):
    """A model JSON that lacks a field or holds a value of the wrong type."""


class InvalidHyperparameter(InputError):
    """A boosted-tree hyperparameter outside its valid range."""


# --- report ---------------------------------------------------------------

class ConstantInput(InputError):
    pass
