"""Exception hierarchy shared by all knee-scout modules.

``InputError`` marks bad input data or parameters and ``NumericalError`` a
procedure that found no valid result. The command line's exit code follows
the phase an error is raised in, not its class; the ``kneescout.cli``
module docstring states the rule.
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


class SmoothingOverflow(NumericalError):
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


class NonFiniteInput(InputError):
    """A sample given to ``pearson`` or ``evaluate`` that holds NaN or an infinity."""
