"""Shared exception types.

Every guard in the library raises one of these named errors instead of
truncating silently; the CLI maps them onto distinct exit codes.
"""


class GcwavesError(Exception):
    """Base class for all library errors."""


class ConfigError(GcwavesError):
    """Invalid parameters or configuration."""


class ResourceBudgetError(GcwavesError):
    """A scan would exceed the configured work/memory budget."""


class NumericAbortError(GcwavesError):
    """A computation met values it cannot go on from: NaN/overflow, or an
    L2 norm far from its conserved initial value, during time integration;
    a symbol sample norm that is not finite in the sampled symbol norms.

    Carries the last healthy solver state in ``last_state`` when available.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class SingularMultiplierError(GcwavesError):
    """Singular Fourier multiplier applied to a field with nonzero mean."""


class PositivityError(GcwavesError):
    """Pointwise positivity (1+|grad h|^2 or g+ell) failed on the grid."""


class SmallDivisorError(GcwavesError):
    """A division-weighted sum met a modulation below the guard threshold."""
