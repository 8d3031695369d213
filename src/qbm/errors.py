"""Exception hierarchy for the qbm package.

Two branches matter to the command line tool: configuration problems
(exit code 2) and numerical/domain failures (exit code 3). Everything
derives from QbmError so library users can catch one base class.
"""


class QbmError(Exception):
    """Base class for all qbm errors."""


# --- configuration / input document errors (CLI exit code 2) ---

class ConfigError(QbmError):
    """Base class for config-document problems."""


class ParseError(ConfigError):
    """Malformed config line (no key/value structure)."""


class UnknownKey(ConfigError):
    """Config key that the schema does not define."""


class InvalidValue(ConfigError, ValueError):
    """Config value or library argument of the wrong type or outside its
    allowed range."""


# --- model construction errors ---

class DegenerateWidth(QbmError):
    """Lorentzian rule with fewer than 3 bath modes: half-width a = A(N-2)/2
    is non-positive and every coupling would vanish."""


class NonMonotonicGrid(QbmError):
    """Explicit bath frequencies are not strictly increasing."""


class ZeroCoupling(QbmError):
    """A bath coupling is exactly zero; eigenvalues would collide with poles."""


class NonPositiveFrequency(QbmError):
    """Thermal occupation requested for a mode with frequency <= 0."""


# --- spectrum solver errors ---

class RootNotBracketed(QbmError):
    """Sign condition for a secular root could not be established; indicates
    corrupted parameters rather than a solver limitation."""


class ToleranceNotReached(QbmError):
    """The secular iteration exhausted its budget before every root converged."""


# --- dynamics errors ---

class AmplitudeVanishes(QbmError):
    """Survival amplitude too small for a meaningful logarithmic derivative."""


class WindowTooShort(QbmError):
    """Decay-rate fit window holds fewer than the minimum number of samples."""


class MissingProduct(QbmError):
    """Plot script requested for a product whose CSV does not exist."""
