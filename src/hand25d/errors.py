"""Exception types raised by the hand25d library.

Every failure mode surfaced to callers gets its own class so that CLI and
test code can react to specific conditions instead of parsing messages.
All inherit from :class:`Hand25DError`.
"""


class Hand25DError(Exception):
    """Base class for all hand25d errors."""


class NonFiniteError(Hand25DError):
    """An input contained NaN or infinity."""


class EmptyInputError(Hand25DError):
    """A non-empty sequence was required."""


class BadFactorError(Hand25DError):
    """Fingertip shortening factor outside (0, 1]."""


class BehindCameraError(Hand25DError):
    """A keypoint has non-positive depth; it cannot be projected."""


class BadDepthError(Hand25DError):
    """Back-projection requires strictly positive depths."""


class ZeroBoneError(Hand25DError):
    """The normalization pair keypoints coincide; scale is undefined."""


class DegenerateProjectionError(Hand25DError):
    """The normalization pair projects to (nearly) the same pixel."""


class NoRealSolutionError(Hand25DError):
    """The depth quadratic has no real root (discriminant < tolerance)."""


class NonPositiveDepthError(Hand25DError):
    """Reconstruction produced a keypoint at or behind the camera."""


class NoValidBonesError(Hand25DError):
    """Scale recovery needs at least one valid, nonzero-length bone."""


class BadScaleError(Hand25DError):
    """Global scale must be a positive finite number."""


class OutOfGridError(Hand25DError):
    """A keypoint lies outside the heatmap grid."""


class NotNormalizedError(Hand25DError):
    """A probability map had negative values or did not sum to ~1."""


class ShapeMismatchError(Hand25DError):
    """Array arguments have inconsistent shapes."""


class NoValidKeypointsError(Hand25DError):
    """An operation needs at least one valid keypoint."""


class InvalidRootError(Hand25DError):
    """The root keypoint is marked invalid."""


class EmptyThresholdsError(Hand25DError):
    """A PCK curve needs at least one threshold."""


class TooFewPointsError(Hand25DError):
    """AUC needs at least two curve points."""


class BadHeadLengthError(Hand25DError):
    """PCKh normalization length must be positive."""


class ConfigError(Hand25DError):
    """Invalid configuration value."""


class UnknownTargetError(Hand25DError):
    """Gradient check was asked for an operation it does not know."""


class DataFormatError(Hand25DError):
    """A file did not conform to the expected schema or encoding."""
