"""Exception types and the CLI exit codes they map to."""


class DyadwaveError(Exception):
    """Base class for all library errors."""


class AxiomViolation(DyadwaveError):
    """Input matrix fails a quasi-distance axiom or weights are not positive."""


class DegenerateSpace(DyadwaveError):
    """Empty point set or otherwise unusable space."""


class BadParams(DyadwaveError):
    """Generator or command parameters out of range."""


class ZeroBallMass(DegenerateSpace):
    """A net ball carries no mass; cannot happen while weights stay positive."""


class BadDelta(DyadwaveError):
    """Base scale ratio outside (0, 1)."""


class BadExponent(DyadwaveError):
    """Decay or snowflake exponent out of range."""


class OrderViolation(DyadwaveError):
    """Parent assignment breaks the partial-order contract."""


class DeltaTooLarge(DyadwaveError):
    """An exact invariant failed; the base scale ratio is too coarse for the space."""


class RankDeficiency(DyadwaveError):
    """Detail functions are numerically dependent; treated as DeltaTooLarge by the CLI."""


class MissingArtifact(DyadwaveError):
    """An expected artifact file is absent or unreadable."""


class DimensionMismatch(DyadwaveError):
    """Artifact shapes disagree with each other or with the space."""


class NotPositiveDefinite(DyadwaveError):
    """Matrix expected to be symmetric positive definite is not."""


class NoConvergence(DyadwaveError):
    """Iterative scheme failed to reach tolerance within its budget."""


class IncompleteSigns(DyadwaveError):
    """Sign vector does not hold one entry per wavelet."""


class TooLarge(DyadwaveError):
    """Problem size exceeds the exact-computation budget."""


# Stable CLI exit codes.  0 is success; 1 is reserved for unexpected crashes.
EXIT_CODES = {
    AxiomViolation: 2,
    DegenerateSpace: 3,
    BadParams: 4,
    BadDelta: 5,
    OrderViolation: 6,
    DeltaTooLarge: 7,
    MissingArtifact: 8,
    DimensionMismatch: 9,
    NotPositiveDefinite: 10,
    NoConvergence: 11,
    IncompleteSigns: 12,
    BadExponent: 13,
    RankDeficiency: 7,  # surfaced to users as a too-coarse-delta condition
    TooLarge: 14,
}


def exit_code_for(exc: BaseException) -> int:
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return 1
