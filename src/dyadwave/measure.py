"""The check of the point masses and the square function, which
``analyze`` runs without the distances and so without ``space``."""

import numpy as np

from .errors import AxiomViolation, DimensionMismatch


def check_weights(weights: np.ndarray) -> None:
    """Refuse point masses that are not all positive and finite."""
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise AxiomViolation("weights must be positive and finite")


def square_function(rows: np.ndarray, blocks: dict, coeffs) -> np.ndarray:
    """Pointwise l2 size of the level blocks Q_k f.

    ``coeffs`` are the inner products of f with the basis ``rows``, and
    ``blocks`` maps each level to its slice of them.  Each block is
    projected back from its own rows and coefficients, coarse to fine.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (rows.shape[0],):
        raise DimensionMismatch(
            f"{coeffs.shape} coefficients for {rows.shape[0]} basis rows")
    total = np.zeros(rows.shape[1])
    for k in sorted(blocks):
        total += (rows[blocks[k]].T @ coeffs[blocks[k]]) ** 2
    return np.sqrt(total)
