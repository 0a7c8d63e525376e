"""Decay certificates and structured inverses for matrices on separated index sets.

Entries of the matrices handled here live on an index set carrying its own
quasi-distance (typically a net rescaled so the set is 1-separated).  The
module fits exponential off-diagonal envelopes, inverts positive definite
matrices through a Neumann series, takes inverse square roots through the
binomial series, and computes the chain constants that control how the
quasi-triangle inequality degrades along paths.
"""

import math

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
)
from .seeding import STREAM_TRIALS, stream_rng
from .space import minplus

# entries smaller than this are numerical zeros and impose no constraint
TINY = 1e-300

DEFAULT_C_MAX = 50.0

# entries of the slopes and cover exponents a fit forms at once
FIT_BLOCK = 1 << 14


def above_floor(values) -> np.ndarray:
    """The entries that count as samples: magnitudes at or above TINY."""
    return np.asarray(values) >= TINY


def envelope_fit(xs, values, x_cut: float = 1.0) -> dict:
    """Fit the tightest envelope values <= C exp(-c * xs) with the largest c.

    ``xs`` and ``values`` are arrays of one shape, of any rank: the scaled
    distances, finite and non-negative, and the magnitudes.  The samples
    are the entries ``above_floor``, in row-major order, fitted in the log
    domain; every other entry takes the log value -inf, whose slope +inf
    and cover exponent -inf move neither extreme.  The arrays passed do
    not change.  The intercept is anchored at the largest sample, the rate
    is the slackest slope over the far field (xs >= x_cut), capped at
    DEFAULT_C_MAX, and the constant is then lifted so the bound covers
    every sample.  A rate <= 0 refutes exponential decay; the five worst
    offending samples are reported, ties in row-major order.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.array(values, dtype=float)
    if xs.shape != values.shape:
        raise ValueError("xs and values must have the same shape")
    return fit_samples(xs.ravel(), values.ravel(), x_cut)


def fit_samples(xs, values, x_cut: float) -> dict:
    """``envelope_fit`` of the 1-D ``xs`` and ``values``; the logs are
    taken in the buffer of ``values``, which the caller gives up.

    The slopes and the cover exponents are formed FIT_BLOCK entries at a
    time, in one buffer; their extremes are exact, so the blocks keep
    every bit.  Only a refuted fit forms all its slopes at once, to rank
    the worst.
    """
    keep = above_floor(values)
    n_pairs = int(np.count_nonzero(keep))
    if n_pairs == 0:
        return {"C": math.nan, "c": math.nan, "refuted": False,
                "n_pairs": 0, "n_far": 0, "worst": []}
    with np.errstate(divide="ignore", invalid="ignore"):
        ys = np.log(values, out=values)
    if n_pairs < values.size:
        ys[~keep] = -np.inf
    log_c0 = float(ys.max())
    size = ys.size
    blocks = [slice(lo, min(lo + FIT_BLOCK, size))
              for lo in range(0, size, FIT_BLOCK)]
    # one buffer of values and one of flags serve every block
    buf = np.empty(min(FIT_BLOCK, size))
    flags = np.empty(len(buf), dtype=bool)

    def slopes(at, out, near):
        # (log_c0 - y) / x, and +inf off the far field
        np.subtract(log_c0, ys[at], out=out)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out /= xs[at]
        np.less(xs[at], x_cut, out=near)
        out[near] = np.inf
        return out

    c = float(np.min([slopes(at, buf[:at.stop - at.start],
                             flags[:at.stop - at.start]).min()
                      for at in blocks], initial=DEFAULT_C_MAX))
    refuted = c <= 0.0
    worst = []
    if refuted:
        every = slopes(slice(0, size), np.empty(size),
                       np.empty(size, dtype=bool))
        at = np.flatnonzero(keep)
        order = at[np.argsort(every[at], kind="stable")[:5]]
        worst = [{"x": float(xs[i]), "log_value": float(ys[i]),
                  "slope": float(every[i])} for i in order]
        del every
    covers, n_near = [], 0
    for at in blocks:
        out, near = buf[:at.stop - at.start], flags[:at.stop - at.start]
        np.multiply(xs[at], c, out=out)
        out += ys[at]
        covers.append(out.max())
        np.less(xs[at], x_cut, out=near)
        near &= keep[at]
        n_near += int(np.count_nonzero(near))
    cover = float(np.max(covers))
    return {"n_pairs": n_pairs, "n_far": n_pairs - n_near,
            "c": c, "C": float(math.exp(min(cover, 700.0))),
            "refuted": bool(refuted), "worst": worst}


def entry_certificate(dist, m: int, rows, cols, values, diag,
                      s: float) -> dict:
    """``decay_certificate`` of the m x m matrix that holds ``values`` at
    the off-diagonal positions (``rows``, ``cols``), ``diag`` on its
    diagonal and zeros elsewhere.

    ``dist(r, c)`` returns, as a fresh array, the index distances at the
    broadcast index arrays ``r`` and ``c``.  The positions may come in any
    order; the samples are fitted in row-major order, and the zeros left
    out are no samples.  The 1-separation test reads the distances in
    blocks of rows, each within m^2 / 8 entries, so no m x m array is
    formed here.
    """
    if m > 1:
        step, mins = max(1, m // 8), []
        for r0 in range(0, m, step):
            at = np.arange(r0, min(r0 + step, m))
            block = dist(at[:, None], np.arange(m))
            block[at - r0, at] = np.inf
            mins.append(block.min())
        dmin = float(np.min(mins))
        # d^s <= d needs d >= 1; allow only rounding below it
        if not (dmin >= 1.0 - 1e-9 and dmin ** s <= dmin * (1 + 1e-12)):
            raise BadParams(
                f"index set not 1-separated (min distance {dmin:.3e})")
    order = np.argsort(rows * m + cols)
    rows, cols = rows[order], cols[order]
    # the anchor, the largest diagonal magnitude (at least TINY), is one
    # more sample at x = 0; every other sample is in the far field x >= 1
    anchor = max(float(np.abs(diag).max()), TINY)
    fit = envelope_fit(np.r_[dist(rows, cols) ** s, 0.0],
                       np.r_[np.abs(values[order]), anchor], x_cut=1.0)
    fit.update(s=float(s), n_pairs=fit["n_pairs"] - 1)
    return fit


def decay_certificate(matrix, index_dist, s: float = 1.0) -> dict:
    """Exponential decay certificate sup |M(a,b)| exp(c d(a,b)^s) <= C.

    The index set must be 1-separated under the supplied (renormalized)
    quasi-distance, so d^s <= d off the diagonal.  The off-diagonal
    entries are the samples; the diagonal only feeds the anchor, its
    largest magnitude (at least TINY) placed at x = 0.  The nonzero
    entries go to ``entry_certificate``.
    """
    matrix = np.asarray(matrix, dtype=float)
    index_dist = np.asarray(index_dist, dtype=float)
    if matrix.shape != index_dist.shape or matrix.ndim != 2:
        raise DimensionMismatch(
            "matrix and index distances must have equal square shape")
    if not 0.0 < s <= 1.0:
        raise BadParams(f"decay exponent s={s} outside (0, 1]")
    m = len(matrix)
    rows, cols = np.divmod(np.flatnonzero(matrix), m)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    return entry_certificate(lambda r, c: index_dist[r, c], m, rows, cols,
                             matrix[rows, cols], np.diagonal(matrix), s)


# ---------------------------------------------------------------------------
# chain constants

def chain_constants(dist, n_max: int, exact_budget: int = 512,
                    seed: int = 0) -> dict:
    """Worst ratio of direct distance to additive chain length, per hop count.

    kappa[m] with 1 <= m <= n_max is the max over point pairs of
    d(x, y) / min over chains of m hops of the summed hop lengths.  Chains
    may repeat points, so the min-plus power of the distance matrix gives
    the exact value.  Beyond the exact budget a sampled lower bound is
    returned and flagged.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    off = ~np.eye(n, dtype=bool)
    if n < 2:
        return {"kappa": np.ones(n_max), "exact": True}
    if n > exact_budget:
        rng = stream_rng(seed, STREAM_TRIALS, 0)
        idx = rng.choice(n, size=exact_budget, replace=False)
        sub = dist[np.ix_(idx, idx)]
        # restriction to a subset only lowers the sup, so this is a lower bound
        return {"kappa": chain_constants(sub, n_max)["kappa"], "exact": False}
    kappa = np.empty(n_max)
    D = dist.copy()
    kappa[0] = float((dist[off] / D[off]).max())
    for m in range(1, n_max):
        D = minplus(D, dist)
        kappa[m] = float((dist[off] / D[off]).max())
    return {"kappa": kappa, "exact": True}


# ---------------------------------------------------------------------------
# spectral estimates

def require_symmetric(M: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless M equals its transpose up to rounding.

    Exact symmetry, the usual case, is tried first: it is the cheaper test.
    """
    if not (np.array_equal(M, M.T)
            or np.allclose(M, M.T, rtol=1e-10, atol=1e-12)):
        raise NotPositiveDefinite("matrix is not symmetric")


def extreme_eigs(matrix) -> dict:
    """Extreme eigenvalues of a symmetric positive definite matrix.

    One dense eigensolve; a nonsymmetric matrix or a smallest eigenvalue
    <= 0 raises NotPositiveDefinite.
    """
    M = np.asarray(matrix, dtype=float)
    require_symmetric(M)
    vals = np.linalg.eigvalsh(M)
    if vals[0] <= 0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {vals[0]:.3e} is not positive")
    return {"lmin": float(vals[0]), "lmax": float(vals[-1])}


# ---------------------------------------------------------------------------
# series inverses

_SAFETY = 1.05
MAX_TERMS = 20000


def _series_setup(matrix, tol, max_terms):
    M = np.asarray(matrix, dtype=float)
    est = extreme_eigs(M)
    lmax = est["lmax"] * _SAFETY
    lmin = est["lmin"] / _SAFETY
    h = 0.5 * (lmax + lmin)
    r = (lmax - lmin) / (lmax + lmin)
    if not r < 1.0:
        raise NotPositiveDefinite("spectral interval touches zero")
    # terms needed so the geometric tail r^(N+1)/(1-r) is below h * tol
    budget = math.log(max(tol * (1.0 - r) * h, 1e-320)) / math.log(r) - 1.0
    n_terms = max(int(math.ceil(budget)), 1)
    if n_terms > max_terms:
        raise NoConvergence(
            f"series needs {n_terms} terms (contraction ratio {r:.6f})")
    A = np.eye(M.shape[0]) - M / h
    return M, A, h, r, n_terms


def neumann_inverse(matrix, tol: float = 1e-10,
                    max_terms: int = MAX_TERMS) -> dict:
    """Invert through the geometric series around the spectral midpoint.

    Symmetric positive definite input is inverted directly; a general
    square matrix is reduced through M^-1 = M^T (M M^T)^-1.  The residual
    max |M^-1 M - I| is checked against 10 * tol.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.allclose(M, M.T, rtol=1e-10, atol=1e-12):
        gram = M @ M.T
        inner = neumann_inverse(gram, tol=tol, max_terms=max_terms)
        inv = M.T @ inner["inverse"]
        resid = float(np.abs(inv @ M - np.eye(M.shape[0])).max())
        if resid > 10.0 * tol:
            raise NoConvergence(f"residual {resid:.3e} exceeds tolerance")
        return {"inverse": inv, "n_terms": inner["n_terms"], "r": inner["r"],
                "h": inner["h"], "residual": resid, "symmetric": False}
    M, A, h, r, n_terms = _series_setup(M, tol, max_terms)
    n = M.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    for _ in range(n_terms):
        power = power @ A
        total += power
    inv = total / h
    inv = 0.5 * (inv + inv.T)
    resid = float(np.abs(inv @ M - np.eye(n)).max())
    if resid > 10.0 * tol:
        raise NoConvergence(f"residual {resid:.3e} exceeds tolerance")
    return {"inverse": inv, "n_terms": n_terms, "r": r, "h": h,
            "residual": resid, "symmetric": True}


def inverse_sqrt(matrix, tol: float = 1e-10,
                 max_terms: int = MAX_TERMS) -> dict:
    """Inverse square root through the binomial series at the midpoint.

    Coefficients follow c_0 = 1, c_n = c_{n-1} (2n-1) / (2n) <= 1, so the
    geometric tail bound of the inverse series still applies.
    """
    M, A, h, r, n_terms = _series_setup(matrix, tol, max_terms)
    n = M.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    coeff = 1.0
    for m in range(1, n_terms + 1):
        coeff *= (2.0 * m - 1.0) / (2.0 * m)
        power = power @ A
        total += coeff * power
    root = total / math.sqrt(h)
    root = 0.5 * (root + root.T)
    resid = float(np.abs(root @ M @ root - np.eye(n)).max())
    if resid > 10.0 * tol:
        raise NoConvergence(f"residual {resid:.3e} exceeds tolerance")
    return {"root": root, "n_terms": n_terms, "r": r, "h": h,
            "residual": resid}


def spectral_inverse_sqrt(matrix) -> np.ndarray:
    """Dense eigensolve oracle for the inverse square root."""
    M = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eigh(M)
    if vals[0] <= 0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {vals[0]:.3e} is not positive")
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
