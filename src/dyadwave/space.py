"""Finite quasi-metric measure spaces.

A space is a point set {0, ..., n-1}, a quasi-distance matrix and a vector of
positive point masses.  The quasi-triangle constant a0 is computed exactly
from the min-plus square of the distance on first use, balls are strict
sublevel sets of the distance, and the measure is the weight vector itself.
On a finite set every subset is measurable, so the usual caveat that balls
need not be Borel is moot here.
"""

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import EXAMPLE_KINDS
from .errors import (AxiomViolation, BadExponent, BadParams, DegenerateSpace,
                     MissingArtifact, TooLarge)
from .measure import check_weights

# Relative slack used when deciding whether a0 is exactly 1.
LIPSCHITZ_TOL = 1e-12

# Rows of the min-plus product formed together; their buffers fit in cache.
MINPLUS_ROWS = 64

# Snowflake distances are |x - y|^eps times exp of a symmetric noise with
# entries in [-SNOWFLAKE_NOISE, SNOWFLAKE_NOISE].
SNOWFLAKE_NOISE = 0.25


@dataclass(frozen=True, eq=False)
class QuasiMetricSpace:
    dist: np.ndarray
    weights: np.ndarray
    diam: float
    minsep: float

    @cached_property
    def a0(self) -> float:
        """Quasi-triangle constant, exactly 1 within LIPSCHITZ_TOL of it.

        Computed on first read unless ``use_stored_a0`` supplied it.
        """
        a0 = compute_a0(self.dist)
        return 1.0 if a0 <= 1.0 + LIPSCHITZ_TOL else a0

    @property
    def lipschitz(self) -> bool:
        return self.a0 == 1.0

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def ball_mass(self, center: int, radius: float) -> float:
        # a masked sum, not ball_masses' matmul: the two round differently
        return float(self.weights[self.dist[center] < radius].sum())

    def ball_masses(self, centers: np.ndarray, radii) -> np.ndarray:
        """Masses of B(centers[i], radii[i]) (radii may be scalar)."""
        centers = np.asarray(centers)
        radii = np.broadcast_to(np.asarray(radii, dtype=float), centers.shape)
        inside = self.dist[centers] < radii[..., None]
        return inside @ self.weights


def near_pairs(dist: np.ndarray, radius: float, strict: bool = True) -> tuple:
    """(i, j, dist[i, j]) in row-major order over the entries below ``radius``
    (at most it unless ``strict``): the package's one neighbour list."""
    i, j = np.nonzero(dist < radius if strict else dist <= radius)
    return i, j, dist[i, j]


def kept_rows(v, keep) -> np.ndarray:
    """v[x] at each true entry (x, y) of the 2-D mask ``keep``, in row-major
    order, gathered from a broadcast view."""
    return np.broadcast_to(v[:, None], keep.shape)[keep]


def kept_cols(v, keep) -> np.ndarray:
    """v[y] at each true entry (x, y) of the 2-D mask ``keep``, in row-major
    order, gathered from a broadcast view."""
    return np.broadcast_to(v, keep.shape)[keep]


def minplus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Min-plus product C[x, z] = min_y A[x, y] + B[y, z], exactly.

    Blocks of MINPLUS_ROWS rows of C, each built one intermediate y at a
    time in a reused contiguous buffer, in the same y order for every
    block.  So memory stays at C plus two row blocks, never the n^3 of a
    broadcast over y, and the block and its buffer stay in cache.

    When A and B are the same exactly symmetric matrix, so is C: each block
    is formed only from its first row's column onward and its transpose
    fills the lower triangle.  C[z, x] adds the same two entries as
    C[x, z] in the other order, so the result is bit for bit the same.
    """
    half = A is B and np.array_equal(A, A.T)
    out = np.empty((A.shape[0], B.shape[1]))
    buf = np.empty(2 * min(MINPLUS_ROWS, A.shape[0]) * B.shape[1])
    for start in range(0, A.shape[0], MINPLUS_ROWS):
        rows = A[start:start + MINPLUS_ROWS]
        stop = start + len(rows)
        first = start if half else 0
        cols = B[:, first:]
        size = len(rows) * cols.shape[1]
        block = buf[:size].reshape(len(rows), -1)
        tmp = buf[size:2 * size].reshape(len(rows), -1)
        np.add(rows[:, 0, None], cols[0, None, :], out=block)
        for y in range(1, A.shape[1]):
            np.add(rows[:, y, None], cols[y, None, :], out=tmp)
            np.minimum(block, tmp, out=block)
        out[start:stop, first:] = block
        if half:
            out[stop:, start:stop] = block[:, len(rows):].T
    return out


def compute_a0(dist: np.ndarray) -> float:
    """Smallest constant with d(x,z) <= a0 (d(x,y) + d(y,z)), clamped at 1.

    Exact in floating point: rounded division is monotone in the divisor,
    so d(x,z) over the min-plus square equals the largest of the ratios
    d(x,z) / (d(x,y) + d(y,z)) over all y.  The y = x term is d(x,z)
    itself, whose ratio 1 the clamp covers anyway.  O(n^3) time (half of
    it, since the square is symmetric), O(n^2) memory.
    """
    square = minplus(dist, dist)
    np.fill_diagonal(square, np.inf)
    return max(1.0, float((dist / square).max()))


def use_stored_a0(space: QuasiMetricSpace, a0) -> None:
    """Give ``space`` an a0 computed earlier, so it never runs compute_a0.

    ``a0`` is the value read back from an artifact; anything but a finite
    number >= 1 raises MissingArtifact.
    """
    if (isinstance(a0, bool) or not isinstance(a0, (int, float))
            or not 1.0 <= a0 <= sys.float_info.max):
        raise MissingArtifact(f"stored a0 must be a finite number >= 1, "
                              f"got {a0!r}")
    vars(space)["a0"] = float(a0)


def build_space(dist, weights) -> QuasiMetricSpace:
    """The space of a quasi-distance matrix and its point masses.

    ``dist`` (n x n) must be finite and symmetric, with zero diagonal and
    positive entries off it, and ``weights`` (n,) positive: otherwise
    AxiomViolation, or DegenerateSpace when n = 0.  The diameter and the
    minimal separation are computed here, ``a0`` on first use.
    """
    dist = np.array(dist, dtype=float)
    weights = np.array(weights, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise AxiomViolation("distance matrix must be square")
    n = dist.shape[0]
    if n == 0:
        raise DegenerateSpace("empty point set")
    if weights.shape != (n,):
        raise AxiomViolation("weights must have one entry per point")
    if not np.all(np.isfinite(dist)):
        raise AxiomViolation("distances must be finite")
    check_weights(weights)
    if np.any(np.diag(dist) != 0):
        raise AxiomViolation("d(x, x) must be 0")
    if not np.array_equal(dist, dist.T):
        scale = np.abs(dist) + np.abs(dist.T)
        gap = np.abs(dist - dist.T)
        if np.any(gap > 1e-12 * np.maximum(scale, 1e-300)):
            raise AxiomViolation("distance matrix must be symmetric")
        dist = 0.5 * (dist + dist.T)
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.any(dist[off] <= 0):
        raise AxiomViolation("d(x, y) must be positive for x != y")

    diam = float(dist.max()) if n > 1 else 0.0
    minsep = float(dist[off].min()) if n > 1 else 0.0
    dist.setflags(write=False)
    weights.setflags(write=False)
    return QuasiMetricSpace(dist, weights, diam, minsep)


def exponent_a(space: QuasiMetricSpace) -> float:
    """Decay exponent 1/(1 + 2 log2 a0), equal to 1 on genuine metrics."""
    if space.lipschitz:
        return 1.0
    return 1.0 / (1.0 + 2.0 * math.log2(space.a0))


# ---------------------------------------------------------------------------
# generators

def _cyclic(n: int, seed: int) -> QuasiMetricSpace:
    if n < 1:
        raise BadParams("cyclic size must be >= 1")
    i = np.arange(n)
    gap = np.abs(i[:, None] - i[None, :])
    dist = np.minimum(gap, n - gap).astype(float)
    return build_space(dist, np.ones(n))


def _interval(n: int, seed: int) -> QuasiMetricSpace:
    if n < 1:
        raise BadParams("interval size must be >= 1")
    x = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    dist = np.abs(x[:, None] - x[None, :])
    return build_space(dist, np.ones(n))


def _binary_tree(depth: int, seed: int) -> QuasiMetricSpace:
    if depth < 1:
        raise BadParams("tree depth must be >= 1")
    n = 1 << depth
    leaves = np.arange(n)
    xor = leaves[:, None] ^ leaves[None, :]
    # bits above the lowest common ancestor level
    split = np.zeros((n, n), dtype=int)
    nz = xor > 0
    split[nz] = np.frexp(xor[nz].astype(float))[1]
    dist = 2.0 * split
    return build_space(dist, np.ones(n))


def _point_cloud(n: int, dim: int, seed: int) -> QuasiMetricSpace:
    if n < 1 or dim < 1:
        raise BadParams("point cloud needs n >= 1 and dim >= 1")
    from .seeding import stream_rng
    rng = stream_rng(seed)
    pts = rng.uniform(size=(n, dim))
    dist = np.empty((n, n))
    # blocks of rows keep the coordinate differences within n * dim * 64
    for lo in range(0, n, 64):
        diff = pts[lo:lo + 64, None, :] - pts[None, :, :]
        np.sqrt((diff * diff).sum(axis=2), out=dist[lo:lo + 64])
    np.fill_diagonal(dist, 0.0)
    return build_space(dist, np.ones(n))


def _koranyi_sphere(n: int, dim: int, seed: int) -> QuasiMetricSpace:
    if n < 1 or dim < 1:
        raise BadParams("sphere sample needs n >= 1 and dim >= 1")
    from .seeding import stream_rng
    rng = stream_rng(seed)
    z = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    inner = z @ z.conj().T
    dist = np.abs(1.0 - inner)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return build_space(dist, np.full(n, 1.0 / n))


def _snowflake(n: int, eps: float, seed: int) -> QuasiMetricSpace:
    if n < 1:
        raise BadParams("snowflake size must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise BadExponent("snowflake exponent must lie in (0, 1]")
    x = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    base = np.abs(x[:, None] - x[None, :]) ** eps
    from .seeding import stream_rng
    rng = stream_rng(seed)
    bump = rng.uniform(-SNOWFLAKE_NOISE, SNOWFLAKE_NOISE, size=(n, n))
    bump = 0.5 * (bump + bump.T)
    dist = base * np.exp(bump)
    np.fill_diagonal(dist, 0.0)
    return build_space(dist, np.ones(n))


def gen_example(kind: str, seed: int = 0, **params) -> QuasiMetricSpace:
    """Build one of the named example spaces.

    ``kind`` is a key of ``dyadwave.EXAMPLE_KINDS``, which types its
    parameters; ``seed`` seeds the randomized kinds.
    """
    if kind not in tuple(EXAMPLE_KINDS):
        raise BadParams(f"unknown example kind {kind!r}")
    build = {"cyclic": _cyclic, "interval": _interval,
             "binary_tree": _binary_tree, "point_cloud": _point_cloud,
             "koranyi_sphere": _koranyi_sphere, "snowflake": _snowflake}[kind]
    try:
        return build(*[number(params.pop(name))
                       for name, number in EXAMPLE_KINDS[kind]],
                     seed, **params)
    except KeyError as exc:
        raise BadParams(f"missing parameter {exc} for kind {kind!r}") from exc
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad parameters for kind {kind!r}: {exc}") from exc
    except MemoryError as exc:
        raise TooLarge(f"cannot allocate the {kind} space: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization

def space_to_dict(space: QuasiMetricSpace) -> dict:
    return {"dist": space.dist, "weights": space.weights}


def _reject_non_numbers(rows, key: str) -> None:
    """Refuse strings and booleans in a list of rows of parsed JSON.

    ``np.array(..., dtype=float)`` would parse a numeric string and turn a
    boolean into 0 or 1, so each row's entry types are checked first.
    """
    for row in rows if isinstance(rows, list) else ():
        if isinstance(row, list) and not {str, bool}.isdisjoint(
                map(type, row)):
            raise MissingArtifact(
                f"space payload {key!r} holds an entry that is not a number")


def space_from_dict(payload: dict) -> QuasiMetricSpace:
    try:
        _reject_non_numbers(payload["dist"], "dist")
        _reject_non_numbers([payload["weights"]], "weights")
        dist = np.array(payload["dist"], dtype=float)
        weights = np.array(payload["weights"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise AxiomViolation("space payload needs 'dist' and 'weights'") from exc
    except ValueError as exc:
        raise MissingArtifact(f"space payload is not numeric: {exc}") from exc
    return build_space(dist, weights)


def load_space_json(path) -> QuasiMetricSpace:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"cannot read space file {path}: {exc}") from exc
    return space_from_dict(payload)


def load_space_csv(dist_path, weights_path) -> QuasiMetricSpace:
    try:
        dist = np.loadtxt(dist_path, delimiter=",", ndmin=2)
        weights = np.loadtxt(weights_path, delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"cannot read space CSV: {exc}") from exc
    return build_space(dist, weights)
