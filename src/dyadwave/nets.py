"""Nested families of separated nets across dyadic scales.

Level k holds a maximal delta^k-separated subset of the space, each level
contained in the next finer one.  The coarsest level is a single root point,
the finest resolves every point.  Greedy scans run in a farthest-first
traversal order fixed once for the whole hierarchy.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (BadDelta, DegenerateSpace, MissingArtifact,
                     OrderViolation, TooLarge)
from .space import QuasiMetricSpace

# the tie-break order of every greedy scan, stored with the nets
ORDER_POLICY = "farthest_first"

# hard cap on the level count; hit only by delta pathologically close to 1
MAX_LEVELS = 4096


@dataclass(frozen=True, eq=False)
class NestedNets:
    delta: float
    k_min: int
    k_max: int
    levels: dict
    ydiff: dict
    order_policy: str
    scan_order: np.ndarray

    def scale(self, k: int) -> float:
        return float(self.delta) ** k

    @property
    def level_range(self):
        return range(self.k_min, self.k_max + 1)

    def positions(self, k: int, n: int) -> np.ndarray:
        """Point index -> row position at level k (or -1)."""
        pos = np.full(n, -1, dtype=int)
        pos[self.levels[k]] = np.arange(len(self.levels[k]))
        return pos


def farthest_first_order(dist: np.ndarray) -> np.ndarray:
    """Traversal that always visits the point farthest from those seen."""
    n = dist.shape[0]
    order = np.empty(n, dtype=int)
    order[0] = 0
    mind = dist[0].copy()
    mind[0] = -1.0
    for i in range(1, n):
        nxt = int(np.argmax(mind))
        order[i] = nxt
        np.minimum(mind, dist[nxt], out=mind)
        mind[nxt] = -1.0
    return order


def _greedy_extend(dist, threshold, scan, seed_points):
    """Add scan points at distance >= threshold from everything chosen."""
    chosen = list(seed_points)
    mind = dist[chosen].min(axis=0) if chosen else np.full(len(dist), np.inf)
    for x in scan:
        if mind[x] >= threshold:
            chosen.append(int(x))
            np.minimum(mind, dist[x], out=mind)
    return np.array(chosen, dtype=int)


def build_nets(space: QuasiMetricSpace, delta: float) -> NestedNets:
    """The nets of ``space`` at the scale ratio ``delta`` in (0, 1).

    Level k, for k_min <= k <= k_max, is a maximal delta^k-separated set.
    k_max is the smallest k whose scale resolves the minimum separation
    (that level is the whole space); k_min the largest k whose scale
    exceeds 2 * a0 * diam (that level is a single point).  Distances that
    need a scale that is no positive float raise DegenerateSpace.
    """
    if not 0.0 < delta < 1.0:
        raise BadDelta(f"delta must lie in (0, 1), got {delta}")
    n = space.n
    scan = farthest_first_order(space.dist)

    if n == 1:
        levels = {0: np.array([0])}
        return NestedNets(delta, 0, 0, levels, {}, ORDER_POLICY,
                          scan_order=scan)

    budget = "level count exceeds budget; delta too close to 1"
    try:
        k_max = 0
        while delta ** k_max > space.minsep:
            k_max += 1
            if k_max > MAX_LEVELS:
                raise TooLarge(budget)
        while delta ** (k_max - 1) <= space.minsep:
            k_max -= 1

        coarse_target = 2.0 * space.a0 * space.diam
        k_min = min(k_max, 0)
        while delta ** k_min < coarse_target:
            k_min -= 1
            if k_max - k_min > MAX_LEVELS:
                raise TooLarge(budget)
        in_range = _scales_in_range(delta, k_min, k_max)
    except OverflowError:
        in_range = False
    if not in_range:
        raise DegenerateSpace(f"a scale {delta}**k is no positive float")

    levels = {}
    base = min(k_max, max(k_min, 0))
    levels[base] = _greedy_extend(space.dist, delta ** base, scan, [])
    for k in range(base - 1, k_min - 1, -1):
        prev = levels[k + 1]
        sub_scan = prev[np.argsort(_ranks(scan, n)[prev], kind="stable")]
        levels[k] = _greedy_extend(space.dist, delta ** k, sub_scan, [])
    for k in range(base + 1, k_max + 1):
        levels[k] = _greedy_extend(space.dist, delta ** k, scan, levels[k - 1])

    if len(levels[k_min]) != 1 or len(levels[k_max]) != n:
        raise OrderViolation(
            f"nets span {len(levels[k_min])} roots and resolve "
            f"{len(levels[k_max])} of {n} points; need one root and all")

    return NestedNets(delta, k_min, k_max, levels,
                      _new_points(levels, k_min, k_max), ORDER_POLICY, scan)


def _scales_in_range(delta, k_min: int, k_max: int) -> bool:
    # a power that overflows raises OverflowError
    return (0.0 < delta < 1.0
            and 0.0 < delta ** k_max and delta ** k_min < np.inf)


def _new_points(levels: dict, k_min: int, k_max: int) -> dict:
    """Per transition k, the level-(k+1) points not in level k, in order."""
    # the table method: the default may sort through np.unique, which
    # imports numpy.ma; point indices are below n, so the table is small
    return {k: levels[k + 1][~np.isin(levels[k + 1], levels[k],
                                      kind="table")]
            for k in range(k_min, k_max)}


def _ranks(scan: np.ndarray, n: int) -> np.ndarray:
    rank = np.empty(n, dtype=int)
    rank[scan] = np.arange(n)
    return rank


def verify_nets(nets: NestedNets, space: QuasiMetricSpace) -> dict:
    """Check separation, density, nestedness and the level count contract."""
    report = {"levels": {}, "ok": True}
    prev_set = None
    for k in nets.level_range:
        pts = nets.levels[k]
        scale = nets.scale(k)
        entry = {"size": int(len(pts))}
        if len(pts) > 1:
            sub = space.dist[np.ix_(pts, pts)]
            off = sub[~np.eye(len(pts), dtype=bool)]
            entry["separation_ratio"] = float(off.min() / scale)
            entry["separation_ok"] = bool(off.min() >= scale)
        else:
            entry["separation_ratio"] = None
            entry["separation_ok"] = True
        dens = space.dist[:, pts].min(axis=1).max()
        entry["density_ratio"] = float(dens / scale)
        entry["density_ok"] = bool(dens < 2.0 * space.a0 * scale)
        if prev_set is not None:
            entry["nested_ok"] = prev_set.issubset(set(pts.tolist()))
        else:
            entry["nested_ok"] = True
        prev_set = set(pts.tolist())
        entry_ok = entry["separation_ok"] and entry["density_ok"] and entry["nested_ok"]
        report["levels"][k] = entry
        report["ok"] = report["ok"] and entry_ok
    report["root_ok"] = len(nets.levels[nets.k_min]) == 1
    report["finest_ok"] = len(nets.levels[nets.k_max]) == space.n
    report["ok"] = bool(report["ok"] and report["root_ok"] and report["finest_ok"])
    return report


def nets_to_dict(nets: NestedNets) -> dict:
    return {
        "delta": nets.delta,
        "k_min": nets.k_min,
        "k_max": nets.k_max,
        "order_policy": nets.order_policy,
        "scan_order": nets.scan_order.tolist(),
        "levels": {str(k): nets.levels[k].tolist() for k in nets.level_range},
    }


def nets_from_dict(payload: dict) -> NestedNets:
    """Nets from their stored form, checked to nest from one root to all points.

    The point count is that of ``scan_order``; a payload that is not such a
    hierarchy over it at scales that are positive floats raises
    ``MissingArtifact``.
    """
    delta = float(payload["delta"])
    k_min = int(payload["k_min"])
    k_max = int(payload["k_max"])
    if not isinstance(payload["levels"], dict):
        raise MissingArtifact("stored nets hold no map of levels")
    levels = {int(k): np.array(v, dtype=int)
              for k, v in payload["levels"].items()}
    scan = np.array(payload["scan_order"], dtype=int)
    every = np.arange(len(scan))
    nested = sorted(levels) == list(range(k_min, k_max + 1)) and all(
        levels[k].ndim == 1 and np.diff(np.sort(levels[k])).all()
        and (k == k_max
             or set(levels[k].tolist()) <= set(levels[k + 1].tolist()))
        for k in levels)
    if not (nested and len(levels[k_min]) == 1
            and np.array_equal(np.sort(levels[k_max]), every)
            and np.array_equal(np.sort(scan), every)
            and _scales_in_range(delta, k_min, k_max)):
        raise MissingArtifact("stored nets do not nest from one root to "
                              "every point of their scan order at positive "
                              "float scales")
    return NestedNets(delta, k_min, k_max, levels,
                      _new_points(levels, k_min, k_max),
                      payload.get("order_policy", ORDER_POLICY), scan)


def load_nets_json(path) -> NestedNets:
    try:
        with open(path) as fh:
            return nets_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError,
            OverflowError) as exc:
        raise MissingArtifact(f"cannot read nets file {path}: {exc!r}") from exc
