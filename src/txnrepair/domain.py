"""The global total order over (predicate, key) points and its decomposition.

Every record in the database lives at the point (pred_id, key): the same
tuple as its delta record's identity, ordered by plain tuple comparison.
The domain's ends are (MINK,) and (TOP,), which compare below and above
every point. A domain decomposition is a binary tree of split points;
the node at path d (a binary string) owns the half-open interval reached
by halving at each split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .values import MINK, TOP

BOTTOM_POINT = (MINK,)
TOP_POINT = (TOP,)


def point(pred_id: int, key) -> tuple:
    return (pred_id, tuple(key))


@dataclass(frozen=True)
class _DecompNode:
    split: tuple
    left: Optional["_DecompNode"]
    right: Optional["_DecompNode"]


@dataclass(frozen=True)
class DomainDecomposition:
    root: Optional[_DecompNode]
    height: int

    def subdomain_interval(self, d: str):
        """Half-open interval [lo, hi) of the node at path d; "" is the root.
        d is at most `height` long, so every node on the path exists."""
        lo, hi = BOTTOM_POINT, TOP_POINT
        node = self.root
        for ch in d:
            if ch == "0":
                hi, node = node.split, node.left
            elif ch == "1":
                lo, node = node.split, node.right
            else:
                raise ValueError(f"invalid path character {ch!r} in {d!r}")
        return lo, hi


def build_decomposition(samples: Iterable[tuple], height: int) -> DomainDecomposition:
    """Choose splits at sample quantiles so leaves carry roughly equal mass.

    Degenerate samples are fine; ties just produce empty subdomains. A node
    with no samples splits off an empty half at its lower end when that is
    a point, else at its upper end, else (the whole domain) at the lowest
    point of predicate 0.
    """

    def build(points, h, lo, hi):
        if h <= 0:
            return None
        if points:
            mid = len(points) // 2
            split, left_pts, right_pts = points[mid], points[:mid], points[mid:]
        else:
            split = lo if lo != BOTTOM_POINT else hi if hi != TOP_POINT else (0, (MINK,))
            left_pts = right_pts = []
        return _DecompNode(
            split,
            build(left_pts, h - 1, lo, split),
            build(right_pts, h - 1, split, hi),
        )

    return DomainDecomposition(build(sorted(samples), height, BOTTOM_POINT, TOP_POINT), height)
