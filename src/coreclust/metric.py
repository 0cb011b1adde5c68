"""Metric spaces used by the clustering toolkit.

Four kinds of space share one interface: the continuous real line, weighted
tree graphs, Euclidean point sets, and explicit distance matrices.  Points
are represented as plain values: a float coordinate on the line, a tuple of
floats in Euclidean space, and an integer vertex index for trees/matrices.

All distance values are double-precision floats.  Downstream equality and
strictness checks use an absolute tolerance of 1e-9 scaled by the larger
magnitude involved (see :func:`close`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError

TOL = 1e-9
_ROWS = 256  # agent rows per block of the Euclidean distance build

LINE = "line"
TREE = "tree"
EUCLIDEAN = "euclidean"
MATRIX = "matrix"

PointRef = Union[float, int, Tuple[float, ...]]


def _scale(*values: float) -> float:
    s = 1.0
    for v in values:
        av = abs(v)
        if av > s and np.isfinite(av):
            s = av
    return s


def close(a: float, b: float, tol: float = TOL) -> bool:
    """True when a and b agree within tol scaled by the larger magnitude."""
    if a == b:
        return True
    return abs(a - b) <= tol * _scale(a, b)


@dataclass(frozen=True)
class TreeGraph:
    """A connected acyclic graph with nonnegative edge lengths.

    Edges are (u, v, w) triples over 0-based vertex ids; vertex_count must
    equal the number of edges plus one.
    """

    vertex_count: int
    edges: Tuple[Tuple[int, int, float], ...]

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise ValidationError("tree needs at least one vertex")
        if len(self.edges) != n - 1:
            raise ValidationError(
                f"tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}"
            )
        for u, v, w in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for {n} vertices")
            if not (math.isfinite(w) and w >= 0):
                raise ValidationError(
                    f"edge weight {w} on ({u},{v}) must be finite and nonnegative")
        seen = [False] * n
        adj = self.adjacency()
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        if count != n:
            raise ValidationError("tree edges do not connect all vertices")

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            adj[u].append((v, float(w)))
            adj[v].append((u, float(w)))
        return adj


@dataclass(frozen=True)
class MetricReport:
    """Outcome of a metric-axiom check."""

    ok: bool
    violation: Optional[tuple] = None
    checked_triples: int = 0
    sampled: bool = False


class Space:
    """A metric space of one of the four supported kinds.

    Instances are immutable after construction and safe to share across
    workers; the all-pairs matrix for tree spaces is computed lazily once.
    """

    def __init__(self, kind: str, dim: Optional[int] = None,
                 tree: Optional[TreeGraph] = None,
                 matrix: Optional[np.ndarray] = None):
        if kind not in (LINE, TREE, EUCLIDEAN, MATRIX):
            raise ValidationError(f"unknown space kind {kind!r}")
        if kind == EUCLIDEAN:
            if dim is None or dim < 1:
                raise ValidationError("euclidean space needs dim >= 1")
        if kind == TREE and tree is None:
            raise ValidationError("tree space needs a TreeGraph")
        if kind == MATRIX:
            if matrix is None:
                raise ValidationError("matrix space needs a distance matrix")
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValidationError("distance matrix must be square")
            if not np.isfinite(matrix).all():
                raise ValidationError("distance matrix entries must be finite")
            if not np.allclose(matrix, matrix.T, atol=TOL, rtol=TOL):
                raise ValidationError("distance matrix must be symmetric")
            if np.abs(np.diagonal(matrix)).max(initial=0.0) > TOL:
                raise ValidationError("distance matrix must have zero diagonal")
            if matrix.min(initial=0.0) < -TOL:
                raise ValidationError("distance matrix must be nonnegative")
            matrix = matrix.copy()
            matrix.flags.writeable = False
        self.kind = kind
        self.dim = int(dim) if kind == EUCLIDEAN else None
        self.tree = tree
        self.matrix = matrix
        self._apsp: Optional[np.ndarray] = None

    # ---- constructors -------------------------------------------------
    @staticmethod
    def line() -> "Space":
        return Space(LINE)

    @staticmethod
    def euclidean(dim: int) -> "Space":
        return Space(EUCLIDEAN, dim=dim)

    @staticmethod
    def from_tree(tree: TreeGraph) -> "Space":
        return Space(TREE, tree=tree)

    @staticmethod
    def from_edges(edges: Iterable[Tuple[int, int, float]]) -> "Space":
        edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
        n = max(max(u, v) for u, v, _ in edges) + 1 if edges else 1
        return Space(TREE, tree=TreeGraph(n, edges))

    @staticmethod
    def from_matrix(matrix, validate: bool = True) -> "Space":
        space = Space(MATRIX, matrix=matrix)
        if validate:
            report = validate_metric(space)
            if not report.ok:
                raise ValidationError(f"matrix violates triangle inequality: {report.violation}")
        return space

    # ---- size / identity ----------------------------------------------
    @property
    def vertex_count(self) -> Optional[int]:
        if self.kind == TREE:
            return self.tree.vertex_count
        if self.kind == MATRIX:
            return self.matrix.shape[0]
        return None

    def check_point(self, p: PointRef) -> None:
        """Raise ValidationError when p is not a valid point of this space."""
        if self.kind == LINE:
            try:
                if not isinstance(p, (int, float)) or isinstance(p, bool) or not math.isfinite(p):
                    raise ValidationError(f"line point must be a finite real number, got {p!r}")
            except OverflowError:  # math.isfinite of an int beyond the float range
                raise ValidationError(
                    "line point must be a finite real number, got an integer "
                    "beyond the float range") from None
        elif self.kind == EUCLIDEAN:
            if not isinstance(p, (tuple, list, np.ndarray)) or len(p) != self.dim:
                raise ValidationError(f"euclidean point must have dim {self.dim}, got {p!r}")
        else:
            n = self.vertex_count
            if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or not (0 <= p < n):
                raise ValidationError(f"vertex index {p!r} out of range [0, {n})")

    def __eq__(self, other):
        if not isinstance(other, Space):
            return NotImplemented
        if self.kind != other.kind or self.dim != other.dim:
            return False
        if self.kind == TREE:
            return self.tree == other.tree
        if self.kind == MATRIX:
            return np.array_equal(self.matrix, other.matrix)
        return True

    def __repr__(self):
        if self.kind == EUCLIDEAN:
            return f"Space(euclidean, dim={self.dim})"
        if self.kind in (TREE, MATRIX):
            return f"Space({self.kind}, n={self.vertex_count})"
        return "Space(line)"


def distance(space: Space, a: PointRef, b: PointRef) -> float:
    """Metric distance between two points of the space."""
    if space.kind == LINE:
        return abs(float(a) - float(b))
    if space.kind == EUCLIDEAN:
        pa = np.asarray(a, dtype=float)
        pb = np.asarray(b, dtype=float)
        return float(np.linalg.norm(pa - pb))
    space.check_point(a)
    space.check_point(b)
    return float(apsp(space)[int(a), int(b)])


def distance_to_set(space: Space, i: PointRef, centers: Sequence[PointRef]) -> float:
    """Minimum distance from point i to any point in a non-empty center set."""
    if len(centers) == 0:
        raise ValidationError("center set must be non-empty")
    return min(distance(space, i, y) for y in centers)


def apsp(space: Space) -> np.ndarray:
    """All-pairs shortest-path matrix for a tree or matrix space.

    Tree distances are accumulated vertex-by-vertex along the unique paths
    from each source; the result matches distance() exactly.
    """
    if space.kind == MATRIX:
        return space.matrix
    if space.kind != TREE:
        raise ValidationError(f"apsp requires a tree or matrix space, got {space.kind}")
    if space._apsp is not None:
        return space._apsp
    n = space.tree.vertex_count
    adj = space.tree.adjacency()
    out = np.zeros((n, n), dtype=float)
    for src in range(n):
        dist = out[src]
        visited = [False] * n
        visited[src] = True
        stack = [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    dist[v] = dist[u] + w
                    stack.append(v)
    out.flags.writeable = False
    space._apsp = out
    return out


def cross_distances(space: Space, pts_a: Sequence[PointRef],
                    pts_b: Sequence[PointRef]) -> np.ndarray:
    """len(pts_a) x len(pts_b) matrix of pairwise metric distances."""
    if space.kind == LINE:
        a = np.asarray(pts_a, dtype=float)
        b = np.asarray(pts_b, dtype=float)
        return np.abs(a[:, None] - b[None, :])
    if space.kind == EUCLIDEAN:
        a = np.asarray([np.asarray(p, dtype=float) for p in pts_a], dtype=float)
        b = np.asarray([np.asarray(p, dtype=float) for p in pts_b], dtype=float)
        if len(pts_a) == 0 or len(pts_b) == 0:
            return np.zeros((len(pts_a), len(pts_b)))
        # Row blocks bound the difference tensor to _ROWS x len(b) x dim;
        # each entry is still summed over its own coordinates alone, so the
        # result matches the one-shot expression bit for bit.
        out = np.empty((len(a), len(b)))
        for lo in range(0, len(a), _ROWS):
            diff = a[lo:lo + _ROWS, None, :] - b[None, :, :]
            out[lo:lo + _ROWS] = np.sqrt((diff * diff).sum(axis=2))
        return out
    full = apsp(space)
    ia = np.asarray(pts_a, dtype=int)
    ib = np.asarray(pts_b, dtype=int)
    return full[np.ix_(ia, ib)]


def validate_metric(space: Space, max_full: int = 500,
                    samples: int = 100_000, seed: int = 0) -> MetricReport:
    """Check metric axioms, reporting the first violation found.

    Matrix spaces up to max_full points are checked over all triples;
    larger ones over `samples` rng-sampled triples.  Line, Euclidean, and
    tree spaces are metric by construction and validate immediately.
    """
    if space.kind in (LINE, EUCLIDEAN, TREE):
        return MetricReport(ok=True)
    d = space.matrix
    n = d.shape[0]
    if n <= max_full:
        for b in range(n):
            slack = d[:, b][:, None] + d[b, :][None, :] - d
            bad = np.argwhere(slack < -TOL * np.maximum(1.0, d))
            if bad.size:
                a, c = int(bad[0][0]), int(bad[0][1])
                return MetricReport(
                    ok=False,
                    violation=(a, b, c, float(d[a, b] + d[b, c] - d[a, c])),
                    checked_triples=n * n * (b + 1),
                )
        return MetricReport(ok=True, checked_triples=n ** 3)
    rng = np.random.default_rng(seed)
    trips = rng.integers(0, n, size=(samples, 3))
    da_b = d[trips[:, 0], trips[:, 1]]
    db_c = d[trips[:, 1], trips[:, 2]]
    da_c = d[trips[:, 0], trips[:, 2]]
    slack = da_b + db_c - da_c
    bad = np.argwhere(slack < -TOL * np.maximum(1.0, da_c))
    if bad.size:
        i = int(bad[0][0])
        a, b, c = (int(x) for x in trips[i])
        return MetricReport(ok=False, violation=(a, b, c, float(slack[i])),
                            checked_triples=samples, sampled=True)
    return MetricReport(ok=True, checked_triples=samples, sampled=True)
