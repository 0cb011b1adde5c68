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
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError

TOL = 1e-9
_INT = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)
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
            if not (isinstance(u, _INT) and isinstance(v, _INT)
                    and 0 <= u < n and 0 <= v < n):
                raise ValidationError(
                    f"edge ({u!r},{v!r}) needs integer vertex ids in [0, {n})")
            if not (isinstance(w, _REAL) and math.isfinite(w) and w >= 0):
                raise ValidationError(
                    f"edge weight {w!r} on ({u},{v}) must be a finite nonnegative number")
        if len(self.rooted(0)[0]) != n:
            raise ValidationError("tree edges do not connect all vertices")

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            adj[u].append((v, float(w)))
            adj[v].append((u, float(w)))
        return adj

    def rooted(self, root: int) -> Tuple[List[int], List[int], List[float]]:
        """The vertices reachable from root in depth-first preorder, so that
        each subtree is one contiguous run, with each vertex's parent (-1 at
        the root) and the length of the edge up to it."""
        adj = self.adjacency()
        parent = [-1] * self.vertex_count
        weight_up = [0.0] * self.vertex_count
        preorder: List[int] = []
        stack = [root]
        while stack:
            u = stack.pop()
            preorder.append(u)
            for v, w in adj[u]:
                if parent[v] < 0 and v != root:
                    parent[v] = u
                    weight_up[v] = w
                    stack.append(v)
        return preorder, parent, weight_up


def _vertex_id(obj) -> int:
    """A vertex index read from outside: an integer, or a float holding one."""
    if not (isinstance(obj, _INT) or isinstance(obj, float) and obj.is_integer()):
        raise ValidationError(f"vertex index must be an integer, got {obj!r}")
    return int(obj)


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
        edges = tuple((_vertex_id(u), _vertex_id(v), float(w) if isinstance(w, _REAL) else w)
                      for u, v, w in edges)
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

    Tree distances fill a matrix in the preorder of rooted(0), where each
    subtree sub(u) is a range: bottom-up, d(sub(u), parent) = d(sub(u), u)
    + w; then top-down, d(outside sub(u), u) = d(outside, parent) + w.  So
    each d(x, y) grows one edge at a time from x outward, as a walk from x
    adds them, and matches distance() exactly.
    """
    if space.kind == MATRIX:
        return space.matrix
    if space.kind != TREE:
        raise ValidationError(f"apsp requires a tree or matrix space, got {space.kind}")
    if space._apsp is not None:
        return space._apsp
    n = space.tree.vertex_count
    preorder, parent, weight_up = space.tree.rooted(0)
    pos = np.argsort(preorder).tolist()  # preorder position of each vertex
    size = [1] * n
    for u in reversed(preorder[1:]):
        size[parent[u]] += size[u]
    # (start, end, parent position, edge length) of each non-root subtree range.
    ranges = [(pos[u], pos[u] + size[u], pos[parent[u]], weight_up[u])
              for u in preorder[1:]]
    D = np.zeros((n, n))  # indexed by preorder position
    for a, b, p, w in reversed(ranges):
        D[a:b, p] = D[a:b, a] + w
    for a, b, p, w in ranges:
        D[:a, a] = D[:a, p] + w
        D[b:, a] = D[b:, p] + w
    out = D[np.ix_(pos, pos)]
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
