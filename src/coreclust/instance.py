"""Problem instances: agents, candidate centers, k, plus IO and generators.

An instance couples a metric space with a multiset of agent locations, a
candidate center set (finite, or the whole real line), and the number of
centers k.  Generators cover the standard constructed instances used by the
test suites: the unit K4, the 6-and-larger line gadgets, unit cliques, the
50-vertex broom tree, the far-apart-groups k-medians trap, and a 3-component
Gaussian mixture in the plane.

Canonical serialization is JSON (see save_instance / load_instance); CSV
point files and `u v w` edge lists load into the same validated model.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError
from .metric import (EUCLIDEAN, LINE, MATRIX, TREE, PointRef, Space,
                     TreeGraph, _vertex_id)

# Sentinel for "centers may be placed anywhere on the real line".
CONTINUOUS_LINE = "line"

Candidates = Union[str, List[PointRef]]


@dataclass
class Instance:
    space: Space
    agents: List[PointRef]
    candidates: Candidates
    k: int
    label: str = ""

    def __post_init__(self):
        self.validate()

    # ---- invariants ----------------------------------------------------
    def validate(self) -> None:
        n = len(self.agents)
        if n < 1:
            raise ValidationError("agents: need at least one agent")
        if not (1 <= self.k <= n):
            raise ValidationError(f"k: need 1 <= k <= n, got k={self.k}, n={n}")
        for a in self.agents:
            self.space.check_point(a)
        if self.continuous_candidates:
            if self.space.kind != LINE:
                raise ValidationError("candidates: continuous-line candidates need a line space")
        else:
            if not isinstance(self.candidates, (list, tuple)) or len(self.candidates) == 0:
                raise ValidationError("candidates: finite candidate set must be non-empty")
            for c in self.candidates:
                self.space.check_point(c)

    @property
    def continuous_candidates(self) -> bool:
        return self.candidates == CONTINUOUS_LINE

    @property
    def n(self) -> int:
        return len(self.agents)

    def candidate_list(self) -> List[PointRef]:
        """The finite candidates, or the sorted distinct agent coordinates
        on the continuous line."""
        if self.continuous_candidates:
            return sorted({float(a) for a in self.agents})
        return list(self.candidates)

    def with_k(self, k: int) -> "Instance":
        return replace(self, k=k)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.space == other.space and self.k == other.k
                and self.label == other.label
                and _points_eq(self.agents, other.agents)
                and (self.candidates == other.candidates
                     if (self.continuous_candidates or other.continuous_candidates)
                     else _points_eq(self.candidates, other.candidates)))


@dataclass
class Clustering:
    """An ordered list of exactly k center locations (duplicates allowed)."""

    centers: List[PointRef]

    def __len__(self):
        return len(self.centers)

    def __iter__(self):
        return iter(self.centers)


def _points_eq(a: Sequence[PointRef], b: Sequence[PointRef]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, tuple) or isinstance(y, tuple):
            if tuple(x) != tuple(y):
                return False
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON / CSV serialization
# ---------------------------------------------------------------------------

def _point_to_json(space: Space, p: PointRef):
    if space.kind == EUCLIDEAN:
        return [float(x) for x in p]
    if space.kind == LINE:
        return float(p)
    return int(p)


def _point_from_json(space: Space, obj) -> PointRef:
    if space.kind == EUCLIDEAN:
        if not isinstance(obj, (list, tuple)):
            raise ValidationError(f"agents: euclidean point must be a list, got {obj!r}")
        return tuple(float(x) for x in obj)
    if space.kind == LINE:
        return float(obj)
    return _vertex_id(obj)


def _space_to_json(space: Space) -> dict:
    out = {"kind": space.kind}
    if space.kind == EUCLIDEAN:
        out["dim"] = space.dim
    elif space.kind == TREE:
        out["edges"] = [[u, v, w] for u, v, w in space.tree.edges]
    elif space.kind == MATRIX:
        out["matrix"] = space.matrix.tolist()
    return out


def _space_from_json(obj: dict) -> Space:
    kind = obj.get("kind")
    if kind == LINE:
        return Space.line()
    if kind == EUCLIDEAN:
        return Space.euclidean(int(obj["dim"]))
    if kind == TREE:
        return Space.from_edges(obj["edges"])
    if kind == MATRIX:
        return Space.from_matrix(np.asarray(obj["matrix"], dtype=float))
    raise ValidationError(f"space.kind: unknown kind {kind!r}")


def instance_to_json(inst: Instance) -> dict:
    cands = (CONTINUOUS_LINE if inst.continuous_candidates
             else [_point_to_json(inst.space, c) for c in inst.candidates])
    return {
        "label": inst.label,
        "space": _space_to_json(inst.space),
        "agents": [_point_to_json(inst.space, a) for a in inst.agents],
        "candidates": cands,
        "k": inst.k,
    }


def instance_from_json(obj: dict) -> Instance:
    try:
        space = _space_from_json(obj["space"])
        agents = [_point_from_json(space, a) for a in obj["agents"]]
        cands = obj["candidates"]
        if cands != CONTINUOUS_LINE:
            cands = [_point_from_json(space, c) for c in cands]
        return Instance(space=space, agents=agents, candidates=cands,
                        k=int(obj["k"]), label=str(obj.get("label", "")))
    except KeyError as exc:
        raise ValidationError(f"missing instance field {exc}") from exc


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=1)


def load_instance(path: str, k: Optional[int] = None) -> Instance:
    """Load an instance from canonical JSON, or from a points CSV (needs k)."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"cannot parse {path}: {exc}") from exc
        return instance_from_json(obj)
    if k is None:
        raise ValidationError("loading a points file requires k")
    return load_points_csv(path, k)


def load_points_csv(path: str, k: int, label: Optional[str] = None) -> Instance:
    """Numeric point rows (comma or whitespace separated, optional header).

    Builds a Euclidean instance with one agent per row and candidates at the
    agent locations; single-column files become line instances.
    """
    pts: List[Tuple[float, ...]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            try:
                row = tuple(float(x) for x in parts)
            except ValueError:
                if not pts:
                    continue  # header row
                raise ValidationError(f"non-numeric row in {path}: {line!r}")
            pts.append(row)
    if not pts:
        raise ValidationError(f"no points found in {path}")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValidationError(f"inconsistent column counts in {path}: {sorted(dims)}")
    dim = dims.pop()
    if dim == 1:
        agents: List[PointRef] = [p[0] for p in pts]
        space = Space.line()
        cands: Candidates = sorted(set(agents))
    else:
        agents = list(pts)
        space = Space.euclidean(dim)
        cands = list(dict.fromkeys(pts))
    return Instance(space=space, agents=agents, candidates=cands, k=k,
                    label=label or os.path.basename(str(path)))


def load_tree_edges(path: str, k: int, agents_at_vertices: bool = True,
                    agents: Optional[List[int]] = None) -> Instance:
    """Plain-text `u v w` edge list; vertex count inferred as max id + 1."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValidationError(f"edge line must be 'u v w', got {line!r}")
            try:
                edges.append(tuple(float(x) for x in parts))
            except ValueError:
                raise ValidationError(f"edge line must hold numbers, got {line!r}") from None
    space = Space.from_edges(edges)
    nv = space.tree.vertex_count
    if agents is None:
        if not agents_at_vertices:
            raise ValidationError("need explicit agents when agents_at_vertices is off")
        agents = list(range(nv))
    return Instance(space=space, agents=agents, candidates=list(range(nv)),
                    k=k, label=os.path.basename(str(path)))


def load_matrix_csv(path: str, k: int) -> Instance:
    """Full symmetric distance matrix as CSV; one agent per index."""
    rows = []
    with open(path) as fh:
        for rec in csv.reader(fh):
            if rec:
                rows.append([float(x) for x in rec])
    space = Space.from_matrix(np.asarray(rows, dtype=float))
    n = space.vertex_count
    return Instance(space=space, agents=list(range(n)),
                    candidates=list(range(n)), k=k,
                    label=os.path.basename(str(path)))


def save_clustering(clustering: Clustering, space: Space, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"centers": [_point_to_json(space, c) for c in clustering.centers]}, fh)


def load_clustering(path: str, space: Space) -> Clustering:
    with open(path) as fh:
        obj = json.load(fh)
    if "centers" not in obj:
        raise ValidationError("clustering JSON needs a 'centers' field")
    return Clustering(centers=[_point_from_json(space, c) for c in obj["centers"]])


# ---------------------------------------------------------------------------
# Constructed instances
# ---------------------------------------------------------------------------

def gen_k4() -> Instance:
    """Unit complete graph on 4 vertices, one agent each, k=2."""
    return gen_clique(4)


def gen_clique(n: int) -> Instance:
    """Unit complete graph on n vertices (n even), one agent each, k = n/2."""
    if n < 4 or n % 2 != 0:
        raise ValidationError(f"clique size must be even and >= 4, got {n}")
    mat = np.ones((n, n)) - np.eye(n)
    space = Space.from_matrix(mat)
    return Instance(space=space, agents=list(range(n)),
                    candidates=list(range(n)), k=n // 2,
                    label=f"clique-{n}")


def gen_line_beta_lb(k: int) -> Instance:
    """k agents on each of the integer points 1..k+1; continuous line centers.

    No k-clustering of this instance escapes a distance-improvement factor
    of k/2 for some proportional coalition.
    """
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}")
    agents = [float(p) for p in range(1, k + 2) for _ in range(k)]
    return Instance(space=Space.line(), agents=agents,
                    candidates=CONTINUOUS_LINE, k=k,
                    label=f"line-beta-lb-{k}")


def gen_line_alpha_lb(C: int, K: float = 1e6) -> Instance:
    """C far-apart parts of 2C-1 agents each; k = 2C-1 centers.

    Part j (1-based) puts C-1 agents at jK, one at jK+1, and C-1 at jK+2.
    Every clustering admits a blocking coalition of size 2C-3 at beta=1.
    """
    if C < 3:
        raise ValidationError(f"need C >= 3, got {C}")
    if K <= 4 * C:
        raise ValidationError(f"need K much larger than C, got K={K}")
    agents: List[float] = []
    for j in range(1, C + 1):
        base = j * float(K)
        agents.extend([base] * (C - 1))
        agents.append(base + 1.0)
        agents.extend([base + 2.0] * (C - 1))
    return Instance(space=Space.line(), agents=agents,
                    candidates=CONTINUOUS_LINE, k=2 * C - 1,
                    label=f"line-alpha-lb-C{C}")


def broom_tree_graph() -> TreeGraph:
    """Unit-weight broom tree: hub plus 7 branches of a 4-path ending in 3 leaves."""
    edges = []
    for j in range(7):
        base = 1 + 7 * j
        edges.append((0, base, 1.0))
        edges.append((base, base + 1, 1.0))
        edges.append((base + 1, base + 2, 1.0))
        edges.append((base + 2, base + 3, 1.0))
        edges.append((base + 3, base + 4, 1.0))
        edges.append((base + 3, base + 5, 1.0))
        edges.append((base + 3, base + 6, 1.0))
    return TreeGraph(50, tuple(edges))


def gen_broom_tree() -> Instance:
    """The fixed 50-vertex unit tree with one agent per vertex and k=7."""
    space = Space.from_tree(broom_tree_graph())
    return Instance(space=space, agents=list(range(50)),
                    candidates=list(range(50)), k=7,
                    label="broom-tree-50")


FAR_GROUP_GAP = 1e6


def gen_kmedians_bad(m: int = 7) -> Instance:
    """Line instance where a total-distance k-medians center is maximally unfair.

    Group A holds m agents at 0, one at 1, and m at 2; two far groups of
    (m-1)/2 agents sit at 1e6 and 2e6, so n = 3m, k = 3, and ceil(n/k) = m.
    Odd m only; the far-group sizes are integral exactly then.
    """
    if m < 2:
        raise ValidationError(f"need m >= 2, got {m}")
    if m % 2 == 0:
        raise ValidationError(f"far groups need integral size (m-1)/2; m={m} is even")
    far = (m - 1) // 2
    agents = [0.0] * m + [1.0] + [2.0] * m
    agents += [FAR_GROUP_GAP] * far
    agents += [2 * FAR_GROUP_GAP] * far
    cands = sorted(set(agents))
    return Instance(space=Space.line(), agents=agents, candidates=cands,
                    k=3, label=f"kmedians-bad-{m}")


DEFAULT_GAUSSIAN_MEANS = ((0.0, 0.0), (8.0, 0.0), (16.0, 0.0))


def gen_gaussian(n: int = 1000, weights: Sequence[float] = (0.2, 0.3, 0.5),
                 seed: int = 0, k: int = 10,
                 means: Sequence[Tuple[float, float]] = DEFAULT_GAUSSIAN_MEANS,
                 scales: Sequence[float] = (1.0, 1.0, 1.0)) -> Instance:
    """2-D mixture: each point joins a component by weight, then draws from
    an isotropic Gaussian around that component's mean.  Deterministic for a
    fixed seed; candidates are the agent locations."""
    weights = [float(w) for w in weights]
    if len(weights) != len(means) or len(weights) != len(scales):
        raise ValidationError("weights, means, and scales must align")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1, got {sum(weights)}")
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(weights), size=n, p=weights)
    mu = np.asarray(means, dtype=float)
    sc = np.asarray(scales, dtype=float)
    pts = mu[comp] + rng.standard_normal((n, 2)) * sc[comp][:, None]
    agents = [tuple(float(x) for x in row) for row in pts]
    return Instance(space=Space.euclidean(2), agents=agents,
                    candidates=list(agents), k=k,
                    label=f"gaussian-{n}-s{seed}")


GENERATORS = {
    "k4": gen_k4,
    "line-beta": gen_line_beta_lb,
    "line-alpha": gen_line_alpha_lb,
    "clique": gen_clique,
    "broom-tree": gen_broom_tree,
    "kmedians-bad": gen_kmedians_bad,
    "gaussian": gen_gaussian,
}
