"""Correctness checks the benchmark runs outside its timed region.

Every check recomputes from the raw inputs the benchmark generated itself
(coordinates, edge lists, distance matrices), never from the package's own
distance tables, so a defect in the metric layer cannot hide itself.
"""
from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ALPHA = 1.0  # the benchmark audits at (alpha, beta) = (1, 1) only
BETA = 1.0
TOL = 1e-9  # the package's shared scaled tolerance for strictness
BOUND_EPS = 1e-6  # slack on the paper's beta bounds, as the verify suites use


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def scaled_close(a: float, b: float) -> bool:
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def blocks(sum_y: float, sum_dev_scaled: float) -> bool:
    """beta * sum d(i,y') < sum d(i,Y) beyond the shared scaled tolerance."""
    return sum_y - sum_dev_scaled > TOL * max(1.0, abs(sum_y), abs(sum_dev_scaled))


class RawSpace:
    """Distances computed from the benchmark's own copy of an input.

    kind is "line", "euclidean", "tree" or "matrix".  Line and Euclidean
    distances come from the coordinates passed to `table`; for the graph
    kinds data holds the (u, v, w) edge list (tree) or the distance matrix
    (matrix), and points are vertex ids.
    """

    def __init__(self, kind: str, data=None):
        self.kind = kind
        self.data = data
        self._table = None

    def table(self, agents: Sequence, ys: Sequence) -> np.ndarray:
        """Distances d(i, y): one row per point y in ys, one column per agent."""
        if self.kind == "line":
            return np.abs(np.asarray(agents, dtype=float)[None, :]
                          - np.asarray(ys, dtype=float)[:, None])
        if self.kind == "euclidean":
            diff = (np.asarray(agents, dtype=float)[None, :, :]
                    - np.asarray(ys, dtype=float)[:, None, :])
            return np.sqrt((diff * diff).sum(axis=2))
        if self._table is None:  # built on first check, never during set-up
            self._table = (_tree_table(self.data) if self.kind == "tree"
                           else np.asarray(self.data, dtype=float))
        return self._table[np.ix_(np.asarray(agents, dtype=int), np.asarray(ys, dtype=int))].T

    def profile(self, agents: Sequence, y) -> np.ndarray:
        """Distances from every agent in `agents` to the point y."""
        return self.table(agents, [y])[0]


def _tree_table(edges) -> np.ndarray:
    nv = 1 + max((max(u, v) for u, v, _ in edges), default=0)
    adj: List[List] = [[] for _ in range(nv)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    table = np.zeros((nv, nv))
    for src in range(nv):
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in seen:
                    seen.add(v)
                    table[src, v] = table[src, u] + w
                    stack.append(v)
    return table


def _same_point(a, b) -> bool:
    if isinstance(a, (tuple, list)) or isinstance(b, (tuple, list)):
        return tuple(float(x) for x in a) == tuple(float(x) for x in b)
    return a == b


def used(to_centers: np.ndarray, to_ys: np.ndarray) -> np.ndarray:
    """Which rows of to_ys are at a used center's distance profile; the
    auditor treats such a candidate as used."""
    out = np.zeros(len(to_ys), dtype=bool)
    for prof in to_centers:
        scale = np.maximum(1.0, np.maximum(to_ys, prof[None, :]))
        out |= (np.abs(to_ys - prof[None, :]) <= TOL * scale).all(axis=1)
    return out


def core_recheck(raw: RawSpace, agents: Sequence, centers: Sequence,
                 to_centers: np.ndarray, candidates: Optional[Sequence], s: int,
                 chunk: int = 256) -> Tuple[bool, float]:
    """Membership at (ALPHA, BETA) recomputed from raw distances.

    Returns whether some coalition of size s blocks at BETA, and the largest
    ratio sum d(i,Y) / sum d(i,y') among the coalitions tried, a lower bound
    on beta_min.  The deviations are the candidates (candidates=None: the
    continuous line, whose deviations are the agent coordinates) not at a
    used center.  Per deviation the s agents with the largest gain
    d(i,Y) - BETA*d(i,y') are tried: they block if any s agents do.
    """
    if candidates is None:
        coords = np.asarray([float(c) for c in centers])
        candidates = [p for p in sorted({float(a) for a in agents})
                      if np.abs(coords - p).min() > TOL * max(1.0, abs(p))]
    d_y = to_centers.min(axis=0)
    blocked, lower = False, 0.0
    for lo in range(0, len(candidates), chunk):
        dev = raw.table(agents, candidates[lo:lo + chunk])
        dev = dev[~used(to_centers, dev)]
        idx = np.argpartition(BETA * dev - d_y[None, :], s - 1, axis=1)[:, :s]
        sum_y = d_y[idx].sum(axis=1)
        sum_dev = np.take_along_axis(dev, idx, axis=1).sum(axis=1)
        scale = np.maximum(1.0, np.maximum(sum_y, BETA * sum_dev))
        blocked = blocked or bool((sum_y - BETA * sum_dev > TOL * scale).any())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sum_dev > 0.0, sum_y / sum_dev,
                             np.where(sum_y > 0.0, math.inf, 0.0))
        lower = max([lower, *ratio.tolist()])
    return blocked, lower


def recheck_witness(raw: RawSpace, agents: Sequence, centers: Sequence,
                    to_centers: np.ndarray, witness, s: int, beta: Optional[float],
                    size: Optional[int] = None, ratio: Optional[float] = None) -> List[str]:
    """Problems with one blocking witness, recomputed from raw distances.

    to_centers[c, i] is the raw distance from agent i to centers[c].  s is
    the smallest valid coalition size ceil(alpha*n/k).  beta is the factor
    at which the witness must block (None for a min_beta witness, whose
    ratio must instead equal `ratio`).  size, when given, is the exact
    coalition size the witness must have.
    """
    errs: List[str] = []
    coal = [int(i) for i in witness.coalition]
    n = len(agents)
    if len(set(coal)) != len(coal) or any(not 0 <= i < n for i in coal):
        return [f"coalition is not a set of agent indices: {coal[:8]}"]
    if len(coal) < s:
        errs.append(f"coalition size {len(coal)} < ceil(alpha*n/k) = {s}")
    if size is not None and len(coal) != size:
        errs.append(f"coalition size {len(coal)} != reported size {size}")
    y = witness.y_prime
    to_y = raw.profile(agents, y)
    if used(to_centers, to_y[None, :])[0] or any(_same_point(c, y) for c in centers):
        errs.append(f"deviation {y!r} is a used center")
    sum_y = float(to_centers[:, coal].min(axis=0).sum())
    sum_dev = float(to_y[coal].sum())
    if not scaled_close(sum_y, float(witness.sum_to_Y)):
        errs.append(f"sum d(i,Y) recomputes to {sum_y!r}, witness says {witness.sum_to_Y!r}")
    if not scaled_close(sum_dev, float(witness.sum_to_y_prime)):
        errs.append(f"sum d(i,y') recomputes to {sum_dev!r}, witness says "
                    f"{witness.sum_to_y_prime!r}")
    if beta is not None and not blocks(sum_y, beta * sum_dev):
        errs.append(f"coalition does not block at beta={beta}: {sum_y!r} vs {beta * sum_dev!r}")
    if ratio is not None:
        if sum_dev <= 0.0:
            ok = math.isinf(ratio) and sum_y > 0.0
        else:
            ok = scaled_close(sum_y / sum_dev, ratio)
        if not ok:
            errs.append(f"witness ratio {sum_y!r}/{sum_dev!r} != beta_min {ratio!r}")
    return errs


def check_audit(raw: RawSpace, agents: Sequence, centers: Sequence,
                candidates: Optional[Sequence], k: int, beta_min: float, beta_wit,
                s_max: int, s_wit, in_core: bool, core_wit) -> List[str]:
    """Recheck one audit at (ALPHA, BETA) = (1, 1): every witness, and the
    answers themselves.

    The arguments mirror AuditResult's fields; candidates is None on the
    continuous line.  Membership is recomputed independently, so an audit
    that wrongly finds nothing fails too: it must agree with in_core,
    beta_min must reach every ratio the recheck tried, and the clustering is
    in the core exactly when s_max < ceil(n/k).
    """
    s = ceil_div(len(agents), k)
    errs: List[str] = []
    if len(centers) != k:
        errs.append(f"clustering has {len(centers)} centers, k={k}")
    to_centers = raw.table(agents, centers)
    blocked, lower = core_recheck(raw, agents, centers, to_centers, candidates, s)
    if blocked == in_core:
        errs.append(f"in_core={in_core}, but recomputed, a coalition of {s} "
                    f"{'blocks' if blocked else 'does not block'}")
    if beta_min < lower and not scaled_close(beta_min, lower):
        errs.append(f"beta_min={beta_min} is below a recomputed ratio {lower!r}")
    if in_core != (s_max < s):
        errs.append(f"in_core={in_core} contradicts s_max={s_max} (coalitions need {s})")
    if beta_min > 0.0:
        if beta_wit is None:
            errs.append(f"beta_min={beta_min} without a witness")
        else:
            errs += ["beta witness: " + e for e in
                     recheck_witness(raw, agents, centers, to_centers, beta_wit, s, None,
                                     size=s, ratio=beta_min)]
    if s_max > 0:
        if s_max < s:
            errs.append(f"s_max={s_max} below the smallest coalition size {s}")
        if s_wit is None:
            errs.append(f"s_max={s_max} without a witness")
        else:
            errs += ["s_max witness: " + e for e in
                     recheck_witness(raw, agents, centers, to_centers, s_wit, s, BETA,
                                     size=s_max)]
    if not in_core:
        if core_wit is None:
            errs.append("not in core, but no witness")
        else:
            errs += ["core witness: " + e for e in
                     recheck_witness(raw, agents, centers, to_centers, core_wit, s, BETA)]
    return errs


def check_social_cost(points: np.ndarray, centers: Sequence, kmeans: float,
                      kmedians: float) -> List[str]:
    """Both social costs of a Euclidean clustering, recomputed directly."""
    diff = points[:, None, :] - np.asarray(centers, dtype=float)[None, :, :]
    want_means = float((diff * diff).sum(axis=2).min(axis=1).sum())
    want_medians = float(np.abs(diff).sum(axis=2).min(axis=1).sum())
    errs = []
    if not scaled_close(want_means, kmeans):
        errs.append(f"kmeans social cost {kmeans!r}, recomputed {want_means!r}")
    if not scaled_close(want_medians, kmedians):
        errs.append(f"kmedians social cost {kmedians!r}, recomputed {want_medians!r}")
    return errs


# ---------------------------------------------------------------------------
# result digests
# ---------------------------------------------------------------------------

def _canon(x):
    """JSON-ready value with floats at 10 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "inf" if math.isinf(x) else format(x, ".10g")
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in sorted(x.items())}
    if x is None:
        return None
    if hasattr(x, "coalition"):  # a BlockingWitness
        return [_canon(x.y_prime), _canon(list(x.coalition)), _canon(x.sum_to_Y),
                _canon(x.sum_to_y_prime)]
    raise TypeError(f"cannot digest {type(x).__name__}")


def digest(record: Dict) -> str:
    """Short stable hash of one item's results (centers, audits, costs)."""
    text = json.dumps(_canon(record), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(item_digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(item_digests).encode()).hexdigest()[:16]
