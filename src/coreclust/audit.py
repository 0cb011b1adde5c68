"""Fairness audits: decide (alpha, beta)-core membership and find witnesses.

A clustering fails the (alpha, beta)-core when some coalition S of at least
alpha*n/k agents and some unused candidate center y' satisfy

    beta * sum_{i in S} d(i, y') < sum_{i in S} d(i, Y)        (strictly).

The audit engine answers three questions, each with a concrete witness:

* min_beta      -- smallest beta at which a given alpha is satisfied;
* max_blocking_size -- largest coalition size that still blocks at a beta;
* is_in_core    -- yes/no membership at a fixed (alpha, beta).

For a fixed deviation y' and coalition size s, the best coalition under a
multiplier c is simply the s largest gains d(i,Y) - c*d(i,y'), so the ratio
maximization is solved by Dinkelbach iteration: start from the top-s by
d(i,Y), then repeatedly re-select the top-s under the current ratio until
no size-s set beats it.  Each step strictly increases the ratio and there
are finitely many subsets, so the loop terminates (in practice within a few
rounds).

Prune, then solve.  Both searches over deviations first drop, with
vectorized passes over 256-deviation blocks, the deviations that provably
cannot win, and then run the exact per-deviation code on the survivors in
index order:

* min_beta runs Dinkelbach rounds on all deviations at once.  The
  multiplier c is always the value the per-deviation Dinkelbach code
  returns for some surviving deviation: first for the deviation with the
  best start ratio, then for the survivor with the best top-s ratio at the
  previous c.  A deviation whose best size-s surplus
  sum(d(i,Y) - c*d(i,y')) is negative beyond the tolerance has every ratio
  below c, so it is dropped.  The rounds stop when c no longer rises.
* max_blocking_size starts at L = ceil(n/k), since shorter coalitions
  never count.  Prefix sums of gains sorted in descending order are
  concave and start at zero, so a deviation whose top-L gain sum is
  negative beyond the tolerance blocks at no length >= L.  Those are
  dropped; L then rises to the exact length of the survivor with the
  largest top-L sum, until it no longer rises or the survivors hold at
  most 256*256 distances.

Why the answers are those of a scan over every deviation: a dropped
deviation's value is below a value that a survivor returns (min_beta), or
below a length that a survivor reaches (max_blocking_size), so it is never
the maximum.  The survivors are solved by the same code, in the same index
order, with the same strict comparison.  So values and witnesses, ties
included (the lowest index wins), are unchanged.  Pruning is skipped when
some deviation has a coalition at zero distance, so the inf and 0 answers
of min_beta keep their handling.

Distances to the deviations are held deviation-major (one contiguous row
per deviation), and used candidates are found by screening the first few
agents before comparing whole profiles.  Every step works on blocks of at
most 256 rows, which bounds peak memory.

Deviations on the continuous line are restricted to unoccupied agent
coordinates: for any fixed S the total |x_i - y| is minimized at a median
of S, which is an agent location, so the joint (S, y') maximum over the
whole line is preserved.

Strictness at the boundary uses the shared 1e-9 scaled tolerance: a
coalition blocks only when the improvement clears float noise, so the
clustering *is* in the core at exactly beta = min_beta.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, SizeLimitError, ValidationError
from .instance import Clustering, Instance
from .metric import TOL, PointRef, cross_distances

_CHUNK = 256  # table rows processed per block, bounds peak memory
_PROBE_ROWS = 8  # agent rows screened before a full used-candidate check


def _tol(a, b):
    """The shared 1e-9 tolerance, scaled elementwise by the larger magnitude."""
    return TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _same(a, b):
    """Elementwise: a and b agree within the scaled tolerance."""
    return np.abs(a - b) <= _tol(a, b)


@dataclass
class BlockingWitness:
    """A deviation y', a coalition (agent indices), and both inequality sides."""

    y_prime: PointRef
    coalition: List[int]
    sum_to_Y: float
    sum_to_y_prime: float

    @property
    def ratio(self) -> float:
        if self.sum_to_y_prime <= 0.0:
            return math.inf if self.sum_to_Y > 0.0 else 0.0
        return self.sum_to_Y / self.sum_to_y_prime

    def to_json(self, space=None) -> dict:
        y = self.y_prime
        if isinstance(y, tuple):
            y = [float(v) for v in y]
        elif isinstance(y, (np.integer,)):
            y = int(y)
        elif isinstance(y, (np.floating,)):
            y = float(y)
        return {
            "y_prime": y,
            "coalition": [int(i) for i in self.coalition],
            "sum_to_Y": float(self.sum_to_Y),
            "sum_to_y_prime": float(self.sum_to_y_prime),
            "ratio": "inf" if math.isinf(self.ratio) else float(self.ratio),
        }


@dataclass
class AuditResult:
    """Both audit dimensions for one clustering.

    beta_min is the attained minimum beta at alpha_query (inf when a
    coalition reaches a zero-distance deviation while paying a positive
    cost); s_max is the largest blocking size at beta_query, zero when
    nothing blocks at the proportional size; alpha_sup = k*s_max/n, and the
    clustering is in the (alpha, beta_query)-core exactly for
    alpha*n/k > s_max.
    """

    alpha_query: float
    beta_query: float
    beta_min: float
    s_max: int
    alpha_sup: float
    in_core: bool
    beta_witness: Optional[BlockingWitness] = None
    s_witness: Optional[BlockingWitness] = None
    core_witness: Optional[BlockingWitness] = None

    def to_json(self) -> dict:
        return {
            "alpha_query": self.alpha_query,
            "beta_query": self.beta_query,
            "beta_min": "inf" if math.isinf(self.beta_min) else self.beta_min,
            "s_max": self.s_max,
            "alpha_sup": self.alpha_sup,
            "in_core": self.in_core,
            "witness": (self.core_witness or self.s_witness or self.beta_witness
                        ).to_json() if (self.core_witness or self.s_witness
                                        or self.beta_witness) else None,
        }


# ---------------------------------------------------------------------------
# shared precomputation
# ---------------------------------------------------------------------------

class _AuditContext:
    """Distances from every agent to the clustering and to every deviation.

    DT is deviation-major: row j holds d(i, y'_j) for every agent i, so the
    per-deviation scans below read contiguous rows.
    """

    def __init__(self, inst: Instance, clustering: Clustering):
        if len(clustering.centers) != inst.k:
            raise ValidationError(
                f"clustering has {len(clustering.centers)} centers; instance wants k={inst.k}")
        for c in clustering.centers:
            inst.space.check_point(c)
        self.inst = inst
        self.centers = list(clustering.centers)
        n = inst.n
        d_to_centers = cross_distances(inst.space, inst.agents, self.centers)
        self.dY = d_to_centers.min(axis=1)
        if inst.continuous_candidates:
            coords = inst.candidate_list()
            x = np.asarray(coords)
            centers = np.asarray([float(c) for c in self.centers])
            free = np.abs(x[:, None] - centers).min(axis=1) > TOL * np.maximum(1.0, np.abs(x))
            devs = [c for c, f in zip(coords, free) if f]
            self.devs: List[PointRef] = devs
            self.DT = cross_distances(inst.space, inst.agents, devs).T.copy() \
                if devs else np.zeros((0, n))
        else:
            cands = inst.candidate_list()
            DT = cross_distances(inst.space, inst.agents, cands).T.copy()
            CT = d_to_centers.T.copy()
            # A candidate is used when its profile matches a center's on
            # every agent.  Matching on the first few agents is necessary,
            # so test those for every (candidate, center) pair and confirm
            # only the pairs that pass on whole profiles.  Both steps go in
            # blocks of at most _CHUNK*len(cands) and 2*_CHUNK*n elements:
            # on a clique nearly every pair passes the probe.
            used = np.zeros(len(cands), dtype=bool)
            r = min(n, _PROBE_ROWS)
            per = _CHUNK // r
            for lo in range(0, len(CT), per):
                jj, cc = np.nonzero(
                    _same(DT[:, None, :r], CT[None, lo:lo + per, :r]).all(axis=2))
                for at in range(0, jj.size, _CHUNK):
                    j = jj[at:at + _CHUNK]
                    c = cc[at:at + _CHUNK] + lo
                    used[j[_same(DT[j], CT[c]).all(axis=1)]] = True
            self.devs = [c for c, u in zip(cands, used) if not u]
            self.DT = DT[~used] if used.any() else DT
        self.m = len(self.devs)
        hi = 1.0
        if self.DT.size:
            hi = max(hi, float(self.DT.max()))
        if self.dY.size:
            hi = max(hi, float(self.dY.max()))
        self.zero_tol = TOL * hi


def deviation_candidates(inst: Instance, clustering: Clustering) -> List[PointRef]:
    """Candidate centers still available to a deviating coalition.

    Finite candidate sets drop every candidate whose distance profile to the
    agents coincides with a used center; on the continuous line the
    deviations are the unoccupied agent coordinates.
    """
    return _AuditContext(inst, clustering).devs


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise ParameterError(f"alpha must be finite and >= 1, got {alpha}")


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0):
        raise ParameterError(f"beta must be finite and positive, got {beta}")


def coalition_size(inst: Instance, alpha: float) -> int:
    """Smallest blocking-coalition size at relaxation alpha: ceil(alpha*n/k).

    Products within 1e-9 of an integer round to it, so alpha values meant to
    hit an exact threshold are not bumped a full agent by float noise.
    """
    _check_alpha(alpha)
    x = alpha * inst.n / inst.k
    nearest = round(x)
    if abs(x - nearest) <= TOL * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def _blocking_margin(cy: np.ndarray, cd_scaled: np.ndarray) -> np.ndarray:
    """Elementwise: does sum d(i,Y) beat beta * sum d(i,y') beyond noise."""
    return (cy - cd_scaled) > _tol(cy, cd_scaled)


def _witness_from_column(ctx: _AuditContext, j: int, idx: Sequence[int]) -> BlockingWitness:
    idx = sorted(int(i) for i in idx)
    return BlockingWitness(
        y_prime=ctx.devs[j],
        coalition=idx,
        sum_to_Y=float(ctx.dY[idx].sum()),
        sum_to_y_prime=float(ctx.DT[j, idx].sum()),
    )


def _top_sums(ctx: _AuditContext, rows: np.ndarray, c: float, s: int
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per deviation row: the s agents with the largest gains
    d(i,Y) - c*d(i,y'), and their sums of d(i,Y) and of d(i,y').

    The sums run left to right (cumsum): np.sum along a contiguous row adds
    in pairs and can differ in the last bit, which would move the choice
    between near-tied witnesses.
    """
    idx = np.argpartition(c * rows - ctx.dY, s - 1, axis=1)[:, :s]
    return (idx, ctx.dY[idx].cumsum(axis=1)[:, -1],
            np.take_along_axis(rows, idx, axis=1).cumsum(axis=1)[:, -1])


def _surviving(ctx: _AuditContext, cols: np.ndarray, c: float, s: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deviations among cols whose best size-s surplus
    sum d(i,Y) - c*sum d(i,y') is not negative beyond the tolerance, with
    both sums of their best coalition."""
    num = np.empty(cols.size)
    den = np.empty(cols.size)
    for lo in range(0, cols.size, _CHUNK):
        _, num[lo:lo + _CHUNK], den[lo:lo + _CHUNK] = _top_sums(
            ctx, ctx.DT[cols[lo:lo + _CHUNK]], c, s)
    alive = num - c * den >= -_tol(num, c * den)
    return cols[alive], num[alive], den[alive]


def max_blocking_size(inst: Instance, clustering: Clustering, beta: float
                      ) -> Tuple[int, Optional[BlockingWitness]]:
    """Largest coalition size with a blocking move at improvement factor beta.

    Per deviation, gains d(i,Y) - beta*d(i,y') are sorted descending and the
    longest prefix with a strictly positive sum is that deviation's best
    size; sizes below ceil(n/k) never form a valid coalition and report 0.
    """
    _check_beta(beta)
    ctx = _AuditContext(inst, clustering)
    return _max_blocking_size(ctx, beta)


def _blocking_lengths(ctx: _AuditContext, beta: float, cols: np.ndarray
                      ) -> np.ndarray:
    """Per deviation, the longest blocking prefix of the stably sorted gains
    d(i,Y) - beta*d(i,y'), or 0 when no prefix blocks."""
    n = ctx.inst.n
    lens = np.zeros(len(cols), dtype=int)
    for lo in range(0, len(cols), _CHUNK):
        rows = ctx.DT[cols[lo:lo + _CHUNK]]
        order = np.argsort(beta * rows - ctx.dY, axis=1, kind="stable")
        cy = ctx.dY[order].cumsum(axis=1)
        cd = beta * np.take_along_axis(rows, order, axis=1).cumsum(axis=1)
        blocking = _blocking_margin(cy, cd)
        lens[lo:lo + _CHUNK] = np.where(
            blocking.any(axis=1), n - np.argmax(blocking[:, ::-1], axis=1), 0)
    return lens


def _max_blocking_size(ctx: _AuditContext, beta: float
                       ) -> Tuple[int, Optional[BlockingWitness]]:
    s_min = coalition_size(ctx.inst, 1.0)
    if ctx.m == 0:
        return 0, None
    cols, size = np.arange(ctx.m), s_min
    # Prune while the survivors hold more than _CHUNK**2 distances; fewer
    # are stable-sorted at once, which costs about as much as another
    # pruning round.
    while cols.size * ctx.inst.n > _CHUNK * _CHUNK:
        # size is s_min or a length some deviation attains; prefix sums of
        # the sorted gains are concave and start at 0, so a dropped
        # deviation blocks at no length >= size.
        cols, cy, cd = _surviving(ctx, cols, beta, size)
        if not cols.size:
            return 0, None
        lead = cols[[int(np.argmax(cy - beta * cd))]]
        grown = int(_blocking_lengths(ctx, beta, lead)[0])
        if grown <= size:
            break
        size = grown
    lens = _blocking_lengths(ctx, beta, cols)
    best = int(np.argmax(lens))
    best_len, best_j = int(lens[best]), int(cols[best])
    if best_len < s_min:
        return 0, None
    order = np.argsort(-(ctx.dY - beta * ctx.DT[best_j]), kind="stable")
    return best_len, _witness_from_column(ctx, best_j, order[:best_len])


def min_beta(inst: Instance, clustering: Clustering, alpha: float
             ) -> Tuple[float, Optional[BlockingWitness]]:
    """Smallest beta such that the clustering is in the (alpha, beta)-core.

    Maximizes sum d(i,Y) / sum d(i,y') over coalitions of the exact size
    ceil(alpha*n/k) for every deviation y' (larger coalitions never achieve
    a higher ratio).  Returns inf when some coalition reaches y' at total
    distance zero while paying a positive cost, and 0 when no deviation or
    no coalition is possible at all.
    """
    _check_alpha(alpha)
    ctx = _AuditContext(inst, clustering)
    return _min_beta(ctx, alpha)


def _min_beta(ctx: _AuditContext, alpha: float
              ) -> Tuple[float, Optional[BlockingWitness]]:
    s = coalition_size(ctx.inst, alpha)
    n = ctx.inst.n
    if s > n or ctx.m == 0:
        return 0.0, None
    best = -1.0
    best_witness: Optional[BlockingWitness] = None
    cols, solved = _ratio_survivors(ctx, s)
    for j in cols.tolist():
        value, idx = solved.get(j) or _best_ratio_for_dev(ctx, j, s)
        if value > best:
            best = value
            best_witness = _witness_from_column(ctx, j, idx)
            if math.isinf(best):
                break
    return max(best, 0.0), best_witness


def _ratio_survivors(ctx: _AuditContext, s: int
                     ) -> Tuple[np.ndarray, Dict[int, Tuple[float, np.ndarray]]]:
    """Deviations that may attain the largest size-s ratio, in index order,
    and the results of _best_ratio_for_dev already computed for some.

    Dinkelbach rounds over all deviations at once.  The multiplier c is
    always the solved value of a surviving deviation, first of the one with
    the best start ratio.  A deviation whose best surplus
    sum d(i,Y) - c*sum d(i,y') is negative beyond the tolerance has every
    ratio, and so its solved value, below c, and is dropped.  The deviation
    that set c keeps a coalition of surplus 0 and survives.  The survivor
    with the best ratio at c is solved next; the rounds stop when its value
    does not exceed c.  c rises strictly through finitely many attained
    ratios, so the rounds end.

    Pruning is skipped (every deviation returned) when some deviation has s
    agents within zero_tol, or the top-s sum of d(i,Y) is 0: then the
    answer is inf or 0 and keeps its handling in the scan.
    """
    cols = np.arange(ctx.m)
    top = np.argsort(-ctx.dY, kind="stable")[:s]
    num = float(ctx.dY[top].sum())
    den = np.empty(ctx.m)
    zeros = np.empty(ctx.m, dtype=int)
    for lo in range(0, ctx.m, _CHUNK):
        rows = ctx.DT[lo:lo + _CHUNK]
        den[lo:lo + _CHUNK] = rows[:, top].sum(axis=1)
        zeros[lo:lo + _CHUNK] = (rows <= ctx.zero_tol).sum(axis=1)
    if num <= 0 or zeros.max() >= s:
        return cols, {}
    # Without a zero-distance coalition every size-s sum of d(i,y') is
    # above zero_tol, so the ratios below are finite.
    lead = int(np.argmax(num / den))
    solved = {lead: _best_ratio_for_dev(ctx, lead, s)}
    c = solved[lead][0]
    while True:
        cols, num, den = _surviving(ctx, cols, c, s)
        lead = int(cols[np.argmax(num / den)])
        if lead not in solved:
            solved[lead] = _best_ratio_for_dev(ctx, lead, s)
        if not solved[lead][0] > c:
            return cols, solved
        c = solved[lead][0]


def _best_ratio_for_dev(ctx: _AuditContext, j: int, s: int
                        ) -> Tuple[float, np.ndarray]:
    """Dinkelbach iteration for one deviation column at coalition size s."""
    dY = ctx.dY
    dv = ctx.DT[j]
    zero = dv <= ctx.zero_tol
    if int(zero.sum()) >= s:
        zi = np.flatnonzero(zero)
        top = zi[np.argsort(-dY[zi], kind="stable")[:s]]
        num = float(dY[top].sum())
        if num > TOL * max(1.0, num):
            return math.inf, top
    idx = np.argsort(-dY, kind="stable")[:s]
    num = float(dY[idx].sum())
    den = float(dv[idx].sum())
    if den <= ctx.zero_tol:
        return (math.inf, idx) if num > TOL else (0.0, idx)
    beta = num / den
    # Every pass either stops or moves to a size-s coalition with a strictly
    # larger ratio; there are finitely many of them, so the loop ends.
    while True:
        gains = dY - beta * dv
        cand = np.argsort(-gains, kind="stable")[:s]
        surplus = float(gains[cand].sum())
        cnum = float(dY[cand].sum())
        cden = float(dv[cand].sum())
        if surplus <= TOL * max(1.0, cnum, beta * cden):
            break
        if cden <= ctx.zero_tol:
            return math.inf, cand
        new_beta = cnum / cden
        if new_beta <= beta:
            break
        beta, idx = new_beta, cand
    return beta, idx


def _best_at_size(ctx: _AuditContext, beta: float, s: int
                  ) -> Tuple[bool, Optional[BlockingWitness]]:
    """Does any size-s coalition block at beta; with the extremal witness."""
    best_margin = -math.inf
    best = None
    for lo in range(0, ctx.m, _CHUNK):
        idx, cy, cd = _top_sums(ctx, ctx.DT[lo:lo + _CHUNK], beta, s)
        cd = beta * cd
        blocked = _blocking_margin(cy, cd)
        if not blocked.any():
            continue
        margins = np.where(blocked, cy - cd, -math.inf)
        jloc = int(np.argmax(margins))
        if margins[jloc] > best_margin:
            best_margin = float(margins[jloc])
            best = _witness_from_column(ctx, lo + jloc, idx[jloc])
    return best is not None, best


def is_in_core(inst: Instance, clustering: Clustering, alpha: float, beta: float
               ) -> Tuple[bool, Optional[BlockingWitness]]:
    """Membership check at fixed (alpha, beta); a witness when it fails.

    Checking coalitions of the single size ceil(alpha*n/k) suffices: any
    larger blocking coalition contains one of that size at least as good.
    """
    _check_alpha(alpha)
    _check_beta(beta)
    ctx = _AuditContext(inst, clustering)
    return _is_in_core(ctx, alpha, beta)


def _is_in_core(ctx: _AuditContext, alpha: float, beta: float
                ) -> Tuple[bool, Optional[BlockingWitness]]:
    s = coalition_size(ctx.inst, alpha)
    if s > ctx.inst.n or ctx.m == 0:
        return True, None
    blocked, witness = _best_at_size(ctx, beta, s)
    return (not blocked), witness


def audit(inst: Instance, clustering: Clustering, alpha: float = 1.0,
          beta: float = 1.0) -> AuditResult:
    """Full audit: min beta at the queried alpha, max blocking size at the
    queried beta, and membership at the queried pair."""
    _check_alpha(alpha)
    _check_beta(beta)
    ctx = _AuditContext(inst, clustering)
    bmin, bwit = _min_beta(ctx, alpha)
    smax, swit = _max_blocking_size(ctx, beta)
    ok, cwit = _is_in_core(ctx, alpha, beta)
    return AuditResult(
        alpha_query=alpha,
        beta_query=beta,
        beta_min=bmin,
        s_max=smax,
        alpha_sup=inst.k * smax / inst.n,
        in_core=ok,
        beta_witness=bwit,
        s_witness=swit,
        core_witness=cwit,
    )


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_N = 16
ORACLE_MAX_CANDS = 16


def oracle_audit(inst: Instance, clustering: Clustering,
                 alpha: Optional[float] = None,
                 beta: Optional[float] = None) -> AuditResult:
    """Brute-force audit by direct subset enumeration.

    Enumerates every coalition of each relevant size together with every
    deviation candidate, maximizing the ratio (for beta_min) or scanning
    sizes downward (for s_max).  Only the small-instance regime is allowed;
    this is the reference the fast path is validated against.
    """
    if alpha is None:
        alpha = 1.0
    if beta is None:
        beta = 1.0
    _check_alpha(alpha)
    _check_beta(beta)
    ctx = _AuditContext(inst, clustering)
    n = inst.n
    if n > ORACLE_MAX_N:
        raise SizeLimitError(f"oracle_audit limited to n <= {ORACLE_MAX_N}, got {n}")
    if ctx.m > ORACLE_MAX_CANDS:
        raise SizeLimitError(
            f"oracle_audit limited to {ORACLE_MAX_CANDS} deviation candidates, got {ctx.m}")

    bmin, bwit = _oracle_min_beta(ctx, alpha)
    smax, swit = _oracle_max_size(ctx, beta)
    in_core = smax < coalition_size(inst, alpha)
    return AuditResult(
        alpha_query=alpha, beta_query=beta,
        beta_min=bmin, s_max=smax,
        alpha_sup=inst.k * smax / inst.n,
        in_core=in_core,
        beta_witness=bwit, s_witness=swit,
    )


def _combos(n: int, size: int) -> np.ndarray:
    """Every size-subset of range(n), one per row, in itertools order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), size))
    count = math.comb(n, size)
    out = np.fromiter(flat, dtype=np.intp, count=count * size).reshape(count, size)
    out.flags.writeable = False
    return out


def _oracle_best_ratio(ctx: _AuditContext, size: int, cols: Sequence[int]
                       ) -> Tuple[float, Optional[Tuple[int, np.ndarray]]]:
    """Best ratio sum d(i,Y) / sum d(i,y') over every coalition of the size
    and every deviation in cols, scanned in (deviation, coalition) order.

    Returns inf and the first pair whose coalition sits at zero distance
    from its deviation while paying a positive cost; otherwise the largest
    ratio and the first pair reaching it, or (-1.0, None) when every pair
    sits at zero distance.
    """
    combos = _combos(ctx.inst.n, size)
    num = ctx.dY[combos].sum(axis=1)
    trap_num = num > TOL * np.maximum(1.0, num)
    best, best_pair = -1.0, None
    for j in cols:
        den = ctx.DT[j][combos].sum(axis=1)
        zero = den <= ctx.zero_tol
        trap = zero & trap_num
        if trap.any():
            return math.inf, (j, combos[int(np.argmax(trap))])
        ratio = np.where(zero, -math.inf, num / np.where(zero, 1.0, den))
        at = int(np.argmax(ratio))
        if ratio[at] > best:
            best, best_pair = float(ratio[at]), (j, combos[at])
    return best, best_pair


def _oracle_min_beta(ctx: _AuditContext, alpha: float
                     ) -> Tuple[float, Optional[BlockingWitness]]:
    s = coalition_size(ctx.inst, alpha)
    if s > ctx.inst.n or ctx.m == 0:
        return 0.0, None
    best, pair = _oracle_best_ratio(ctx, s, range(ctx.m))
    if pair is None:
        return 0.0, None
    return max(best, 0.0), _witness_from_column(ctx, *pair)


def _oracle_max_size(ctx: _AuditContext, beta: float
                     ) -> Tuple[int, Optional[BlockingWitness]]:
    n = ctx.inst.n
    s_min = coalition_size(ctx.inst, 1.0)
    if s_min > n or ctx.m == 0:
        return 0, None
    for size in range(n, s_min - 1, -1):
        combos = _combos(n, size)
        cy = ctx.dY[combos].sum(axis=1)
        for j in range(ctx.m):
            blocking = _blocking_margin(cy, beta * ctx.DT[j][combos].sum(axis=1))
            if blocking.any():
                return size, _witness_from_column(ctx, j, combos[int(np.argmax(blocking))])
    return 0, None
