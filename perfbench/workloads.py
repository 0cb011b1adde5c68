"""The benchmark's three workloads: input generation, items and checks.

Every input is generated here from the run's seed, so later changes to the
package's own samplers and generators cannot change what is measured; the
package only ever receives the resulting Instance and Clustering objects.

Each workload provides
  build(seed)            one set-up: inputs whose item(i) gives item i;
  warmup(seed)           small inputs for the untimed warm-up;
  run_item(x, tr)        one timed item, every package call made through tr;
  decompose(x, out, tr)  traced runs only: the public calls that split the
                         item into layers, checked against the item's output;
  check(x, out)          correctness problems of one item (never timed);
  record(out)            the values the item's result digest covers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

import coreclust as cc
from checks import (ALPHA, BETA, BOUND_EPS, RawSpace, ceil_div, check_audit,
                    check_social_cost, scaled_close)

GAUSS_MEANS = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0]])
GAUSS_WEIGHTS = (0.2, 0.3, 0.5)


def gaussian_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """The paper's mixture: unit Gaussians at (0,0), (8,0), (16,0)."""
    comp = rng.choice(len(GAUSS_WEIGHTS), size=n, p=GAUSS_WEIGHTS)
    return GAUSS_MEANS[comp] + rng.standard_normal((n, 2))


def euclidean_instance(points: np.ndarray, k: int) -> cc.Instance:
    agents = [tuple(row) for row in points.tolist()]
    return cc.Instance(space=cc.Space.euclidean(points.shape[1]), agents=agents,
                       candidates=list(dict.fromkeys(agents)), k=k)


def same_points(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all((tuple(x) == tuple(y)) if isinstance(x, tuple) else x == y
               for x, y in zip(a, b))


def audit_record(res) -> dict:
    return {"beta_min": res.beta_min, "s_max": res.s_max, "in_core": res.in_core,
            "witnesses": [res.beta_witness, res.s_witness, res.core_witness]}


def check_result(raw: RawSpace, agents, inst: cc.Instance, y, res) -> List[str]:
    return check_audit(raw, agents, list(y.centers), inst.candidates, inst.k, res.beta_min,
                       res.beta_witness, res.s_max, res.s_witness, res.in_core,
                       res.core_witness)


def audit_parts(inst: cc.Instance, y, res, tr) -> List[str]:
    """The audit's public parts one by one; each must agree with audit()."""
    devs = tr.call("audit.context", cc.deviation_candidates, inst, y)
    tr.count("audit.deviation_columns", len(devs))
    b, _ = tr.call("audit.min_beta", cc.min_beta, inst, y, ALPHA)
    s, _ = tr.call("audit.max_blocking_size", cc.max_blocking_size, inst, y, BETA)
    ok, _ = tr.call("audit.is_in_core", cc.is_in_core, inst, y, ALPHA, BETA)
    got, want = (b, s, ok), (res.beta_min, res.s_max, res.in_core)
    return [] if got == want else [f"audit parts give {got}, audit() gave {want}"]


def distance_table(inst: cc.Instance, tr) -> None:
    """The agent x candidate table that the layers each rebuild."""
    cands = (sorted(set(inst.agents)) if inst.continuous_candidates
             else inst.candidates)
    tr.call("metric.cross_distances", cc.cross_distances, inst.space, inst.agents, cands)
    tr.count("metric.table_mb", inst.n * len(cands) * 8 / 1e6)


class Chunks:
    """Inputs in chunks: item i is entry i % size of chunk i // size.

    make(c) builds chunk c.  Only the current chunk is kept, so memory does
    not grow with the number of items a run reaches; the harness asks for
    an item before it starts the clock, so building a chunk is never timed.
    """

    def __init__(self, make):
        self._make = make
        self._index, self._chunk = 0, make(0)
        self.size = len(self._chunk)

    def item(self, i: int):
        c, j = divmod(i, self.size)
        if c != self._index:
            self._index, self._chunk = c, self._make(c)
        return self._chunk[j]


# ---------------------------------------------------------------------------
# gauss-pipeline: the paper's experiment, one k per item
# ---------------------------------------------------------------------------

@dataclass
class GaussX:
    index: int
    inst: cc.Instance
    points: np.ndarray
    raw: RawSpace
    seed: int


class GaussPipeline:
    name = "gauss-pipeline"
    # k values in an order whose every prefix mixes small and large k
    K_ORDER = (8, 17, 11, 14, 9, 16, 12, 15, 10, 13)

    def __init__(self, n: int = 1000, ks=K_ORDER, warm_n: int = 200):
        self.n, self.ks, self.warm_n = n, tuple(ks), warm_n
        self.warm_items = self.memory_items = 1
        self.setup_reps = 15

    def _inputs(self, rng, n, ks, seed):
        points = gaussian_points(rng, n)
        raw = RawSpace("euclidean", points)
        # each pass over the k values gets fresh Instance objects
        return Chunks(lambda c: [GaussX(c * len(ks) + j, euclidean_instance(points, k),
                                        points, raw, seed) for j, k in enumerate(ks)])

    def build(self, seed: int):
        return self._inputs(np.random.default_rng([seed, 1]), self.n, self.ks, seed)

    def warmup(self, seed: int):
        return self._inputs(np.random.default_rng([seed, 101]), self.warm_n, (4,), seed)

    def run_item(self, x: GaussX, tr) -> dict:
        inst = x.inst
        refined, plan = tr.call("algorithms.refined", cc.alg_refined, inst, "kmeans",
                                seed=x.seed)
        a_r = tr.call("audit.audit", cc.audit, inst, refined, ALPHA, BETA)
        km = tr.call("baselines.kmeans_pp", cc.kmeans_pp, inst.agents, inst.k, seed=x.seed)
        a_k = tr.call("audit.audit", cc.audit, inst, km, ALPHA, BETA)
        costs = [tr.call("baselines.social_cost", cc.social_cost, inst, y, obj)
                 for y in (refined, km) for obj in ("kmeans", "kmedians")]
        return {"refined": refined, "plan": plan, "kmeans": km,
                "audit_refined": a_r, "audit_kmeans": a_k, "costs": costs}

    def decompose(self, x: GaussX, out: dict, tr) -> List[str]:
        inst, plan, errs = x.inst, out["plan"], []
        tr.count("algorithms.refined.clusters", len(plan.clusters))
        distance_table(inst, tr)
        stage1, trace = tr.call("algorithms.greedy_ball", cc.alg_greedy_ball, inst,
                                fill=False)
        tr.count("algorithms.greedy_ball.openings",
                 sum(e.kind == "open" for e in trace.events))
        if not same_points(stage1.centers, plan.stage1_centers):
            errs.append("alg_greedy_ball(fill=False) differs from refined stage 1")
        centers = []
        for cluster, budget in zip(plan.clusters, plan.budgets):
            if budget:
                centers += tr.call("baselines.medoid_opt", cc.medoid_opt, inst, cluster,
                                   budget, "kmeans", seed=x.seed)
        if not same_points(centers, out["refined"].centers):
            errs.append("medoid_opt over the refined plan differs from alg_refined")
        errs += audit_parts(inst, out["refined"], out["audit_refined"], tr)
        errs += audit_parts(inst, out["kmeans"], out["audit_kmeans"], tr)
        return errs

    def check(self, x: GaussX, out: dict) -> List[str]:
        inst, errs = x.inst, []
        cand_set = set(inst.candidates)
        if any(c not in cand_set for c in out["refined"].centers):
            errs.append("refined center outside the candidate set")
        for key in ("refined", "kmeans"):
            errs += [f"{key}: {e}" for e in
                     check_result(x.raw, x.points, inst, out[key], out["audit_" + key])]
        c = out["costs"]
        errs += check_social_cost(x.points, out["refined"].centers, c[0], c[1])
        errs += check_social_cost(x.points, out["kmeans"].centers, c[2], c[3])
        return errs

    def record(self, out: dict) -> dict:
        return {"refined": out["refined"].centers, "kmeans": out["kmeans"].centers,
                "audit_refined": audit_record(out["audit_refined"]),
                "audit_kmeans": audit_record(out["audit_kmeans"]),
                "costs": out["costs"]}


# ---------------------------------------------------------------------------
# audit-n2000: the auditor alone at larger n
# ---------------------------------------------------------------------------

@dataclass
class AuditX:
    index: int
    inst: cc.Instance
    clustering: cc.Clustering
    points: np.ndarray
    raw: RawSpace


class AuditN2000:
    name = "audit-n2000"
    KS = (10, 14)
    LLOYD_ITERS = 25

    def __init__(self, n: int = 2000, ks=KS, warm_n: int = 300):
        self.n, self.ks, self.warm_n = n, tuple(ks), warm_n
        self.warm_items = self.memory_items = 1
        self.setup_reps = 9  # each ~1 s: k-means++ twice at n=2000

    def _inputs(self, rng, n, ks, seed):
        points = gaussian_points(rng, n)
        raw = RawSpace("euclidean", points)
        clusterings = []
        for k in ks:
            inst = euclidean_instance(points, k)
            # k-means++ centers are off-candidate, so every candidate stays a
            # deviation; k distinct candidates exercise used-candidate removal.
            # tol=0 runs every restart for exactly LLOYD_ITERS iterations, so
            # set-up does the same work at every seed
            km = cc.kmeans_pp(inst.agents, k, seed=seed, max_iter=self.LLOYD_ITERS, tol=0.0)
            picks = sorted(int(i) for i in rng.choice(len(inst.candidates), size=k,
                                                      replace=False))
            drawn = cc.Clustering(centers=[inst.candidates[i] for i in picks])
            clusterings.append((k, km, drawn))
        # one pass over the items audits every (k, clustering) pair once
        order = [(k, km) for k, km, _ in clusterings] + \
                [(k, dr) for k, _, dr in reversed(clusterings)]
        return Chunks(lambda c: self._chunk(c, points, raw, order))

    @staticmethod
    def _chunk(c, points, raw, order):
        """One pass over the clusterings, on fresh Instance objects."""
        insts = {k: euclidean_instance(points, k) for k, _ in order}
        return [AuditX(c * len(order) + j, insts[k], y, points, raw)
                for j, (k, y) in enumerate(order)]

    def build(self, seed: int):
        return self._inputs(np.random.default_rng([seed, 2]), self.n, self.ks, seed)

    def warmup(self, seed: int):
        return self._inputs(np.random.default_rng([seed, 102]), self.warm_n, (5,), seed)

    def run_item(self, x: AuditX, tr) -> dict:
        return {"audit": tr.call("audit.audit", cc.audit, x.inst, x.clustering, ALPHA, BETA)}

    def decompose(self, x: AuditX, out: dict, tr) -> List[str]:
        distance_table(x.inst, tr)
        return audit_parts(x.inst, x.clustering, out["audit"], tr)

    def check(self, x: AuditX, out: dict) -> List[str]:
        return check_result(x.raw, x.points, x.inst, x.clustering, out["audit"])

    def record(self, out: dict) -> dict:
        return audit_record(out["audit"])


# ---------------------------------------------------------------------------
# small-verify: `coreclust verify` traffic on tiny instances of every kind
# ---------------------------------------------------------------------------

KINDS = ("line", "tree", "euclidean", "matrix")


@dataclass
class SmallX:
    index: int
    kind: str
    inst: cc.Instance
    raw: RawSpace
    lam: int


def _small_nk(rng, n_min: int, n_max: int):
    n = int(rng.integers(n_min, n_max + 1))
    return n, int(rng.integers(2, min(10, n) + 1))


def small_instance(rng: np.random.Generator, kind: str, n_max: int):
    """One tiny instance of the given kind, with its raw data for checks."""
    if kind == "line":
        while True:  # alg_line at lambda = ceil(n/k) needs (k-1)^2 <= n
            n, k = _small_nk(rng, 4, n_max)
            if (k - 1) ** 2 <= n:
                break
        if rng.random() < 0.5:
            xs = rng.integers(0, 50, size=n).astype(float)
        else:
            xs = np.round(rng.uniform(0.0, 100.0, size=n), 3)
        agents = [float(v) for v in xs]
        inst = cc.Instance(space=cc.Space.line(), agents=agents,
                           candidates=cc.CONTINUOUS_LINE, k=k)
        return inst, RawSpace("line")
    if kind == "tree":
        nv = int(rng.integers(2, min(40, n_max) + 1))
        edges = [(int(rng.integers(0, v)), v, float(np.round(rng.uniform(0.5, 3.0), 3)))
                 for v in range(1, nv)]
        n, k = _small_nk(rng, max(4, nv // 2), n_max)
        agents = [int(v) for v in rng.integers(0, nv, size=n)]
        inst = cc.Instance(space=cc.Space.from_tree(cc.TreeGraph(nv, tuple(edges))),
                           agents=agents, candidates=list(range(nv)), k=k)
        return inst, RawSpace("tree", edges)
    if kind == "euclidean":
        n, k = _small_nk(rng, 5, n_max)
        blobs = rng.uniform(-10.0, 10.0, size=(3, 2))
        pts = blobs[rng.integers(0, 3, size=n)] + 2.0 * rng.standard_normal((n, 2))
        return euclidean_instance(pts, k), RawSpace("euclidean")
    n, k = _small_nk(rng, 4, min(40, n_max))
    raw = rng.uniform(1.0, 10.0, size=(n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for mid in range(n):  # close under shortest paths, so d is a metric
        d = np.minimum(d, d[:, mid, None] + d[None, mid, :])
    inst = cc.Instance(space=cc.Space.from_matrix(d), agents=list(range(n)),
                       candidates=list(range(n)), k=k)
    return inst, RawSpace("matrix", d)


def small_chunk(seed: int, tag: int, c: int, size: int, n_max: int) -> List[SmallX]:
    """Chunk c of the pool, from its own seeded stream."""
    rng = np.random.default_rng([seed, tag, c])
    out = []
    for i in range(c * size, (c + 1) * size):
        kind = KINDS[i % len(KINDS)]
        inst, raw = small_instance(rng, kind, n_max)
        out.append(SmallX(i, kind, inst, raw, ceil_div(inst.n, inst.k)))
    return out


class SmallVerify:
    name = "small-verify"
    ORACLE_N = 12          # oracle_audit enumerates subsets: n <= 12 ...
    ORACLE_DEVS = 16       # ... and at most 16 deviations
    # The oracle costs about 3x the timed item time when run on every
    # eligible item, so it runs on one round of the four kinds in every
    # ORACLE_EVERY rounds: spread over the whole run, about 0.2x item time.
    ORACLE_EVERY = 16

    def __init__(self, chunk: int = 500, n_max: int = 60, warm_items: int = 40):
        self.chunk, self.n_max, self.warm_items = chunk, n_max, warm_items
        self.memory_items = 2 * len(KINDS)
        self.setup_reps = 9

    def build(self, seed: int):
        return Chunks(lambda c: small_chunk(seed, 3, c, self.chunk, self.n_max))

    def warmup(self, seed: int):
        return Chunks(lambda c: small_chunk(seed, 103, c, self.warm_items, self.n_max))

    def run_item(self, x: SmallX, tr) -> dict:
        inst = x.inst
        if x.kind == "line":
            y = tr.call("algorithms.line", cc.alg_line, inst, x.lam)
        elif x.kind == "tree":
            y = tr.call("algorithms.tree", cc.alg_tree, inst, x.lam)
        else:
            y, _ = tr.call("algorithms.greedy", cc.alg_greedy_ball, inst)
        b, bw = tr.call("audit.min_beta", cc.min_beta, inst, y, ALPHA)
        s, sw = tr.call("audit.max_blocking_size", cc.max_blocking_size, inst, y, BETA)
        ok, cw = tr.call("audit.is_in_core", cc.is_in_core, inst, y, ALPHA, BETA)
        return {"y": y, "beta_min": b, "beta_witness": bw, "s_max": s,
                "s_witness": sw, "in_core": ok, "core_witness": cw}

    def decompose(self, x: SmallX, out: dict, tr) -> List[str]:
        inst, errs = x.inst, []
        if x.kind == "tree":
            # a fresh space, since the item already filled this one's cache
            tr.call("metric.apsp", cc.apsp, cc.Space.from_tree(inst.space.tree))
        distance_table(inst, tr)
        if x.kind in ("euclidean", "matrix"):
            natural, trace = tr.call("algorithms.greedy_ball", cc.alg_greedy_ball, inst,
                                     fill=False)
            tr.count("algorithms.greedy_ball.openings",
                     sum(e.kind == "open" for e in trace.events))
            full = tr.call("algorithms.greedy_fill", cc.greedy_fill, inst,
                           list(natural.centers))
            tr.count("algorithms.greedy_fill.added", len(full) - len(natural.centers))
            if not same_points(full, out["y"].centers):
                errs.append("greedy ball + greedy_fill differs from alg_greedy_ball")
        devs = tr.call("audit.context", cc.deviation_candidates, inst, out["y"])
        tr.count("audit.deviation_columns", len(devs))
        return errs

    def check(self, x: SmallX, out: dict) -> List[str]:
        inst, y, errs = x.inst, out["y"], []
        n, k = inst.n, inst.k
        allowed = set(inst.agents if inst.continuous_candidates else inst.candidates)
        if any(c not in allowed for c in y.centers):
            errs.append("a center is not a candidate")
        cands = None if inst.continuous_candidates else inst.candidates
        errs += check_audit(x.raw, inst.agents, list(y.centers), cands, k, out["beta_min"],
                            out["beta_witness"], out["s_max"], out["s_witness"],
                            out["in_core"], out["core_witness"])
        lam = ceil_div(n, k)
        bound = lam - 1 if x.kind in ("line", "tree") else 2 * lam + 1
        if not out["beta_min"] <= bound + BOUND_EPS:
            errs.append(f"beta_min={out['beta_min']} breaks the paper bound {bound}")
        if n <= self.ORACLE_N and x.index % (len(KINDS) * self.ORACLE_EVERY) < len(KINDS):
            if len(cc.deviation_candidates(inst, y)) <= self.ORACLE_DEVS:
                ref = cc.oracle_audit(inst, y, ALPHA, BETA)
                if (not scaled_close(ref.beta_min, out["beta_min"])
                        or ref.s_max != out["s_max"]):
                    errs.append(f"oracle gives beta_min={ref.beta_min}, s_max={ref.s_max}; "
                                f"fast audit {out['beta_min']}, {out['s_max']}")
        return errs

    def record(self, out: dict) -> dict:
        return {"centers": out["y"].centers, "beta_min": out["beta_min"],
                "s_max": out["s_max"], "in_core": out["in_core"],
                "witnesses": [out["beta_witness"], out["s_witness"], out["core_witness"]]}


WORKLOADS = {w.name: w for w in (GaussPipeline, AuditN2000, SmallVerify)}
