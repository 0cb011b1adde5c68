"""Benchmark harness and worst-case verification suites.

Two jobs live here:

* run_comparison / run_bench -- run (dataset, algorithm, k) grids, audit
  both fairness dimensions of every output, record social costs and wall
  time, and emit CSV/JSON tables plus SVG cluster plots;
* verify_bounds -- randomized and exhaustive suites that exercise every
  proven guarantee and lower-bound construction at desk scale, reporting
  one pass/fail line per claim with violating instances serialized for
  replay.

Rows are independent jobs; per-row seeds derive from a stable hash of
(master seed, dataset, algorithm, k), so concurrent and sequential runs
produce identical tables.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import algorithms as alg
from . import baselines as base
from .audit import (audit as run_audit, coalition_size, is_in_core,
                    max_blocking_size, min_beta, oracle_audit, _AuditContext,
                    _oracle_best_ratio)
from .errors import CoreclustError, ParameterError, ValidationError
from .instance import (CONTINUOUS_LINE, Clustering, GENERATORS, Instance,
                       gen_broom_tree, gen_clique, gen_k4,
                       gen_kmedians_bad, gen_gaussian, gen_line_alpha_lb,
                       gen_line_beta_lb, instance_to_json, load_instance)
from .metric import EUCLIDEAN, LINE, Space

EPS = 1e-6


# ---------------------------------------------------------------------------
# random instance samplers (shared by suites and tests)
# ---------------------------------------------------------------------------

def _sample_nk(rng: np.random.Generator, n_max: int, n_min: int = 4,
               k_max: int = 10) -> Tuple[int, int]:
    n = int(rng.integers(n_min, n_max + 1))
    k = int(rng.integers(2, min(k_max, n) + 1))
    return n, k


def _line_lambdas_valid(n: int, k: int) -> bool:
    for lam in (alg.ceil_div(n, k), alg.ceil_div(n, k + 1)):
        if lam * (k - 1) > n:
            return False
    return True


def random_line_instance(rng: np.random.Generator, n_max: int = 60) -> Instance:
    """Random multiset of line agents with both quantile steps applicable."""
    while True:
        n, k = _sample_nk(rng, n_max)
        if _line_lambdas_valid(n, k):
            break
    if rng.random() < 0.5:
        coords = rng.integers(0, 50, size=n).astype(float)
    else:
        coords = np.round(rng.uniform(0, 100, size=n), 3)
    return Instance(space=Space.line(), agents=[float(c) for c in coords],
                    candidates=CONTINUOUS_LINE, k=k, label=f"rand-line-{n}-{k}")


def random_tree_instance(rng: np.random.Generator, n_max: int = 60,
                         v_max: int = 40, unit_weights: Optional[bool] = None
                         ) -> Instance:
    """Random tree (random parent links), agents as a random vertex multiset."""
    nv = int(rng.integers(2, v_max + 1))
    if unit_weights is None:
        unit_weights = bool(rng.random() < 0.5)
    edges = []
    for v in range(1, nv):
        u = int(rng.integers(0, v))
        w = 1.0 if unit_weights else float(np.round(rng.uniform(0.5, 3.0), 3))
        edges.append((u, v, w))
    space = Space.from_edges(edges)
    n = int(rng.integers(max(4, nv // 2), n_max + 1))
    k = int(rng.integers(2, min(10, n) + 1))
    agents = [int(v) for v in rng.integers(0, nv, size=n)]
    return Instance(space=space, agents=agents, candidates=list(range(nv)),
                    k=k, label=f"rand-tree-{nv}-{n}-{k}")


def random_euclidean_instance(rng: np.random.Generator, n_max: int = 60,
                              dim: int = 2) -> Instance:
    n, k = _sample_nk(rng, n_max, n_min=5)
    centers = rng.uniform(-10, 10, size=(3, dim))
    which = rng.integers(0, 3, size=n)
    pts = centers[which] + rng.standard_normal((n, dim)) * 2.0
    agents = [tuple(float(x) for x in p) for p in pts]
    cands = list(dict.fromkeys(agents))
    return Instance(space=Space.euclidean(dim), agents=agents, candidates=cands,
                    k=k, label=f"rand-euclidean-{n}-{k}")


def random_matrix_instance(rng: np.random.Generator, n_max: int = 40) -> Instance:
    """Random metric via shortest-path closure of a random symmetric matrix."""
    n, k = _sample_nk(rng, n_max)
    raw = rng.uniform(1.0, 10.0, size=(n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for mid in range(n):
        d = np.minimum(d, d[:, mid, None] + d[None, mid, :])
    space = Space.from_matrix(d, validate=False)
    return Instance(space=space, agents=list(range(n)),
                    candidates=list(range(n)), k=k, label=f"rand-matrix-{n}-{k}")


def random_metric_instance(rng: np.random.Generator, n_max_euc: int = 60,
                           n_max_mat: int = 40) -> Instance:
    if rng.random() < 0.5:
        return random_euclidean_instance(rng, n_max=n_max_euc)
    return random_matrix_instance(rng, n_max=n_max_mat)


def random_clustering(rng: np.random.Generator, inst: Instance) -> Clustering:
    """k distinct candidate locations (agent coordinates on the line)."""
    pool = inst.candidate_list()
    k = inst.k
    if len(pool) >= k:
        picks = rng.choice(len(pool), size=k, replace=False)
    else:
        picks = rng.integers(0, len(pool), size=k)
    return Clustering(centers=[pool[int(i)] for i in sorted(picks)])


# ---------------------------------------------------------------------------
# experiment rows
# ---------------------------------------------------------------------------

ROW_FIELDS = ["dataset", "algorithm", "k", "alpha_sup", "beta_min",
              "social_cost_kmeans", "social_cost_kmedians", "wall_time_ms",
              "seed", "error"]


@dataclass
class ExperimentRow:
    dataset: str
    algorithm: str
    k: int
    alpha_sup: float = 0.0
    beta_min: float = 0.0
    social_cost_kmeans: float = 0.0
    social_cost_kmedians: float = 0.0
    wall_time_ms: float = 0.0
    seed: int = 0
    error: Optional[str] = None

    def to_json(self) -> dict:
        out = {}
        for name in ROW_FIELDS:
            v = getattr(self, name)
            if isinstance(v, float) and math.isinf(v):
                v = "inf"
            out[name] = v
        return out

    @staticmethod
    def from_json(obj: dict) -> "ExperimentRow":
        kw = dict(obj)
        for key in ("alpha_sup", "beta_min", "social_cost_kmeans",
                    "social_cost_kmedians", "wall_time_ms"):
            if kw.get(key) == "inf":
                kw[key] = math.inf
        return ExperimentRow(**kw)


def derive_seed(master: int, dataset: str, algorithm: str, k: int) -> int:
    digest = hashlib.sha256(f"{master}|{dataset}|{algorithm}|{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_algorithm(inst: Instance, name: str, seed: int = 0) -> Clustering:
    """Run the algorithm registered under `name` (see alg.ALGORITHMS)."""
    if name not in alg.ALGORITHMS:
        raise ParameterError(f"unknown algorithm {name!r}")
    return alg.ALGORITHMS[name](inst, seed=seed)[0]


def _compute_row(args) -> Tuple[ExperimentRow, Optional[Clustering]]:
    """One grid cell: its row, and its clustering (None when the algorithm
    raised)."""
    inst, dataset, name, k, row_seed = args
    inst_k = inst.with_k(k)
    row = ExperimentRow(dataset=dataset, algorithm=name, k=k, seed=row_seed)
    clustering = None
    try:
        t0 = time.perf_counter()
        clustering = run_algorithm(inst_k, name, seed=row_seed)
        row.wall_time_ms = (time.perf_counter() - t0) * 1000.0
        result = run_audit(inst_k, clustering, alpha=1.0, beta=1.0)
        row.beta_min = result.beta_min
        row.alpha_sup = round(result.alpha_sup, 3)
        row.social_cost_kmeans = base.social_cost(inst_k, clustering, base.KMEANS)
        row.social_cost_kmedians = base.social_cost(inst_k, clustering, base.KMEDIANS)
    except CoreclustError as exc:
        row.error = str(exc)
    return row, clustering


def _grid(datasets: Sequence[Tuple[str, Instance]], algorithms: Sequence[str],
          ks: Sequence[int], seed: int) -> List[tuple]:
    return [(inst, label, name, k, derive_seed(seed, label, name, k))
            for label, inst in datasets for name in algorithms for k in ks]


def _run_cells(tasks: List[tuple], jobs: Optional[int]
               ) -> List[Tuple[ExperimentRow, Optional[Clustering]]]:
    if jobs is not None and jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_compute_row, tasks))
    return [_compute_row(t) for t in tasks]


def run_comparison(datasets: Sequence[Tuple[str, Instance]],
                   algorithms: Sequence[str], k_range: Iterable[int],
                   seed: int = 0, jobs: Optional[int] = None
                   ) -> List[ExperimentRow]:
    """One row per (dataset, algorithm, k): audits at alpha=1 / beta=1 plus
    both social costs.  Per-cell failures land in the row's error field."""
    tasks = _grid(datasets, algorithms, list(k_range), seed)
    return [row for row, _ in _run_cells(tasks, jobs)]


def emit_table(rows: Sequence[ExperimentRow], path: str, format: str = "csv") -> None:
    """Stable-ordered table; infinities serialize as the string 'inf'."""
    if format == "csv":
        import csv as _csv
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(ROW_FIELDS)
            for row in rows:
                obj = row.to_json()
                writer.writerow([obj[f] if obj[f] is not None else "" for f in ROW_FIELDS])
    elif format == "json":
        with open(path, "w") as fh:
            json.dump([r.to_json() for r in rows], fh, indent=1)
    else:
        raise ParameterError(f"unknown table format {format!r}")


def load_rows_json(path: str) -> List[ExperimentRow]:
    with open(path) as fh:
        return [ExperimentRow.from_json(obj) for obj in json.load(fh)]


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

CANVAS_W, CANVAS_H, MARGIN = 800, 600, 40

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78"]


def _star_points(cx: float, cy: float, r: float = 9.0) -> str:
    pts = []
    for i in range(10):
        rad = r if i % 2 == 0 else r * 0.45
        ang = -math.pi / 2 + i * math.pi / 5
        pts.append(f"{cx + rad * math.cos(ang):.2f},{cy + rad * math.sin(ang):.2f}")
    return " ".join(pts)


def render_clusters_svg(inst: Instance, clustering: Clustering, path: str,
                        assignment: Optional[np.ndarray] = None) -> None:
    """Scatter agents colored by nearest center, centers as stars.

    Only 2-D Euclidean instances and line instances (drawn as a strip) are
    supported; the canvas is fixed at 800x600 with a deterministic palette.
    """
    if inst.n == 0:
        raise ParameterError("nothing to draw: no agents")
    kind = inst.space.kind
    if kind == EUCLIDEAN and inst.space.dim != 2:
        raise ParameterError(f"can only draw 2-D euclidean data, got dim {inst.space.dim}")
    if kind not in (EUCLIDEAN, LINE):
        raise ParameterError(f"can only draw euclidean/line instances, got {kind}")
    if assignment is None:
        assignment = alg.assign_agents(inst, clustering)

    if kind == LINE:
        xys = [(float(a), 0.0) for a in inst.agents]
        cxys = [(float(c), 0.0) for c in clustering.centers]
    else:
        xys = [(float(a[0]), float(a[1])) for a in inst.agents]
        cxys = [(float(c[0]), float(c[1])) for c in clustering.centers]
    all_x = [p[0] for p in xys + cxys]
    all_y = [p[1] for p in xys + cxys]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def to_px(p):
        px = MARGIN + (p[0] - x0) / spanx * (CANVAS_W - 2 * MARGIN)
        py = CANVAS_H - MARGIN - (p[1] - y0) / spany * (CANVAS_H - 2 * MARGIN)
        return px, py

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
             f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
             f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>']
    for p, c in zip(xys, assignment):
        px, py = to_px(p)
        color = PALETTE[int(c) % len(PALETTE)]
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                     f'fill="{color}" fill-opacity="0.75"/>')
    for c in cxys:
        px, py = to_px(c)
        parts.append(f'<polygon points="{_star_points(px, py)}" '
                     f'fill="#d62728" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# bench orchestration
# ---------------------------------------------------------------------------

def _dataset_from_entry(entry, seed: int) -> Tuple[str, Instance]:
    if isinstance(entry, str):
        if entry.endswith((".json", ".csv", ".txt")):
            inst = load_instance(entry) if entry.endswith(".json") else \
                load_instance(entry, k=2)
            return inst.label or os.path.basename(entry), inst
        if entry in GENERATORS:
            inst = GENERATORS[entry]()
            return inst.label, inst
        raise ValidationError(f"unknown dataset entry {entry!r}")
    name = entry.get("name")
    params = dict(entry.get("params", {}))
    if name == "gaussian" and "seed" not in params:
        params["seed"] = seed
    if name not in GENERATORS:
        raise ValidationError(f"unknown dataset generator {name!r}")
    inst = GENERATORS[name](**params)
    label = entry.get("label", inst.label)
    return label, inst


def run_bench(config: dict, outdir: str, jobs: Optional[int] = None) -> List[ExperimentRow]:
    """Run a bench config and write rows.csv / rows.json / plots / report.txt."""
    seed = int(config.get("seed", 0))
    datasets = [_dataset_from_entry(s, seed) for s in config["datasets"]]
    algorithms = list(config["algorithms"])
    lo, hi = config["k_range"]
    ks = list(range(int(lo), int(hi) + 1))
    tasks = _grid(datasets, algorithms, ks, seed)
    cells = _run_cells(tasks, jobs)
    rows = [row for row, _ in cells]

    os.makedirs(outdir, exist_ok=True)
    plots_dir = os.path.join(outdir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    emit_table(rows, os.path.join(outdir, "rows.csv"), "csv")
    emit_table(rows, os.path.join(outdir, "rows.json"), "json")

    for (inst, label, name, k, _), (_, clustering) in zip(tasks, cells):
        if clustering is None or inst.space.kind not in (EUCLIDEAN, LINE):
            continue
        if inst.space.kind == EUCLIDEAN and inst.space.dim != 2:
            continue
        try:
            render_clusters_svg(inst.with_k(k), clustering,
                                os.path.join(plots_dir, f"{label}_{name}_k{k}.svg"))
        except CoreclustError:
            continue

    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(_report_text(rows))
    return rows


def _report_text(rows: Sequence[ExperimentRow]) -> str:
    lines = ["dataset / algorithm / k : alpha_sup beta_min cost_kmeans cost_kmedians ms"]
    for r in rows:
        if r.error:
            lines.append(f"{r.dataset} / {r.algorithm} / k={r.k} : ERROR {r.error}")
        else:
            b = "inf" if math.isinf(r.beta_min) else f"{r.beta_min:.4f}"
            lines.append(
                f"{r.dataset} / {r.algorithm} / k={r.k} : {r.alpha_sup:.3f} {b} "
                f"{r.social_cost_kmeans:.2f} {r.social_cost_kmedians:.2f} "
                f"{r.wall_time_ms:.1f}")
    by_ds: Dict[str, List[ExperimentRow]] = {}
    for r in rows:
        by_ds.setdefault(r.dataset, []).append(r)
    for ds, rs in by_ds.items():
        algs = sorted({r.algorithm for r in rs})
        ref = next((a for a in algs if a.startswith("refined")), None)
        bas = next((a for a in algs if a in ("kmeans", "kmedians")), None)
        if ref and bas:
            wins_a = wins_b = total = 0
            for k in sorted({r.k for r in rs}):
                rr = next((r for r in rs if r.algorithm == ref and r.k == k), None)
                rb = next((r for r in rs if r.algorithm == bas and r.k == k), None)
                if not rr or not rb or rr.error or rb.error:
                    continue
                total += 1
                wins_a += rr.alpha_sup <= rb.alpha_sup
                wins_b += rr.beta_min <= rb.beta_min
            if total:
                lines.append(f"[{ds}] {ref} weakly-better vs {bas}: "
                             f"alpha {wins_a}/{total}, beta {wins_b}/{total}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: List[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"[{status}] {self.name}: {self.checks} checks, "
                f"{len(self.failures)} failures, {self.elapsed_s:.1f}s{extra}")


def _fail(inst: Instance, clustering: Clustering, check: str, value, bound) -> dict:
    return {
        "check": check,
        "value": "inf" if isinstance(value, float) and math.isinf(value) else value,
        "bound": bound,
        "instance": instance_to_json(inst),
        "centers": [c if not isinstance(c, tuple) else list(c)
                    for c in clustering.centers],
    }


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: List[dict] = []
        self.t0 = time.perf_counter()

    def expect(self, ok: bool, inst: Instance, clustering: Clustering,
               check: str, value, bound) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(_fail(inst, clustering, check, value, bound))

    def result(self, detail: str = "") -> SuiteResult:
        return SuiteResult(name=self.name, passed=not self.failures,
                           checks=self.checks, failures=self.failures,
                           elapsed_s=time.perf_counter() - self.t0,
                           detail=detail)


def suite_greedy_beta_bound(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Greedy ball output is always in the (1, 2*ceil(n/k)+1)-core."""
    s = _Suite("greedy-beta-bound")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        inst = random_euclidean_instance(rng) if t % 2 == 0 else \
            random_matrix_instance(rng)
        clustering, _ = alg.alg_greedy_ball(inst)
        bound = 2 * alg.ceil_div(inst.n, inst.k) + 1
        beta, _ = min_beta(inst, clustering, 1.0)
        s.expect(beta <= bound + EPS, inst, clustering,
                 "beta_min <= 2*ceil(n/k)+1", beta, bound)
    return s.result()


def _quantile_beta_bound(name: str, sampler: Callable[..., Instance],
                         place: Callable[[Instance, int], Clustering],
                         trials: int = 200, seed: int = 0) -> SuiteResult:
    """Quantile placement (alg_line on the line, alg_tree on trees): beta
    bounds for both quantile steps."""
    s = _Suite(name)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        inst = sampler(rng)
        n, k = inst.n, inst.k
        y1 = place(inst, alg.ceil_div(n, k))
        b1, _ = min_beta(inst, y1, 1.0)
        s.expect(b1 <= alg.ceil_div(n, k) - 1 + EPS, inst, y1,
                 f"{place.__name__}(ceil(n/k)): beta_min <= ceil(n/k)-1", b1,
                 alg.ceil_div(n, k) - 1)
        y2 = place(inst, alg.ceil_div(n, k + 1))
        b2, _ = min_beta(inst, y2, 1.0)
        s.expect(b2 <= k + EPS, inst, y2,
                 f"{place.__name__}(ceil(n/(k+1))): beta_min <= k", b2, k)
    return s.result()


def _quantile_two_one_core(name: str, sampler: Callable[..., Instance],
                           place: Callable[[Instance, int], Clustering],
                           trials: int = 200, seed: int = 0) -> SuiteResult:
    """Quantile placement with step ceil(n/k) blocks no coalition of 2n/k."""
    s = _Suite(name)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        inst = sampler(rng)
        clustering = place(inst, alg.ceil_div(inst.n, inst.k))
        smax, _ = max_blocking_size(inst, clustering, 1.0)
        s.expect(smax < 2 * inst.n / inst.k, inst, clustering,
                 "s_max(beta=1) < 2n/k", smax, 2 * inst.n / inst.k)
    return s.result()


TRADEOFF_ALPHAS_LT = (1.1, 1.25, 1.5, 2.0)


def suite_line_tree_tradeoff(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Line/tree outputs are in the (alpha, max(1, 1/(alpha-1)))-core."""
    s = _Suite("line-tree-tradeoff")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        inst = random_line_instance(rng) if t % 2 == 0 else random_tree_instance(rng)
        lam = alg.ceil_div(inst.n, inst.k)
        clustering = alg.alg_line(inst, lam) if inst.space.kind == LINE else \
            alg.alg_tree(inst, lam)
        for alpha in TRADEOFF_ALPHAS_LT:
            beta = max(1.0, 1.0 / (alpha - 1.0)) + EPS
            ok, _ = is_in_core(inst, clustering, alpha, beta)
            s.expect(ok, inst, clustering,
                     f"in ({alpha}, max(1,1/(alpha-1)))-core", False, beta)
    return s.result()


TRADEOFF_ALPHAS_GEN = (1.5, 2.0, 3.0)


def suite_greedy_tradeoff(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Greedy ball output is in the (alpha, max(4, 2/(alpha-1)+3))-core."""
    s = _Suite("greedy-tradeoff")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        inst = random_euclidean_instance(rng) if t % 2 == 0 else \
            random_matrix_instance(rng)
        clustering, _ = alg.alg_greedy_ball(inst)
        for alpha in TRADEOFF_ALPHAS_GEN:
            beta = max(4.0, 2.0 / (alpha - 1.0) + 3.0) + EPS
            ok, _ = is_in_core(inst, clustering, alpha, beta)
            s.expect(ok, inst, clustering,
                     f"in ({alpha}, max(4,2/(alpha-1)+3))-core", False, beta)
    return s.result()


def suite_mst_two_core(trials: int = 100, seed: int = 0) -> SuiteResult:
    """MST vertex-cover placement is in the (1, 2)-core when k >= n/2."""
    s = _Suite("mst-two-core")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        while True:
            inst = random_euclidean_instance(rng, n_max=40) if t % 2 == 0 else \
                random_matrix_instance(rng, n_max=40)
            if inst.n >= 4:
                break
        k = int(rng.integers(alg.ceil_div(inst.n, 2), inst.n - 1))
        inst = inst.with_k(k)
        clustering = alg.alg_mst_cover(inst)
        beta, _ = min_beta(inst, clustering, 1.0)
        s.expect(beta <= 2.0 + EPS, inst, clustering, "beta_min <= 2", beta, 2.0)
    return s.result()


def suite_opt_core(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Total-distance minimizers at k=1 and k=n-1 are exact core members."""
    s = _Suite("opt-core")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = int(rng.integers(2, 9))
        kind = t % 3
        if kind == 0:
            coords = [float(x) for x in rng.integers(0, 20, size=n)]
            inst0 = Instance(space=Space.line(), agents=coords,
                             candidates=sorted(set(coords)), k=1,
                             label=f"opt-core-line-{t}")
        elif kind == 1:
            pts = [tuple(float(x) for x in rng.uniform(-5, 5, size=2))
                   for _ in range(n)]
            inst0 = Instance(space=Space.euclidean(2), agents=pts,
                             candidates=list(dict.fromkeys(pts)), k=1,
                             label=f"opt-core-euc-{t}")
        else:
            inst0 = random_matrix_instance(rng, n_max=8).with_k(1)
            n = inst0.n
        for k in {1, max(1, n - 1)}:
            inst = inst0.with_k(k)
            clustering = alg.optimal_total_distance(inst)
            smax, _ = max_blocking_size(inst, clustering, 1.0)
            ok = smax == 0
            s.expect(ok, inst, clustering, "no blocking at alpha=beta=1",
                     smax, 0)
            oracle = oracle_audit(inst, clustering, alpha=1.0, beta=1.0)
            s.expect(oracle.s_max == smax, inst, clustering,
                     "oracle agrees on s_max", smax, oracle.s_max)
    return s.result()


def suite_k4_empty(trials: int = 0, seed: int = 0) -> SuiteResult:
    """Exhaustive K4 check: exact core empty; relaxation in either
    dimension immediately non-empty."""
    import itertools
    s = _Suite("k4-empty")
    inst = gen_k4()
    for combo in itertools.combinations(range(4), 2):
        clustering = Clustering(centers=list(combo))
        in11, _ = is_in_core(inst, clustering, 1.0, 1.0)
        s.expect(not in11, inst, clustering, "not in (1,1)-core", in11, False)
        in12, _ = is_in_core(inst, clustering, 1.0, 2.0)
        s.expect(in12, inst, clustering, "in (1,2)-core", in12, True)
        ina1, _ = is_in_core(inst, clustering, 1.01, 1.0)
        s.expect(ina1, inst, clustering, "in (1.01,1)-core", ina1, True)
        beta, _ = min_beta(inst, clustering, 1.0)
        s.expect(abs(beta - 2.0) <= EPS, inst, clustering, "beta_min == 2",
                 beta, 2.0)
    return s.result()


def suite_line_beta_lb(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Line lower bound: every clustering of the k=6 gadget has
    beta_min >= k/2 = 3."""
    s = _Suite("line-beta-lb")
    inst = gen_line_beta_lb(6)
    rng = np.random.default_rng(seed)
    outputs = [alg.alg_line(inst, alg.ceil_div(inst.n, inst.k)),
               alg.alg_line(inst, alg.ceil_div(inst.n, inst.k + 1))]
    for i in range(trials):
        outputs.append(random_clustering(rng, inst))
    for clustering in outputs:
        beta, _ = min_beta(inst, clustering, 1.0)
        s.expect(beta >= 3.0 - EPS, inst, clustering, "beta_min >= k/2", beta, 3.0)
    return s.result()


def suite_line_alpha_lb(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Coalition-size lower bound: the C=10 gadget always blocks with
    2C-3 = 17 agents at beta=1, so alpha_sup >= 1.7."""
    s = _Suite("line-alpha-lb")
    inst = gen_line_alpha_lb(10)
    rng = np.random.default_rng(seed)
    for i in range(trials):
        clustering = random_clustering(rng, inst)
        smax, _ = max_blocking_size(inst, clustering, 1.0)
        s.expect(smax >= 17, inst, clustering, "s_max >= 2C-3", smax, 17)
        s.expect(inst.k * smax / inst.n >= 1.7 - EPS, inst, clustering,
                 "alpha_sup >= 2-3/C", inst.k * smax / inst.n, 1.7)
    return s.result()


def suite_clique_lb(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Unit clique on 10 vertices: every clustering has a blocking
    coalition of size k = 5 at beta=1."""
    s = _Suite("clique-lb")
    inst = gen_clique(10)
    rng = np.random.default_rng(seed)
    outputs = [alg.alg_greedy_ball(inst)[0], alg.alg_mst_cover(inst)]
    for i in range(trials):
        outputs.append(random_clustering(rng, inst))
    for clustering in outputs:
        smax, _ = max_blocking_size(inst, clustering, 1.0)
        s.expect(smax >= inst.k, inst, clustering, "s_max >= k", smax, inst.k)
        s.expect(inst.k * smax / inst.n >= inst.k / 2 - EPS, inst, clustering,
                 "alpha_sup >= k/2", inst.k * smax / inst.n, inst.k / 2)
    return s.result()


def suite_broom_tree_lb(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Unit broom tree: sampled clusterings stay outside the
    (1, 14/13)-core and always block with 8 agents at beta=1."""
    s = _Suite("broom-tree-lb")
    inst = gen_broom_tree()
    floor = 14.0 / 13.0
    rng = np.random.default_rng(seed)
    outputs = [alg.alg_tree(inst, alg.ceil_div(inst.n, inst.k))]
    for i in range(trials):
        outputs.append(random_clustering(rng, inst))
    for clustering in outputs:
        beta, _ = min_beta(inst, clustering, 1.0)
        s.expect(beta >= floor - EPS, inst, clustering, "beta_min >= 14/13",
                 beta, floor)
        smax, _ = max_blocking_size(inst, clustering, 1.0)
        s.expect(smax >= 8, inst, clustering, "size-8 blocking coalition",
                 smax, 8)
    return s.result()


def suite_kmedians_unfair(trials: int = 0, seed: int = 0) -> SuiteResult:
    """Total-distance k-medians is infinitely unfair on the far-groups
    gadget; the greedy ball procedure stays within its guarantee."""
    s = _Suite("kmedians-unfair")
    inst = gen_kmedians_bad(7)
    med = base.lloyd_kmedians(inst.agents, inst.k, seed=seed)
    beta, _ = min_beta(inst, med, 1.0)
    s.expect(math.isinf(beta), inst, med, "lloyd_kmedians beta_min == inf",
             beta, "inf")
    greedy, _ = alg.alg_greedy_ball(inst)
    bg, _ = min_beta(inst, greedy, 1.0)
    s.expect(bg <= 15.0 + EPS, inst, greedy, "greedy beta_min <= 2m+1", bg, 15.0)
    return s.result()


def suite_oracle(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Fast audit vs. exhaustive oracle on small instances, plus the
    size-monotonicity of best coalition ratios."""
    import itertools
    s = _Suite("oracle")
    rng = np.random.default_rng(seed)

    pool: List[Tuple[Instance, Clustering]] = []
    k4 = gen_k4()
    for combo in itertools.combinations(range(4), 2):
        pool.append((k4, Clustering(centers=list(combo))))
    lb2 = gen_line_beta_lb(2)
    for _ in range(20):
        pool.append((lb2, random_clustering(rng, lb2)))
    c8 = gen_clique(8)
    for _ in range(10):
        pool.append((c8, random_clustering(rng, c8)))
    c10 = gen_clique(10)
    for _ in range(6):
        pool.append((c10, random_clustering(rng, c10)))
    for _ in range(30):
        n = int(rng.integers(4, 13))
        coords = [float(x) for x in rng.integers(0, 15, size=n)]
        inst = Instance(space=Space.line(), agents=coords,
                        candidates=sorted(set(coords)),
                        k=int(rng.integers(1, min(4, n) + 1)),
                        label="oracle-rand")
        pool.append((inst, random_clustering(rng, inst)))

    for inst, clustering in pool:
        fast_beta, _ = min_beta(inst, clustering, 1.0)
        fast_smax, _ = max_blocking_size(inst, clustering, 1.0)
        oracle = oracle_audit(inst, clustering, alpha=1.0, beta=1.0)
        if math.isinf(fast_beta) or math.isinf(oracle.beta_min):
            agree = math.isinf(fast_beta) and math.isinf(oracle.beta_min)
        else:
            agree = abs(fast_beta - oracle.beta_min) <= \
                1e-7 * max(1.0, fast_beta, oracle.beta_min)
        s.expect(agree, inst, clustering, "min_beta vs oracle",
                 fast_beta, oracle.beta_min)
        s.expect(fast_smax == oracle.s_max, inst, clustering,
                 "max_blocking_size vs oracle", fast_smax, oracle.s_max)

    # downward closure: the best size-s ratio never improves as s grows
    done = 0
    while done < trials:
        n = int(rng.integers(4, 10))
        coords = [float(x) for x in rng.integers(0, 12, size=n)]
        inst = Instance(space=Space.line(), agents=coords,
                        candidates=sorted(set(coords)),
                        k=int(rng.integers(1, min(4, n) + 1)), label="lemma-rand")
        clustering = random_clustering(rng, inst)
        ctx = _AuditContext(inst, clustering)
        if ctx.m == 0:
            continue
        col = int(rng.integers(0, ctx.m))
        smin = coalition_size(inst, 1.0)
        ratios = [max(_oracle_best_ratio(ctx, size, [col])[0], 0.0)
                  for size in range(smin, n + 1)]
        ok = all(ratios[i] >= ratios[i + 1] - 1e-9 for i in range(len(ratios) - 1))
        s.expect(ok, inst, clustering, "best ratio non-increasing in size",
                 [r if not math.isinf(r) else "inf" for r in ratios], "monotone")
        done += 1
    return s.result()


def suite_gaussian(trials: int = 0, seed: int = 0) -> SuiteResult:
    """Synthetic mixture comparison: the refined two-stage procedure is
    weakly fairer than k-means++ on at least 7 of the 10 k values in both
    fairness dimensions, at social cost within 2x."""
    s = _Suite("gaussian")
    inst = gen_gaussian(n=1000, weights=(0.2, 0.3, 0.5), seed=seed)
    wins_alpha = wins_beta = 0
    ks = list(range(8, 18))
    ratios = []
    refined = None
    for k in ks:
        inst_k = inst.with_k(k)
        refined, _ = alg.alg_refined(inst_k, base.KMEANS, seed=seed)
        km = base.kmeans_pp(inst_k.agents, k, seed=seed)
        a_r = run_audit(inst_k, refined, alpha=1.0, beta=1.0)
        a_k = run_audit(inst_k, km, alpha=1.0, beta=1.0)
        wins_alpha += a_r.alpha_sup <= a_k.alpha_sup + 1e-12
        wins_beta += a_r.beta_min <= a_k.beta_min + 1e-12
        cost_ratio = (base.social_cost(inst_k, refined, base.KMEANS) /
                      base.social_cost(inst_k, km, base.KMEANS))
        ratios.append(cost_ratio)
        s.expect(cost_ratio <= 2.0, inst_k, refined,
                 f"k={k}: social-cost ratio <= 2", round(cost_ratio, 4), 2.0)
    last = inst.with_k(ks[-1])
    s.expect(wins_alpha >= 7, last, refined,
             "alpha weakly lower on >= 7/10 k", wins_alpha, 7)
    s.expect(wins_beta >= 7, last, refined,
             "beta weakly lower on >= 7/10 k", wins_beta, 7)
    return s.result(detail=f"alpha {wins_alpha}/10, beta {wins_beta}/10, "
                           f"max cost ratio {max(ratios):.3f}")


SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "greedy-beta-bound": suite_greedy_beta_bound,
    "line-beta-bound": partial(_quantile_beta_bound, "line-beta-bound",
                               random_line_instance, alg.alg_line),
    "tree-beta-bound": partial(_quantile_beta_bound, "tree-beta-bound",
                               random_tree_instance, alg.alg_tree),
    "line-two-one-core": partial(_quantile_two_one_core, "line-two-one-core",
                                 random_line_instance, alg.alg_line),
    "tree-two-one-core": partial(_quantile_two_one_core, "tree-two-one-core",
                                 random_tree_instance, alg.alg_tree),
    "line-tree-tradeoff": suite_line_tree_tradeoff,
    "greedy-tradeoff": suite_greedy_tradeoff,
    "mst-two-core": suite_mst_two_core,
    "opt-core": suite_opt_core,
    "k4-empty": suite_k4_empty,
    "line-beta-lb": suite_line_beta_lb,
    "line-alpha-lb": suite_line_alpha_lb,
    "clique-lb": suite_clique_lb,
    "broom-tree-lb": suite_broom_tree_lb,
    "kmedians-unfair": suite_kmedians_unfair,
    "oracle": suite_oracle,
    "gaussian": suite_gaussian,
}


def verify_bounds(suite: str = "all", trials: Optional[int] = None,
                  seed: int = 0, jobs: Optional[int] = None) -> List[SuiteResult]:
    """Run one named suite or all of them; each returns a pass/fail report."""
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise ParameterError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    results = []
    if jobs is not None and jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_run_suite, name, trials, seed) for name in names]
            results = [f.result() for f in futs]
    else:
        for name in names:
            results.append(_run_suite(name, trials, seed))
    return results


def _run_suite(name: str, trials: Optional[int], seed: int) -> SuiteResult:
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    return fn(trials=trials, seed=seed)
