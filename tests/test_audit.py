"""Fairness audit: examples, oracle agreement, monotonicity, witnesses."""
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from coreclust.audit import (audit, coalition_size, deviation_candidates,
                             is_in_core, max_blocking_size, min_beta,
                             oracle_audit)
from coreclust.baselines import kmeans_pp, lloyd_kmedians
from coreclust.bench import (random_clustering, random_euclidean_instance,
                             random_matrix_instance, random_tree_instance)
from coreclust.errors import ParameterError, SizeLimitError, ValidationError
from coreclust.instance import (CONTINUOUS_LINE, Clustering, Instance,
                                gen_clique, gen_gaussian, gen_k4,
                                gen_kmedians_bad, gen_line_beta_lb)
from coreclust.metric import TOL, Space, cross_distances

# the package attribute `coreclust.audit` is the function; this is the module
audit_mod = importlib.import_module("coreclust.audit")


@pytest.fixture
def k4():
    return gen_k4()


@pytest.fixture
def k4_y(k4):
    return Clustering(centers=[0, 1])


def line_instance(agents, k, candidates=CONTINUOUS_LINE):
    return Instance(space=Space.line(), agents=[float(a) for a in agents],
                    candidates=candidates, k=k)


# ---------------------------------------------------------------------------
# coalition size
# ---------------------------------------------------------------------------

def test_coalition_size_examples(k4):
    assert coalition_size(k4, 1.0) == 2
    assert coalition_size(k4, 1.0001) == 3


def test_coalition_size_broom():
    from coreclust.instance import gen_broom_tree
    assert coalition_size(gen_broom_tree(), 1.0) == 8


def test_coalition_size_integer_guard():
    inst = line_instance(list(range(10)), k=5, candidates=[0.0])
    assert coalition_size(inst, 2.0) == 4  # exactly 4, not bumped to 5


def test_coalition_size_rejects_small_alpha(k4):
    with pytest.raises(ParameterError):
        coalition_size(k4, 0.5)


_PARAMETER_CALLS = {
    "coalition_size": lambda inst, y, v: coalition_size(inst, v),
    "min_beta": lambda inst, y, v: min_beta(inst, y, v),
    "max_blocking_size": lambda inst, y, v: max_blocking_size(inst, y, v),
    "is_in_core-alpha": lambda inst, y, v: is_in_core(inst, y, v, 1.0),
    "is_in_core-beta": lambda inst, y, v: is_in_core(inst, y, 1.0, v),
    "audit-alpha": lambda inst, y, v: audit(inst, y, alpha=v),
    "audit-beta": lambda inst, y, v: audit(inst, y, beta=v),
    "oracle_audit-alpha": lambda inst, y, v: oracle_audit(inst, y, alpha=v),
    "oracle_audit-beta": lambda inst, y, v: oracle_audit(inst, y, beta=v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(_PARAMETER_CALLS))
def test_nonfinite_parameters_rejected(k4, k4_y, call, bad):
    with pytest.raises(ParameterError):
        _PARAMETER_CALLS[call](k4, k4_y, bad)


# ---------------------------------------------------------------------------
# deviation candidates
# ---------------------------------------------------------------------------

def test_deviations_k4(k4, k4_y):
    assert deviation_candidates(k4, k4_y) == [2, 3]


def test_deviations_line_excludes_occupied():
    inst = gen_line_beta_lb(2)
    devs = deviation_candidates(inst, Clustering(centers=[1.0, 3.0]))
    assert devs == [2.0]


def test_deviations_empty_means_vacuous_core(k4):
    clustering = Clustering(centers=[0, 1])
    full = Instance(space=k4.space, agents=k4.agents, candidates=[0, 1], k=2)
    assert deviation_candidates(full, clustering) == []
    beta, witness = min_beta(full, clustering, 1.0)
    assert beta == 0.0 and witness is None


def test_deviations_exclude_colocated_duplicates():
    # two candidates share a location; using one bars deviating to the other
    pts = [(0.0, 0.0), (5.0, 0.0)]
    inst = Instance(space=Space.euclidean(2), agents=pts,
                    candidates=[(0.0, 0.0), (0.0, 0.0), (5.0, 0.0)], k=1)
    devs = deviation_candidates(inst, Clustering(centers=[(0.0, 0.0)]))
    assert devs == [(5.0, 0.0)]


# ---------------------------------------------------------------------------
# max blocking size
# ---------------------------------------------------------------------------

def test_max_blocking_size_k4_beta1(k4, k4_y):
    smax, witness = max_blocking_size(k4, k4_y, 1.0)
    assert smax == 2
    assert witness.coalition == [2, 3]
    assert witness.sum_to_Y == 2.0 and witness.sum_to_y_prime == 1.0


def test_max_blocking_size_k4_beta2(k4, k4_y):
    smax, witness = max_blocking_size(k4, k4_y, 2.0)
    assert smax == 0 and witness is None


def test_max_blocking_size_zero_when_covered():
    inst = line_instance([0, 1], k=2, candidates=[0.0, 1.0, 2.0])
    smax, _ = max_blocking_size(inst, Clustering(centers=[0.0, 1.0]), 1.0)
    assert smax == 0


# ---------------------------------------------------------------------------
# min beta
# ---------------------------------------------------------------------------

def test_min_beta_k4(k4, k4_y):
    beta, witness = min_beta(k4, k4_y, 1.0)
    assert beta == pytest.approx(2.0)
    assert witness.coalition == [2, 3] and witness.y_prime == 2


def test_min_beta_line_gadget():
    inst = gen_line_beta_lb(2)
    beta, witness = min_beta(inst, Clustering(centers=[1.0, 3.0]), 1.0)
    assert beta == pytest.approx(2.0)
    assert witness.sum_to_Y == pytest.approx(2.0)
    assert witness.sum_to_y_prime == pytest.approx(1.0)
    assert witness.y_prime == 2.0


def test_min_beta_infinite_on_kmedians_trap():
    from coreclust.baselines import lloyd_kmedians
    inst = gen_kmedians_bad(7)
    med = lloyd_kmedians(inst.agents, inst.k, seed=0)
    beta, witness = min_beta(inst, med, 1.0)
    assert math.isinf(beta)
    assert witness.y_prime == 0.0
    assert len(witness.coalition) == 7
    assert witness.sum_to_y_prime == 0.0 and witness.sum_to_Y == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# is_in_core
# ---------------------------------------------------------------------------

def test_is_in_core_k4_matrix(k4):
    for combo in itertools.combinations(range(4), 2):
        clustering = Clustering(centers=list(combo))
        assert is_in_core(k4, clustering, 1.5, 1.0)[0]
        ok, witness = is_in_core(k4, clustering, 1.0, 1.0)
        assert not ok and witness is not None
        assert is_in_core(k4, clustering, 1.0, 2.0)[0]


def test_in_core_everything_when_k_equals_n():
    inst = line_instance([0, 1, 2], k=3, candidates=[0.0, 1.0, 2.0])
    clustering = Clustering(centers=[0.0, 1.0, 2.0])
    for alpha in (1.0, 1.5, 3.0):
        for beta in (1.0, 2.0):
            assert is_in_core(inst, clustering, alpha, beta)[0]


def test_boundary_closed_at_beta_min(k4, k4_y):
    beta, _ = min_beta(k4, k4_y, 1.0)
    assert is_in_core(k4, k4_y, 1.0, beta)[0]
    assert not is_in_core(k4, k4_y, 1.0, beta - 1e-3)[0]


def test_mismatched_k_rejected(k4):
    with pytest.raises(ValidationError):
        audit(k4, Clustering(centers=[0, 1, 2]))


_CENTER_CALLS = {
    "audit": lambda inst, y: audit(inst, y),
    "min_beta": lambda inst, y: min_beta(inst, y, 1.0),
    "max_blocking_size": lambda inst, y: max_blocking_size(inst, y, 1.0),
    "is_in_core": lambda inst, y: is_in_core(inst, y, 1.0, 1.0),
    "oracle_audit": lambda inst, y: oracle_audit(inst, y),
    "deviation_candidates": lambda inst, y: deviation_candidates(inst, y),
}


@pytest.mark.parametrize("centers", [[0, 7], [0, -1], [0.5, 1], [0, 1.0]],
                         ids=["out-of-range", "negative", "fractional", "float"])
@pytest.mark.parametrize("call", sorted(_CENTER_CALLS))
def test_centers_outside_the_space_rejected(k4, call, centers):
    with pytest.raises(ValidationError):
        _CENTER_CALLS[call](k4, Clustering(centers=centers))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_line_center_rejected(bad):
    inst = line_instance([0, 1, 2, 3], k=2)
    with pytest.raises(ValidationError):
        audit(inst, Clustering(centers=[0.0, bad]))


# ---------------------------------------------------------------------------
# audit result
# ---------------------------------------------------------------------------

def test_audit_result_fields(k4, k4_y):
    res = audit(k4, k4_y, alpha=1.0, beta=1.0)
    assert res.beta_min == pytest.approx(2.0)
    assert res.s_max == 2
    assert res.alpha_sup == pytest.approx(1.0)
    assert not res.in_core


def test_audit_json_serialization(k4, k4_y):
    obj = audit(k4, k4_y).to_json()
    assert set(obj) >= {"alpha_query", "beta_query", "beta_min", "s_max",
                        "alpha_sup", "in_core", "witness"}
    assert obj["witness"]["coalition"] == [2, 3]
    inf_obj = audit(gen_kmedians_bad(7),
                    Clustering(centers=[1.0, 1e6, 2e6])).to_json()
    assert inf_obj["beta_min"] == "inf"


def test_audit_self_consistent_membership():
    rng = np.random.default_rng(0)
    from coreclust.bench import random_metric_instance
    for _ in range(20):
        inst = random_metric_instance(rng, n_max_euc=25, n_max_mat=20)
        clustering = random_clustering(rng, inst)
        res = audit(inst, clustering, alpha=1.0, beta=1.0)
        n, k = inst.n, inst.k
        if res.s_max >= coalition_size(inst, 1.0):
            above = res.alpha_sup + 1e-6
            assert is_in_core(inst, clustering, above, 1.0)[0]
            below = res.alpha_sup - 1e-6
            if below >= 1.0:
                assert not is_in_core(inst, clustering, below, 1.0)[0]


# ---------------------------------------------------------------------------
# witness consistency
# ---------------------------------------------------------------------------

def test_witness_sums_recompute():
    rng = np.random.default_rng(1)
    from coreclust.bench import random_metric_instance
    from coreclust.metric import cross_distances
    for _ in range(20):
        inst = random_metric_instance(rng, n_max_euc=25, n_max_mat=20)
        clustering = random_clustering(rng, inst)
        for witness in (min_beta(inst, clustering, 1.0)[1],
                        max_blocking_size(inst, clustering, 1.0)[1]):
            if witness is None:
                continue
            pts = [inst.agents[i] for i in witness.coalition]
            to_y = cross_distances(inst.space, pts,
                                   list(clustering.centers)).min(axis=1).sum()
            to_dev = cross_distances(inst.space, pts,
                                     [witness.y_prime]).sum()
            assert to_y == pytest.approx(witness.sum_to_Y, abs=1e-9)
            assert to_dev == pytest.approx(witness.sum_to_y_prime, abs=1e-9)


# ---------------------------------------------------------------------------
# top-s optimality and oracle agreement
# ---------------------------------------------------------------------------

def test_top_s_is_optimal_against_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        dY = rng.uniform(0, 5, size=n)
        dv = rng.uniform(0, 5, size=n)
        c = float(rng.uniform(0.5, 3.0))
        s = int(rng.integers(1, n + 1))
        gains = dY - c * dv
        top = np.sort(gains)[::-1][:s].sum()
        best = max(sum(gains[list(combo)])
                   for combo in itertools.combinations(range(n), s))
        assert top == pytest.approx(best)


def test_oracle_agreement_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        coords = [float(x) for x in rng.integers(0, 12, size=n)]
        inst = line_instance(coords, k=int(rng.integers(1, 4)),
                             candidates=sorted(set(coords)))
        if inst.k > inst.n:
            continue
        clustering = random_clustering(rng, inst)
        fast_beta, _ = min_beta(inst, clustering, 1.0)
        fast_smax, _ = max_blocking_size(inst, clustering, 1.0)
        res = oracle_audit(inst, clustering, alpha=1.0, beta=1.0)
        if math.isinf(fast_beta) or math.isinf(res.beta_min):
            assert math.isinf(fast_beta) == math.isinf(res.beta_min)
        else:
            assert fast_beta == pytest.approx(res.beta_min, rel=1e-7)
        assert fast_smax == res.s_max


def _oracle_instances(rng, make, count):
    out = []
    while len(out) < count:
        inst = make(rng)
        clustering = random_clustering(rng, inst)
        if len(deviation_candidates(inst, clustering)) <= 16:
            out.append((inst, clustering))
    return out


@pytest.mark.parametrize("kind,make", [
    ("tree", lambda rng: random_tree_instance(rng, n_max=10, v_max=10)),
    ("euclidean", lambda rng: random_euclidean_instance(rng, n_max=10)),
    ("matrix", lambda rng: random_matrix_instance(rng, n_max=10)),
])
def test_oracle_agreement_every_space_kind(kind, make):
    rng = np.random.default_rng(["tree", "euclidean", "matrix"].index(kind))
    for inst, clustering in _oracle_instances(rng, make, 15):
        for alpha, beta in ((1.0, 1.0), (1.3, 1.5)):
            if coalition_size(inst, alpha) > inst.n:
                continue
            fast = audit(inst, clustering, alpha=alpha, beta=beta)
            slow = oracle_audit(inst, clustering, alpha=alpha, beta=beta)
            if math.isinf(fast.beta_min) or math.isinf(slow.beta_min):
                assert math.isinf(fast.beta_min) == math.isinf(slow.beta_min)
            else:
                assert fast.beta_min == pytest.approx(slow.beta_min, rel=1e-7)
            assert fast.s_max == slow.s_max
            assert fast.in_core == slow.in_core


def test_oracle_size_limits():
    inst = line_instance(list(range(20)), k=2,
                         candidates=[float(i) for i in range(20)])
    with pytest.raises(SizeLimitError):
        oracle_audit(inst, Clustering(centers=[0.0, 1.0]))


def _loop_oracle_min_beta(ctx, alpha):
    s = coalition_size(ctx.inst, alpha)
    n = ctx.inst.n
    if s > n or ctx.m == 0:
        return 0.0, None
    best = -1.0
    best_pair = None
    for j in range(ctx.m):
        dv = ctx.DT[j]
        for combo in itertools.combinations(range(n), s):
            idx = list(combo)
            num = float(ctx.dY[idx].sum())
            den = float(dv[idx].sum())
            if den <= ctx.zero_tol:
                if num > TOL * max(1.0, num):
                    return math.inf, audit_mod._witness_from_column(ctx, j, idx)
                continue
            ratio = num / den
            if ratio > best:
                best = ratio
                best_pair = (j, idx)
    if best_pair is None:
        return 0.0, None
    return max(best, 0.0), audit_mod._witness_from_column(ctx, *best_pair)


def _loop_oracle_max_size(ctx, beta):
    n = ctx.inst.n
    s_min = coalition_size(ctx.inst, 1.0)
    if s_min > n or ctx.m == 0:
        return 0, None
    for size in range(n, s_min - 1, -1):
        for j in range(ctx.m):
            dv = ctx.DT[j]
            for combo in itertools.combinations(range(n), size):
                idx = list(combo)
                cy = float(ctx.dY[idx].sum())
                cd = beta * float(dv[idx].sum())
                if audit_mod._blocking_margin(np.asarray(cy), np.asarray(cd)):
                    return size, audit_mod._witness_from_column(ctx, j, idx)
    return 0, None


def _oracle_equivalence_cases():
    rng = np.random.default_rng(16)
    for _ in range(12):
        n = int(rng.integers(4, 13))
        coords = [float(x) for x in rng.integers(0, 5, size=n)]
        cands = CONTINUOUS_LINE if rng.random() < 0.3 else sorted(set(coords))
        inst = line_instance(coords, k=int(rng.integers(1, 4)), candidates=cands)
        yield "integer-line", inst, random_clustering(rng, inst)
    # three agents at a free point and two centers far away: an inf trap
    trap = line_instance([0, 0, 0, 9, 10, 10], k=2, candidates=[0.0, 9.0, 10.0])
    yield "line-trap", trap, Clustering(centers=[9.0, 10.0])
    yield "kmedians-trap", gen_kmedians_bad(3), Clustering(centers=[2.0, 1e6, 2e6])
    makers = [
        ("tree", lambda: random_tree_instance(rng, n_max=12, v_max=10)),
        ("unit-tree", lambda: random_tree_instance(rng, n_max=12, v_max=8,
                                                   unit_weights=True)),
        ("euclidean", lambda: random_euclidean_instance(rng, n_max=9)),
        ("matrix", lambda: random_matrix_instance(rng, n_max=9)),
    ]
    for label, make in makers:
        for inst, clustering in _oracle_instances(rng, lambda _: make(), 5):
            yield label, inst, clustering
    grid = [(float(x), float(y)) for x in range(3) for y in range(3)]
    grid_inst = Instance(space=Space.euclidean(2), agents=grid + grid[:1],
                         candidates=grid, k=3)
    yield "euclidean-grid-ties", grid_inst, random_clustering(rng, grid_inst)
    for n, k in ((6, 2), (10, 3)):
        base = gen_clique(n)
        inst = Instance(space=base.space, agents=base.agents,
                        candidates=base.candidates, k=k)
        yield "clique-ties", inst, random_clustering(rng, inst)
    # vertices 0-2 at zero distance from each other: zero denominators
    zero = np.ones((6, 6)) - np.eye(6)
    zero[:3, :3] = 0.0
    zinst = Instance(space=Space.from_matrix(zero), agents=[0, 0, 1, 2, 3, 4, 5],
                     candidates=list(range(6)), k=2)
    yield "matrix-zero-trap", zinst, Clustering(centers=[3, 4])
    line16 = line_instance([float(x) for x in rng.integers(0, 9, size=16)], k=4,
                           candidates=[float(x) for x in range(9)])
    yield "line-n16", line16, random_clustering(rng, line16)


def test_oracle_matches_loop_enumeration():
    """oracle_audit's array scan gives the values and witnesses of the
    plain per-coalition loop, ties and zero-denominator traps included."""
    seen = set()
    for label, inst, clustering in _oracle_equivalence_cases():
        ctx = audit_mod._AuditContext(inst, clustering)
        assert inst.n <= 16 and ctx.m <= 16, label
        # one query at n=16, where the loop takes about a second
        queries = ((1.0, 1.0), (1.5, 1.3), (2.0, 2.0))[:1 if inst.n > 12 else 3]
        for alpha, beta in queries:
            got = oracle_audit(inst, clustering, alpha=alpha, beta=beta)
            bmin, bwit = _loop_oracle_min_beta(ctx, alpha)
            smax, swit = _loop_oracle_max_size(ctx, beta)
            assert got.beta_min == bmin, label
            assert got.s_max == smax, label
            for a, b in ((got.beta_witness, bwit), (got.s_witness, swit)):
                assert (a is None) == (b is None), label
                if a is not None:
                    assert a.to_json() == b.to_json(), label
            if math.isinf(bmin):
                seen.add("inf")
        seen.add(label)
    assert {"inf", "line-n16", "matrix", "tree", "euclidean"} <= seen


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_beta_min_non_increasing_in_alpha():
    rng = np.random.default_rng(4)
    from coreclust.bench import random_metric_instance
    for _ in range(15):
        inst = random_metric_instance(rng, n_max_euc=20, n_max_mat=15)
        clustering = random_clustering(rng, inst)
        values = []
        for alpha in (1.0, 1.2, 1.5, 2.0):
            if coalition_size(inst, alpha) > inst.n:
                break
            values.append(min_beta(inst, clustering, alpha)[0])
        for a, b in zip(values, values[1:]):
            if math.isinf(a):
                continue
            assert b <= a + 1e-9


def test_s_max_non_increasing_in_beta():
    rng = np.random.default_rng(5)
    from coreclust.bench import random_metric_instance
    for _ in range(15):
        inst = random_metric_instance(rng, n_max_euc=20, n_max_mat=15)
        clustering = random_clustering(rng, inst)
        values = [max_blocking_size(inst, clustering, beta)[0]
                  for beta in (1.0, 1.5, 2.0, 4.0)]
        for a, b in zip(values, values[1:]):
            assert b <= a


def test_lemma_downward_closure():
    # a blocking coalition of any larger size implies one of the base size
    rng = np.random.default_rng(6)
    checks = 0
    while checks < 50:
        n = int(rng.integers(4, 10))
        coords = [float(x) for x in rng.integers(0, 12, size=n)]
        inst = line_instance(coords, k=int(rng.integers(1, 4)),
                             candidates=sorted(set(coords)))
        clustering = random_clustering(rng, inst)
        smin = coalition_size(inst, 1.0)
        for beta in (1.0, 1.25):
            smax, _ = max_blocking_size(inst, clustering, beta)
            if smax > smin:
                ok, _ = is_in_core(inst, clustering, 1.0, beta)
                assert not ok  # the base size must block too
                checks += 1
        checks += 1


# ---------------------------------------------------------------------------
# pruned engine against a full scan
# ---------------------------------------------------------------------------

def _full_scan_min_beta(ctx, s):
    """Dinkelbach on every deviation column, in index order."""
    best, witness = -1.0, None
    for j in range(ctx.m):
        value, idx = audit_mod._best_ratio_for_dev(ctx, j, s)
        if value > best:
            best, witness = value, audit_mod._witness_from_column(ctx, j, idx)
            if math.isinf(best):
                break
    return max(best, 0.0), witness


def _full_scan_max_blocking(ctx, beta):
    """Longest blocking prefix of the stably sorted gains of every column."""
    best_len, best = 0, None
    for j in range(ctx.m):
        order = np.argsort(-(ctx.dY - beta * ctx.DT[j]), kind="stable")
        cy = np.cumsum(ctx.dY[order])
        cd = beta * np.cumsum(ctx.DT[j][order])
        scale = np.maximum(1.0, np.maximum(np.abs(cy), np.abs(cd)))
        hits = np.flatnonzero(cy - cd > TOL * scale)
        length = int(hits[-1]) + 1 if hits.size else 0
        if length > best_len:
            best_len, best = length, (j, order[:length])
    if best_len < coalition_size(ctx.inst, 1.0):
        return 0, None
    return best_len, audit_mod._witness_from_column(ctx, *best)


def _brute_deviations(inst, clustering):
    """Candidates whose agent-distance profile matches no center's."""
    if inst.continuous_candidates:
        return [c for c in sorted({float(a) for a in inst.agents})
                if all(abs(c - float(y)) > TOL * max(1.0, abs(c))
                       for y in clustering.centers)]
    cands = list(inst.candidates)
    prof = cross_distances(inst.space, inst.agents, cands)
    cent = cross_distances(inst.space, inst.agents, list(clustering.centers))

    def same(a, b):
        return all(abs(x - y) <= TOL * max(1.0, abs(x), abs(y))
                   for x, y in zip(a, b))

    return [c for j, c in enumerate(cands)
            if not any(same(prof[:, j], cent[:, col])
                       for col in range(cent.shape[1]))]


def _pruning_cases():
    rng = np.random.default_rng(8)
    for seed in (0, 1):
        base = gen_gaussian(n=300, seed=seed)
        for k in (5, 10, 15):
            inst = Instance(space=base.space, agents=base.agents,
                            candidates=base.candidates, k=k)
            yield "gauss-kmeans", inst, kmeans_pp(inst.agents, k, seed=seed,
                                                  restarts=2, max_iter=20)
            yield "gauss-drawn", inst, random_clustering(rng, inst)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        coords = [float(x) for x in rng.integers(0, 6, size=n)]
        cands = CONTINUOUS_LINE if rng.random() < 0.3 else sorted(set(coords))
        inst = line_instance(coords, k=int(rng.integers(1, 5)), candidates=cands)
        yield "integer-line", inst, random_clustering(rng, inst)
    for n in (4, 6, 10):
        base = gen_clique(n)
        for k in (1, 2, 3):
            inst = Instance(space=base.space, agents=base.agents,
                            candidates=base.candidates, k=k)
            yield "clique", inst, random_clustering(rng, inst)
    trap = gen_kmedians_bad(7)
    yield "kmedians-trap", trap, lloyd_kmedians(trap.agents, trap.k, seed=0)
    # two agents within zero_tol of a deviation, next to a finite ratio far
    # above their own: the zero-distance coalition must still give inf
    near = line_instance([0.0, 0.0, 100.0, 100.0], k=2,
                         candidates=[1.0, 90.0, 0.9e-7, 100.0 + 2e-7])
    yield "near-zero-trap", near, Clustering(centers=[1.0, 90.0])


def test_used_candidates_on_a_clique_stay_in_bounded_memory():
    # On a unit clique the first agents are at distance 1 from nearly every
    # candidate and center, so nearly every (candidate, center) pair passes
    # the probe rows; one n x (passing pairs) array would take about 30 MB.
    inst = gen_clique(200)
    clustering = random_clustering(np.random.default_rng(3), inst)
    tracemalloc.start()
    try:
        devs = deviation_candidates(inst, clustering)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert devs == _brute_deviations(inst, clustering)
    assert len(devs) == inst.n - inst.k
    assert peak < 8e6


def test_pruned_engine_matches_full_scan():
    pruned = {}
    for name, inst, clustering in _pruning_cases():
        ctx = audit_mod._AuditContext(inst, clustering)
        assert ctx.devs == _brute_deviations(inst, clustering), name
        for alpha in (1.0, 1.5, 2.0):
            s = coalition_size(inst, alpha)
            if s > inst.n:
                continue
            got = audit_mod._min_beta(ctx, alpha)
            assert got == _full_scan_min_beta(ctx, s), (name, alpha)
            if name.startswith("gauss"):
                survivors = audit_mod._ratio_survivors(ctx, s)[0].size
                pruned[name] = pruned.get(name, 0) + ctx.m - survivors
        for beta in (1.0, 1.5, 2.0, 3.0):
            got = audit_mod._max_blocking_size(ctx, beta)
            assert got == _full_scan_max_blocking(ctx, beta), (name, beta)
        if name.endswith("trap"):
            assert math.isinf(audit_mod._min_beta(ctx, 1.0)[0])
    # the shortcut is exercised, not skipped
    assert pruned["gauss-kmeans"] > 0 and pruned["gauss-drawn"] > 0


def test_max_blocking_size_lone_longest_deviation():
    # 200 agents at 0 (distance 1 to the center at -1) and 30 at 7.9 (on
    # centers).  The deviation at 0 gains 1 on each of the 200 and pays 7.9
    # for each agent at 7.9, so it blocks with 200 + 25 agents; every other
    # deviation reaches at most 224.  It leads the first pruning round, and
    # 301 deviations x 230 agents keep the rounds going, so pruning at one
    # more than its exact length would lose the answer.
    cands = sorted([0.0] + [float(sign * x) for x in np.linspace(0.05, 0.5, 150)
                            for sign in (1, -1)])
    inst = line_instance([0.0] * 200 + [7.9] * 30, k=4, candidates=cands)
    clustering = Clustering(centers=[-1.0, 7.9, 7.9, 7.9])
    ctx = audit_mod._AuditContext(inst, clustering)
    assert ctx.m * inst.n > audit_mod._CHUNK ** 2
    lens = audit_mod._blocking_lengths(ctx, 1.0, np.arange(ctx.m))
    assert lens.max() == 225 and np.sum(lens == 225) == 1
    size, witness = max_blocking_size(inst, clustering, 1.0)
    assert (size, witness) == _full_scan_max_blocking(ctx, 1.0)
    assert size == 225 and witness.y_prime == 0.0
