"""greedy_fill and medoid_opt seeding against the loops they replaced.

Both now run baselines._forward_select.  The references below are the
earlier forms, written into the test: greedy_fill rebuilt its mask of
allowed candidates from a set of hashed locations at every step, and
medoid_opt seeded with an unmasked argmin loop.  Instances draw agents,
candidates and partial center lists from a few locations, so duplicate
locations (and 1 / 1.0 on the line) are common on every space kind.

alg_greedy_ball tops its natural centers up from the table it already
holds; the last two tests hold that fill to greedy_fill of those centers.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreclust.algorithms import alg_greedy_ball, greedy_fill
from coreclust.baselines import OBJECTIVES, _swap_improve, medoid_opt, point_costs
from coreclust.instance import CONTINUOUS_LINE, Instance
from coreclust.metric import Space, cross_distances


def _ref_hashable(p):
    if isinstance(p, tuple):
        return tuple(float(x) for x in p)
    if isinstance(p, (int, np.integer)):
        return int(p)
    return float(p)


def _ref_candidates(inst):
    if inst.continuous_candidates:
        return sorted({float(a) for a in inst.agents})
    return list(inst.candidates)


def _ref_greedy_fill(inst, centers):
    cands = _ref_candidates(inst)
    need = inst.k - len(centers)
    if need <= 0:
        return list(centers)
    D = cross_distances(inst.space, inst.agents, cands)
    if centers:
        cur = cross_distances(inst.space, inst.agents, centers).min(axis=1)
    else:
        cur = np.full(inst.n, math.inf)
    chosen = {_ref_hashable(c) for c in centers}
    out = list(centers)
    for _ in range(need):
        costs = np.minimum(cur[:, None], D).sum(axis=0)
        allowed = np.array([_ref_hashable(c) not in chosen for c in cands])
        if allowed.any():
            j = int(np.argmin(np.where(allowed, costs, math.inf)))
        else:
            j = 0
        out.append(cands[j])
        chosen.add(_ref_hashable(cands[j]))
        cur = np.minimum(cur, D[:, j])
    return out


def _ref_medoid_opt(inst, subset, k_i, obj):
    cands = _ref_candidates(inst)
    C = point_costs(inst, [inst.agents[i] for i in subset], cands, obj)
    chosen = []
    cur = np.full(len(subset), math.inf)
    for _ in range(min(k_i, C.shape[1])):
        totals = np.minimum(cur[:, None], C).sum(axis=0)
        j = int(np.argmin(totals))
        chosen.append(j)
        cur = np.minimum(cur, C[:, j])
    while len(chosen) < k_i:
        chosen.append(chosen[0])
    if k_i >= 2:
        chosen = _swap_improve(C, chosen)
    return [cands[j] for j in chosen]


def _typed(points):
    """Points with their Python types, so that 1 and 1.0 differ."""
    return [(type(p).__name__, p) for p in points]


@st.composite
def _space_and_pool(draw):
    """A space, agent locations, and a pool of candidate spellings (a line
    location may be spelled as an int and as a float)."""
    kind = draw(st.sampled_from(["line", "continuous", "tree", "euclidean", "matrix"]))
    if kind in ("line", "continuous"):
        locs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
        return kind, Space.line(), [float(x) for x in locs], locs + [float(x) for x in locs]
    if kind == "euclidean":
        coord = st.integers(-2, 2).map(float)
        locs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
        return kind, Space.euclidean(2), locs, locs + [(9.0, 9.0)]
    nv = draw(st.integers(2, 7))
    if kind == "tree":
        edges = [(draw(st.integers(0, v - 1)), v, draw(st.sampled_from([0.5, 1.0, 2.0])))
                 for v in range(1, nv)]
        space = Space.from_edges(edges)
    else:
        raw = np.asarray(draw(st.lists(st.integers(1, 4), min_size=nv * nv,
                                       max_size=nv * nv)), dtype=float).reshape(nv, nv)
        d = raw + raw.T
        np.fill_diagonal(d, 0.0)
        for mid in range(nv):
            d = np.minimum(d, d[:, mid, None] + d[None, mid, :])
        space = Space.from_matrix(d, validate=False)
    locs = draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=5))
    return kind, space, locs, list(range(nv))


@st.composite
def fill_cases(draw):
    """An instance and a partial center list (possibly off the candidates)."""
    kind, space, locs, pool = draw(_space_and_pool())
    agents = draw(st.lists(st.sampled_from(locs), min_size=1, max_size=10))
    if kind == "continuous":
        cands = CONTINUOUS_LINE
    else:
        cands = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    k = draw(st.integers(1, len(agents)))
    centers = draw(st.lists(st.sampled_from(pool), max_size=k - 1))
    return Instance(space=space, agents=agents, candidates=cands, k=k), centers


_LINE = Space.line()


@settings(max_examples=400)
@given(fill_cases())
# 1 and 1.0 name one location: after 1.0 is taken, no more picks are allowed
@example((Instance(space=_LINE, agents=[0.0, 1.0, 1.0, 5.0], candidates=[1, 1.0, 0.0],
                   k=4), [0.0]))
# a center outside the candidates excludes none of them
@example((Instance(space=_LINE, agents=[0.0, 2.0, 2.0], candidates=[2.0, 2, 0], k=3),
          [7.5]))
def test_greedy_fill_matches_hashed_set_loop(case):
    inst, centers = case
    assert _typed(greedy_fill(inst, centers)) == _typed(_ref_greedy_fill(inst, centers))


@settings(max_examples=300)
@given(fill_cases(), st.data())
def test_medoid_opt_matches_seeding_loop(case, data):
    inst, _ = case
    subset = data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1,
                                max_size=inst.n, unique=True))
    k_i = data.draw(st.integers(1, 4))
    obj = data.draw(st.sampled_from(OBJECTIVES))
    assert (_typed(medoid_opt(inst, subset, k_i, obj))
            == _typed(_ref_medoid_opt(inst, subset, k_i, obj)))


@st.composite
def ball_cases(draw):
    """An instance with finite candidates, drawn as for the fill cases."""
    kind, space, locs, pool = draw(_space_and_pool().filter(lambda c: c[0] != "continuous"))
    agents = draw(st.lists(st.sampled_from(locs), min_size=1, max_size=10))
    cands = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    k = draw(st.integers(1, len(agents)))
    return Instance(space=space, agents=agents, candidates=cands, k=k)


@settings(max_examples=300)
@given(ball_cases())
def test_greedy_ball_fill_is_greedy_fill_of_natural_centers(inst):
    natural = alg_greedy_ball(inst, fill=False)[0].centers
    assert (_typed(alg_greedy_ball(inst)[0].centers)
            == _typed(greedy_fill(inst, natural)))


def test_greedy_ball_fill_sums_like_greedy_fill_at_scale():
    # Past a few agents, a candidate's column sums in a different order when
    # the table is not agent-major in memory, and the fill may pick another.
    rng = np.random.default_rng(11)
    agents = [tuple(p) for p in rng.normal(0.0, 1.0, size=(400, 2)).tolist()]
    inst = Instance(space=Space.euclidean(2), agents=agents, candidates=agents, k=120)
    natural = alg_greedy_ball(inst, fill=False)[0].centers
    assert len(natural) < inst.k
    assert alg_greedy_ball(inst)[0].centers == greedy_fill(inst, natural)
