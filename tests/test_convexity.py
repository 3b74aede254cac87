"""Connectability, geodesic sampling, perturbation search, domain fractions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alexkit import convexity
from alexkit.convexity import (
    _Z95,
    _ball,
    _connectable_mask,
    _draw,
    _slack,
    _step,
    _wilson,
    ae_convexity_estimate,
    prob_convexity,
    weak_lambda_search,
)
from alexkit.errors import GeometryError, ResolutionError, UnreachableError
from alexkit.reporting import result_of
from alexkit.spaces import DiscreteLengthSpace


def _pick_u(space, point):
    return space.nearest_vertex(point, require_in_U=True)


def connectable(space, p, x, slack=None):
    """True when x can be reached from p by a surviving in-domain minimizer."""
    return bool(_connectable_mask(space, p, np.array([x]), _slack(space, slack))[0])


# ---------------------------------------------------------------------------
# connectable


def test_connectable_trivial_cases(full_square):
    sp = full_square
    a = _pick_u(sp, [0.2, 0.2])
    b = _pick_u(sp, [0.8, 0.6])
    assert connectable(sp, a, a)
    assert connectable(sp, a, b)


def test_connectable_false_beyond_slack(punctured_square):
    sp = punctured_square
    hole = int(np.flatnonzero(~sp.in_U)[0])
    hx, hy = sp.coords[hole]
    a = _pick_u(sp, [hx - 0.25, hy])
    b = _pick_u(sp, [hx + 0.25, hy])
    d_full = float(sp.distance_field(a)[b])
    d_rest = float(sp.distance_field(a, restrict_to_U=True)[b])
    ratio = d_rest / d_full - 1.0
    assert not connectable(sp, a, b, slack=0.5 * ratio)
    assert connectable(sp, a, b, slack=2.0 * ratio)


def test_connectable_monotone_in_slack(punctured_square):
    sp = punctured_square
    rng = np.random.default_rng(0)
    uids = np.flatnonzero(sp.in_U)
    slacks = [0.0, 0.01, 0.05, 0.2, 1.0]
    for _ in range(15):
        a, b = (int(v) for v in rng.choice(uids, 2, replace=False))
        flags = [connectable(sp, a, b, slack=s) for s in slacks]
        assert all(y >= x for x, y in zip(flags, flags[1:]))


def test_connectable_rejects_boundary_targets(wide_cap):
    sp = wide_cap
    rim = int(np.flatnonzero(~sp.in_U)[0])
    inside = int(np.flatnonzero(sp.in_U)[0])
    assert not connectable(sp, inside, rim)


# ---------------------------------------------------------------------------
# probability along a geodesic


def test_prob_convexity_full_square_is_one(full_square):
    sp = full_square
    rng = np.random.default_rng(1)
    uids = np.flatnonzero(sp.in_U)
    for _ in range(10):
        p, q, s = (int(v) for v in rng.choice(uids, 3, replace=False))
        rep = prob_convexity(sp, p, q, s)
        assert rep.probability == 1.0
        # restriction changes no distances here, so slack cannot matter
        assert prob_convexity(sp, p, q, s, slack=0.0).probability == 1.0


def test_prob_convexity_convex_cap_is_one(convex_cap):
    sp = convex_cap
    rng = np.random.default_rng(2)
    uids = np.flatnonzero(sp.in_U)
    for _ in range(15):
        p, q, s = (int(v) for v in rng.choice(uids, 3, replace=False))
        assert prob_convexity(sp, p, q, s).probability == 1.0


def test_prob_convexity_punctured_generic_triple(punctured_square):
    sp = punctured_square
    p = _pick_u(sp, [0.1, 0.9])
    q = _pick_u(sp, [0.15, 0.1])
    s = _pick_u(sp, [0.9, 0.85])
    rep = prob_convexity(sp, p, q, s)
    assert rep.probability == 1.0


def test_prob_convexity_wide_cap_obstructed(wide_cap):
    sp = wide_cap
    r = sp.meta["cap_radius"]
    h = sp.h

    def at(colat, lon):
        v = [math.sin(colat) * math.cos(lon), math.sin(colat) * math.sin(lon),
             math.cos(colat)]
        return sp.nearest_vertex(v, require_in_U=True)

    q = at(r - 2 * h, 0.0)
    s = at(r - 2 * h, 0.9 * math.pi)
    p = at(0.3, 0.5)
    rep = prob_convexity(sp, p, q, s)
    assert rep.probability < 1.0


def test_prob_convexity_deterministic(full_square):
    sp = full_square
    a = _pick_u(sp, [0.2, 0.3])
    b = _pick_u(sp, [0.7, 0.1])
    c = _pick_u(sp, [0.5, 0.9])
    r1 = result_of(prob_convexity(sp, a, b, c, keep_series=True))
    r2 = result_of(prob_convexity(sp, a, b, c, keep_series=True))
    assert r1 == r2


def test_prob_convexity_monotone_in_slack(slit_square):
    sp = slit_square
    p = _pick_u(sp, [0.15, 0.3])
    q = _pick_u(sp, [0.85, 0.1])
    s = _pick_u(sp, [0.85, 0.55])
    probs = [prob_convexity(sp, p, q, s, slack=sl).probability
             for sl in (0.0, 0.05, 0.2, 2.0)]
    assert all(y >= x for x, y in zip(probs, probs[1:]))


def test_prob_convexity_rejects_equal_endpoints(full_square):
    with pytest.raises(GeometryError):
        prob_convexity(full_square, 0, 5, 5)


# ---------------------------------------------------------------------------
# slit domain: genuinely obstructed


def test_slit_domain_probability_below_one(slit_square):
    sp = slit_square
    p = _pick_u(sp, [0.15, 0.3])   # left of the slit
    q = _pick_u(sp, [0.85, 0.1])   # right side, low
    s = _pick_u(sp, [0.85, 0.55])  # right side, near the tip shadow
    rep = prob_convexity(sp, p, q, s)
    assert 0.0 < rep.probability < 1.0


def test_ae_estimate_full_square(full_square):
    sp = full_square
    p = _pick_u(sp, [0.4, 0.4])
    rep = ae_convexity_estimate(sp, p, samples=500, seed=0)
    assert rep.probability == 1.0


def test_ae_estimate_punctured_near_one(punctured_square):
    sp = punctured_square
    p = _pick_u(sp, [0.2, 0.2])
    rep = ae_convexity_estimate(sp, p, samples=2000, seed=0)
    assert rep.probability >= 0.98


def test_ae_estimate_slit_strictly_below_one(slit_square):
    sp = slit_square
    p = _pick_u(sp, [0.15, 0.3])
    rep = ae_convexity_estimate(sp, p, samples=4000, seed=0)
    assert rep.probability < 1.0


def test_ae_interval_is_the_fraction_when_every_open_vertex_is_counted(slit_square):
    sp = slit_square
    p = _pick_u(sp, [0.15, 0.3])
    n_open = int(sp.in_U.sum())
    whole = ae_convexity_estimate(sp, p, samples=n_open, seed=0)
    assert whole.samples == n_open and 0.0 < whole.probability < 1.0
    assert whole.interval == [whole.probability, whole.probability]
    drawn = ae_convexity_estimate(sp, p, samples=n_open - 1, seed=0)
    lo, hi = drawn.interval
    assert drawn.samples == n_open - 1 and lo < drawn.probability < hi


def test_wilson_interval_at_the_benchmark_cap():
    # every one of 2,000 draws from the 4,018 open vertices connects
    lo, hi = _wilson(2000, 2000, 4018)
    # 1 - lo is about twice the 0.00049 that the normal approximation gave
    assert hi == 1.0 and lo == pytest.approx(0.99904, abs=5e-6)
    assert _wilson(0, 1, 1) == [0.0, 0.0] and _wilson(1, 1, 1) == [1.0, 1.0]
    assert _wilson(0, 2000, 4018)[0] == 0.0


@given(st.integers(1, 10**6), st.data())
def test_wilson_interval_matches_the_score_formula(population, data):
    n = data.draw(st.integers(1, population))
    k = data.draw(st.integers(0, n))
    lo, hi = _wilson(k, n, population)
    p = k / n
    assert 0.0 <= lo <= p <= hi <= 1.0
    # the textbook centre and half-width, with z² times (N - n)/(N - 1)
    z2 = _Z95 ** 2 * (population - n) / (population - 1) if population > 1 else 0.0
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = math.sqrt(z2 * (p * (1 - p) / n + z2 / (4 * n * n))) / (1 + z2 / n)
    assert lo == pytest.approx(centre - half, abs=1e-12)
    assert hi == pytest.approx(centre + half, abs=1e-12)


# ---------------------------------------------------------------------------
# perturbation search


def test_weak_lambda_search_convex_domain(full_square):
    sp = full_square
    p = _pick_u(sp, [0.3, 0.3])
    q = _pick_u(sp, [0.8, 0.2])
    s = _pick_u(sp, [0.2, 0.8])
    rep = weak_lambda_search(sp, p, q, s, epsilon=0.1, candidates=8, seed=0)
    assert rep.probability == 1.0
    assert rep.detail["origin"] == {"p": p, "q": q, "s": s}


def test_weak_lambda_search_requires_mesh_scale_epsilon(full_square):
    with pytest.raises(ResolutionError):
        weak_lambda_search(full_square, 0, 1, 2, epsilon=full_square.h / 10)


def test_weak_lambda_search_tube_adapted(dense_square):
    # points near one thick tube: perturbation finds an in-tube triple whose
    # geodesic stays connectable
    sp = dense_square
    segs = np.asarray(sp.meta["segments"])
    radii = np.asarray(sp.meta["radii"])
    k = int(np.argmax(radii))
    a = segs[k, :2]
    b = segs[k, 2:]
    direction = (b - a) / np.linalg.norm(b - a)
    p = sp.nearest_vertex(a + 0.5 * direction, require_in_U=True)
    q = sp.nearest_vertex(a + 0.15 * direction, require_in_U=True)
    s = sp.nearest_vertex(a + 0.85 * direction, require_in_U=True)
    rep = weak_lambda_search(sp, p, q, s, epsilon=0.08, candidates=48, seed=0)
    assert rep.probability >= 1.0 - 1e-9


def test_weak_lambda_search_slit_stays_below_one(slit_square):
    sp = slit_square
    p = _pick_u(sp, [0.15, 0.3])
    q = _pick_u(sp, [0.85, 0.1])
    s = _pick_u(sp, [0.85, 0.55])
    rep = weak_lambda_search(sp, p, q, s, epsilon=2.5 * sp.h, candidates=40, seed=0)
    assert rep.probability < 1.0


def test_weak_lambda_search_deterministic(punctured_square):
    sp = punctured_square
    p = _pick_u(sp, [0.3, 0.3])
    q = _pick_u(sp, [0.8, 0.2])
    s = _pick_u(sp, [0.2, 0.8])
    r1 = result_of(weak_lambda_search(sp, p, q, s, epsilon=0.1, candidates=12, seed=5))
    r2 = result_of(weak_lambda_search(sp, p, q, s, epsilon=0.1, candidates=12, seed=5))
    assert r1 == r2


def test_corollary_direction_ae_one_implies_lambda_one(full_square, punctured_square):
    # almost-everywhere connectable domains must also let the perturbation
    # search reach one; a counterexample would be surfaced here for triage
    for sp in (full_square, punctured_square):
        uids = np.flatnonzero(sp.in_U)
        rng = np.random.default_rng(9)
        p, q, s = (int(v) for v in rng.choice(uids, 3, replace=False))
        ae = ae_convexity_estimate(sp, p, samples=1500, seed=1)
        if ae.probability >= 0.98:
            rep = weak_lambda_search(sp, p, q, s, epsilon=0.08, candidates=24, seed=2)
            assert rep.probability >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# the search's early exit against the full loop


def _full_search(space, p, q, s, epsilon, candidates, seed):
    """The search loop before its early exit: every drawn triple, in draw order.

    Returns the best report, its triple, and the numbers of distinct triples
    evaluated and of distinct triples dropped for equal endpoints.
    """
    step = _step(space, None)
    slack = _slack(space, None)
    rng = np.random.default_rng(seed)
    balls = [_ball(space, center, epsilon) for center in (p, q, s)]
    best = best_key = best_triple = None
    triples = [(p, q, s)]
    for _ in range(candidates - 1):
        triples.append(tuple(_draw(ball, rng) for ball in balls))
    evaluated, equal = set(), set()
    for (pp, qq, ss) in triples:
        if qq == ss:
            equal.add((pp, qq, ss))
            continue
        try:
            rep = prob_convexity(space, pp, qq, ss, step=step, slack=slack)
        except (UnreachableError, GeometryError):
            continue
        evaluated.add((pp, qq, ss))
        key = (-rep.probability, pp, qq, ss)
        if best_key is None or key < best_key:
            best_key, best, best_triple = key, rep, (pp, qq, ss)
    return best, best_triple, len(evaluated), len(equal)


def _search_cases(name, sp):
    """(p, q, s, epsilon, candidates) triples on each fixture."""
    if name == "convex_cap":
        uids = np.flatnonzero(sp.in_U)
        rng = np.random.default_rng(3)
        return [tuple(int(v) for v in rng.choice(uids, 3, replace=False)) + (0.2, 12)
                for _ in range(2)]
    if name == "dense_square":
        segs = np.asarray(sp.meta["segments"])
        k = int(np.argmax(np.asarray(sp.meta["radii"])))
        a, b = segs[k, :2], segs[k, 2:]
        pts = [a + f * (b - a) for f in (0.5, 0.15, 0.85)]
        tube = tuple(sp.nearest_vertex(x, require_in_U=True) for x in pts)
        wide = tuple(_pick_u(sp, x) for x in ([0.3, 0.3], [0.8, 0.2], [0.2, 0.8]))
        return [tube + (0.08, 16), wide + (0.08, 16)]
    if name == "slit_square":
        triple = tuple(_pick_u(sp, x) for x in ([0.15, 0.3], [0.85, 0.1], [0.85, 0.55]))
        return [triple + (2.5 * sp.h, 24)]
    triple = tuple(_pick_u(sp, x) for x in ([0.3, 0.3], [0.8, 0.2], [0.2, 0.8]))
    return [triple + (0.1, 12), triple[::-1] + (0.06, 12)]


@pytest.mark.parametrize("name", ["full_square", "punctured_square", "slit_square",
                                  "dense_square", "convex_cap"])
def test_search_early_exit_matches_the_full_loop(request, name):
    sp = request.getfixturevalue(name)
    for p, q, s, epsilon, candidates in _search_cases(name, sp):
        for seed in (0, 1, 7):
            oracle, triple, evaluated, equal = _full_search(sp, p, q, s, epsilon, candidates,
                                                            seed)
            rep = weak_lambda_search(sp, p, q, s, epsilon, candidates=candidates, seed=seed)
            assert result_of(rep) == {**result_of(oracle), "detail": {
                "origin": {"p": p, "q": q, "s": s},
                "best_triple": dict(zip("pqs", triple)),
                "geodesic_length": oracle.detail["geodesic_length"],
                "candidates_requested": candidates,
                "candidates_evaluated": rep.detail["candidates_evaluated"],
                "candidates_dropped": rep.detail["candidates_dropped"]}}
            assert 1 <= rep.detail["candidates_evaluated"] <= evaluated
            dropped = rep.detail["candidates_dropped"]
            assert dropped["equal_endpoints"] <= equal
            if oracle.probability < 1.0:
                # no early exit: each distinct triple is evaluated or dropped once
                assert rep.detail["candidates_evaluated"] == evaluated
                assert dropped == {"equal_endpoints": equal, "unreachable": 0,
                                   "geometry_error": 0}


def test_search_stops_at_the_first_triple_of_probability_one(convex_cap):
    uids = np.flatnonzero(convex_cap.in_U)
    p, q, s = (int(v) for v in np.random.default_rng(3).choice(uids, 3, replace=False))
    rep = weak_lambda_search(convex_cap, p, q, s, 0.2, candidates=64, seed=0)
    assert rep.probability == 1.0
    assert rep.detail["candidates_evaluated"] < 64


def test_search_without_a_triple_of_probability_one_evaluates_every_distinct_triple(
        slit_square):
    sp = slit_square
    p, q, s = (_pick_u(sp, x) for x in ([0.15, 0.3], [0.85, 0.1], [0.85, 0.55]))
    oracle, _, evaluated, _ = _full_search(sp, p, q, s, 2.5 * sp.h, 24, 0)
    rep = weak_lambda_search(sp, p, q, s, 2.5 * sp.h, candidates=24, seed=0)
    assert oracle.probability < 1.0
    assert rep.probability == oracle.probability
    assert rep.detail["candidates_evaluated"] == evaluated > 1


def test_search_counts_the_triples_it_drops_by_reason(slit_square, monkeypatch):
    # s = q: the given triple and some draws have equal endpoints; the estimate
    # fails for every first and second triple in three, by two reasons
    sp = slit_square
    p, q = (_pick_u(sp, x) for x in ([0.15, 0.3], [0.85, 0.1]))
    s = q
    epsilon, candidates, seed = 2.5 * sp.h, 24, 0
    calls = []

    def estimate(space, pp, qq, ss, **options):
        calls.append((pp, qq, ss))
        if len(calls) % 3 == 1:
            raise UnreachableError("no geodesic")
        if len(calls) % 3 == 2:
            raise GeometryError("some other reason")
        # below 1, so that the search evaluates every triple
        return replace(prob_convexity(space, pp, qq, ss, **options), probability=0.5)

    monkeypatch.setattr(convexity, "prob_convexity", estimate)
    rep = weak_lambda_search(sp, p, q, s, epsilon, candidates=candidates, seed=seed)
    rng = np.random.default_rng(seed)
    balls = [_ball(sp, center, epsilon) for center in (p, q, s)]
    triples = {(p, q, s)} | {tuple(_draw(ball, rng) for ball in balls)
                             for _ in range(candidates - 1)}
    equal = sum(qq == ss for _, qq, ss in triples)
    assert equal > 0 and len(calls) >= 3
    assert calls == sorted(t for t in triples if t[1] != t[2])
    assert rep.detail["candidates_dropped"] == {
        "equal_endpoints": equal, "unreachable": len(calls[0::3]),
        "geometry_error": len(calls[1::3])}
    assert rep.detail["candidates_evaluated"] == len(calls[2::3])
    assert rep.detail["best_triple"] == dict(zip("pqs", calls[2]))


# ---------------------------------------------------------------------------
# what a report holds, and rescaling


def test_each_estimate_reports_the_fields_it_measured(slit_square):
    sp = slit_square
    p, q, s = (_pick_u(sp, x) for x in ([0.15, 0.3], [0.85, 0.1], [0.85, 0.55]))
    prob = result_of(prob_convexity(sp, p, q, s))
    assert prob.keys() == {"probability", "samples", "step", "slack", "detail"}
    assert prob["detail"].keys() == {"p", "q", "s", "geodesic_length"}
    kept = prob_convexity(sp, p, q, s, keep_series=True)
    assert result_of(kept) == {**prob, "series": kept.series}
    assert result_of(kept)["series"] is kept.series  # shared, not copied
    search = result_of(weak_lambda_search(sp, p, q, s, 2.5 * sp.h, candidates=6, seed=0))
    assert search.keys() == prob.keys()
    assert search["detail"].keys() == {"origin", "best_triple", "geodesic_length",
                                       "candidates_requested", "candidates_evaluated",
                                       "candidates_dropped"}
    ae = result_of(ae_convexity_estimate(sp, p, samples=100, seed=0))
    assert ae.keys() == {"probability", "samples", "slack", "interval", "detail"}
    assert ae["detail"] == {"p": p, "mode": "vertex_fraction"}


def _scaled(space, c):
    """``space`` with every length, the mesh size included, multiplied by c."""
    return DiscreteLengthSpace(space.coords * c, space.in_U, space.edges, space.weights * c,
                               {**space.meta, "h": space.meta["h"] * c})


_SCALES = (2**-4, 2**-1, 2**3, 0.1, 10.0)


def test_prob_convexity_is_scale_invariant(slit_square):
    # (583, 480, 461): the geodesic spans exactly 19 steps, but 19.000000000000004
    # at c = 0.1, and a tick count without slack took a 21st tick there
    rng = np.random.default_rng(11)
    uids = np.flatnonzero(slit_square.in_U)
    triples = [(583, 480, 461)] + [tuple(int(v) for v in rng.choice(uids, 3, replace=False))
                                   for _ in range(12)]
    refs = [prob_convexity(slit_square, *t) for t in triples]
    for c in _SCALES:
        sp = _scaled(slit_square, c)
        for t, ref in zip(triples, refs):
            rep = prob_convexity(sp, *t)
            assert (rep.probability, rep.samples) == (ref.probability, ref.samples), (c, t)
            assert rep.step == sp.h == ref.step * c
            assert rep.detail["geodesic_length"] == pytest.approx(
                ref.detail["geodesic_length"] * c, rel=1e-12)


def test_search_is_scale_invariant(slit_square):
    # (397, 395, 425): vertex 421 lies exactly 4h from 425, which a ring index
    # without slack put in ring 3 at c = 1 and in ring 4 at c = 10
    rng = np.random.default_rng(11)
    uids = np.flatnonzero(slit_square.in_U)
    triples = [(397, 395, 425)] + [tuple(int(v) for v in rng.choice(uids, 3, replace=False))
                                   for _ in range(4)]
    refs = [weak_lambda_search(slit_square, *t, 0.2, candidates=8, seed=2) for t in triples]
    for c in _SCALES:
        sp = _scaled(slit_square, c)
        for t, ref in zip(triples, refs):
            rep = weak_lambda_search(sp, *t, 0.2 * c, candidates=8, seed=2)
            for key in ("best_triple", "candidates_evaluated"):
                assert rep.detail[key] == ref.detail[key], (c, t, key)
            assert (rep.probability, rep.samples) == (ref.probability, ref.samples), (c, t)
            assert rep.step == sp.h
            assert rep.detail["geodesic_length"] == pytest.approx(
                ref.detail["geodesic_length"] * c, rel=1e-12)
