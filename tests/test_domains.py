"""Generators: determinism, openness, cap sanity, area and completion checks."""

import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from alexkit import domains
from alexkit.domains import (
    DomainSpec,
    area_estimate,
    completion_compare,
    generate,
    rational_segments,
    segment_radii,
    stencil_distortion,
    stencil_gap,
    unit_sphere_points,
)
from alexkit.errors import GeometryError, ResolutionError


# ---------------------------------------------------------------------------
# specs and ingredients


def test_spec_validation():
    with pytest.raises(GeometryError):
        DomainSpec(kind="cap", resolution=0.05, cap_radius=3.5)
    with pytest.raises(GeometryError):
        DomainSpec(kind="dense_square", resolution=0.05, delta=1.5, num_segments=10)
    with pytest.raises(GeometryError):
        DomainSpec(kind="nonsense", resolution=0.05)
    spec = DomainSpec(kind="cap", resolution=0.05, cap_radius=1.0)
    data = spec.to_dict()
    data["removed_points"] = tuple(map(tuple, data["removed_points"]))
    data["removed_segments"] = tuple(map(tuple, data["removed_segments"]))
    assert DomainSpec(**data) == spec


def test_rational_segment_enumeration_prefix():
    segs = rational_segments(10)
    corners = {(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
               (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))}
    # denominator-1 block first: all six corner pairs
    for x1, y1, x2, y2 in segs[:6]:
        assert (x1, y1) in corners and (x2, y2) in corners
    # stable under extension and duplicate-free
    assert rational_segments(200)[:10] == segs
    assert len(set(rational_segments(200))) == 200


def test_segment_radii_sum():
    r = segment_radii(0.2, 200)
    assert r.sum() == pytest.approx(0.05, abs=1e-15)
    assert (r > 0).all()
    assert r[0] == pytest.approx(0.2 / 8, rel=1e-6)


def test_stencil_distortion_values():
    assert stencil_distortion(2) == pytest.approx(0.0275, abs=5e-4)
    assert stencil_distortion(4) < stencil_distortion(2)


@pytest.mark.parametrize("radius", [1, 2, 3, 5])
def test_stencil_gap_is_recorded_and_matches_distortion(radius):
    gap = stencil_gap(radius)
    assert gap == pytest.approx(math.atan(1.0 / radius), abs=1e-15)
    assert stencil_distortion(radius) == 1.0 / math.cos(gap / 2.0) - 1.0
    sp = generate(DomainSpec(kind="punctured", resolution=0.1, stencil_radius=radius))
    assert sp.meta["stencil_gap"] == gap
    assert sp.stencil_gap == gap


# ---------------------------------------------------------------------------
# determinism


def test_generator_determinism_bytes(tmp_path):
    spec = DomainSpec(kind="dense_square", resolution=1 / 48, delta=0.3, num_segments=50)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    generate(spec, seed=3).save(p1)
    generate(spec, seed=3).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cap_determinism_bytes(tmp_path):
    spec = DomainSpec(kind="cap", resolution=0.12, cap_radius=1.1)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    generate(spec, seed=0).save(p1)
    generate(spec, seed=0).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# cap geometry


def test_cap_rejects_too_coarse():
    with pytest.raises(ResolutionError):
        generate(DomainSpec(kind="cap", resolution=0.5, cap_radius=0.35), seed=0)
    with pytest.raises(ResolutionError):
        generate(DomainSpec(kind="punctured", resolution=0.2), seed=0)


def test_hemisphere_cap_every_pair_connectable():
    # boundary case of the convex regime: exact metric still applies and the
    # restriction changes no distances
    sp = generate(DomainSpec(kind="cap", resolution=0.12, cap_radius=math.pi / 2), seed=0)
    assert sp.meta.get("exact_metric") == "sphere"
    rng = np.random.default_rng(8)
    uids = np.flatnonzero(sp.in_U)
    for _ in range(20):
        a, b = (int(v) for v in rng.choice(uids, 2, replace=False))
        d_full = float(sp.distance_field(a)[b])
        d_rest = float(sp.distance_field(a, restrict_to_U=True)[b])
        assert d_rest <= d_full * (1.0 + sp.h_err) + 1e-12


def test_convex_cap_restricted_matches_full(convex_cap):
    sp = convex_cap
    rng = np.random.default_rng(4)
    uids = np.flatnonzero(sp.in_U)
    for _ in range(15):
        a, b = (int(v) for v in rng.choice(uids, 2, replace=False))
        d_full = float(sp.distance_field(a)[b])
        d_rest = float(sp.distance_field(a, restrict_to_U=True)[b])
        assert d_rest <= d_full * (1.0 + sp.h_err) + 1e-12


def test_wide_cap_has_restricted_witness(wide_cap):
    sp = wide_cap
    r = sp.meta["cap_radius"]
    h = sp.h

    def at(colat, lon):
        v = [math.sin(colat) * math.cos(lon), math.sin(colat) * math.sin(lon),
             math.cos(colat)]
        return sp.nearest_vertex(v, require_in_U=True)

    a = at(r - 1.5 * h, 0.0)
    b = at(r - 1.5 * h, math.pi)
    d_full = float(sp.distance_field(a)[b])
    d_rest = float(sp.distance_field(a, restrict_to_U=True)[b])
    assert d_rest > d_full


def test_cap_graph_dominates_sphere_distance(convex_cap):
    sp = convex_cap
    rng = np.random.default_rng(5)
    uids = np.flatnonzero(sp.in_U)
    for _ in range(20):
        a, b = (int(v) for v in rng.choice(uids, 2, replace=False))
        chord = np.linalg.norm(sp.coords[a] - sp.coords[b])
        arc = 2.0 * math.asin(min(1.0, chord / 2.0))
        assert float(sp.distance_field(a)[b]) >= arc - 1e-12


def test_cap_boundary_ring_present(convex_cap):
    rim = ~convex_cap.in_U
    assert rim.sum() >= 12
    colat = np.arccos(np.clip(convex_cap.coords[rim][:, 2], -1, 1))
    assert np.allclose(colat, convex_cap.meta["cap_radius"], atol=1e-9)


# ---------------------------------------------------------------------------
# square domains


def test_punctured_single_point_counts(punctured_square):
    sp = punctured_square
    assert int((~sp.in_U).sum()) == 1
    assert sp.meta.get("exact_metric") == "euclidean"


def test_square_openness_no_isolated_u_vertices(dense_square, punctured_square):
    for sp in (dense_square, punctured_square):
        adj_ok = np.zeros(sp.n_vertices, dtype=bool)
        mask = sp.in_U[sp.edges[:, 0]] & sp.in_U[sp.edges[:, 1]]
        adj_ok[sp.edges[mask, 0]] = True
        adj_ok[sp.edges[mask, 1]] = True
        assert np.all(adj_ok[sp.in_U])


def test_dense_square_tubes_cover_marked_vertices(dense_square):
    sp = dense_square
    segs = np.asarray(sp.meta["segments"])
    radii = np.asarray(sp.meta["radii"])
    cutoff = sp.meta["tube_cutoff"]
    marked = np.flatnonzero(sp.in_U)
    dmin = np.full(len(marked), np.inf)
    for k in range(len(segs)):
        if radii[k] < cutoff:
            continue
        a, b = segs[k, :2], segs[k, 2:]
        ab = b - a
        t = np.clip((sp.coords[marked] - a) @ ab / (ab @ ab), 0, 1)
        proj = a + t[:, None] * ab
        d = np.linalg.norm(sp.coords[marked] - proj, axis=1)
        dmin = np.minimum(dmin, d - radii[k])
    assert np.all(dmin <= 1e-12)


def test_slit_blocks_crossing_edges(slit_square):
    sp = slit_square
    x1, y1, x2, y2 = sp.meta["removed_segments"][0]
    # no edge may properly cross the slit
    a = np.array([x1, y1])
    b = np.array([x2, y2])
    ab = b - a

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for (i, j) in sp.edges:
        p, q = sp.coords[i], sp.coords[j]
        d1 = cross2(ab, p - a)
        d2 = cross2(ab, q - a)
        if d1 * d2 < -1e-12:
            pq = q - p
            e1 = cross2(pq, a - p)
            e2 = cross2(pq, b - p)
            assert e1 * e2 >= -1e-12, (p, q)


# ---------------------------------------------------------------------------
# area


def test_area_estimate_below_delta():
    spec = DomainSpec(kind="dense_square", resolution=1 / 64, delta=0.2, num_segments=200)
    rep = area_estimate(spec, samples=60_000, seed=1)
    assert rep.estimate <= 0.2 + 3.0 * rep.sigma
    assert rep.estimate <= rep.union_bound + 3.0 * rep.sigma


def test_area_shrinks_with_radii():
    small = DomainSpec(kind="dense_square", resolution=1 / 32, delta=0.01, num_segments=50)
    rep = area_estimate(small, samples=40_000, seed=2)
    assert rep.estimate <= 0.02


def test_area_stays_strictly_below_one():
    spec = DomainSpec(kind="dense_square", resolution=1 / 32, delta=0.99, num_segments=300)
    rep = area_estimate(spec, samples=40_000, seed=3)
    union = rep.union_bound
    assert union < 1.0
    assert rep.estimate <= union + 3.0 * rep.sigma


# ---------------------------------------------------------------------------
# completion comparison


def test_completion_exact_on_bundled_endpoints(dense_square):
    sp = dense_square
    segs = np.asarray(sp.meta["segments"])
    # the first corner-to-corner segments have grid-aligned endpoints
    k = 2  # (0,0) -> (1,1) diagonal in the enumeration
    p = sp.nearest_vertex(segs[k, :2])
    q = sp.nearest_vertex(segs[k, 2:])
    d_bar = float(sp.distance_field(p)[q])
    seg_len = float(np.linalg.norm(segs[k, 2:] - segs[k, :2]))
    assert d_bar >= seg_len - 1e-12
    assert d_bar <= seg_len * (1.0 + sp.h_err) + 1e-12


def test_completion_compare_budget(dense_square):
    rep = completion_compare(dense_square, pairs=200, epsilon=0.05, seed=0)
    assert rep.matched > 0
    budget = 4.0 * rep.epsilon + 2.0 * rep.h_err
    assert rep.max_violation <= budget
    # the exact chain links hold up to roundoff
    assert rep.max_link_violation <= 1e-9


def test_completion_compare_single_segment_mostly_misses():
    # with a single bundled segment, uniformly sampled pairs rarely land near
    # its two endpoints: the finite-truncation artifact dominates
    spec = DomainSpec(kind="dense_square", resolution=1 / 48, delta=0.5, num_segments=1)
    sp = generate(spec, seed=0)
    rep = completion_compare(sp, pairs=100, epsilon=0.05, seed=1)
    assert rep.uniform_misses > rep.uniform_matched


def _completion_by_rows(space, pairs, epsilon, seed):
    """The per-row completion comparison that the batched one replaced, as an oracle.

    Returns the report's fields without ``work``.
    """
    segs = np.asarray(space.meta["segments"], dtype=float)
    starts = segs[:, :2]
    ends = segs[:, 2:]
    rng = np.random.default_rng(seed)
    n = space.n_vertices
    n_uniform = pairs // 2
    p_ids = np.empty(pairs, dtype=np.int64)
    q_ids = np.empty(pairs, dtype=np.int64)
    p_ids[:n_uniform] = rng.integers(0, n, size=n_uniform)
    q_ids[:n_uniform] = rng.integers(0, n, size=n_uniform)
    for row in range(n_uniform, pairs):
        k = int(rng.integers(0, len(segs)))
        jitter = rng.uniform(-0.5, 0.5, size=4) * epsilon
        a = np.clip(starts[k] + jitter[:2], 0.0, space.meta.get("side", 1.0))
        b = np.clip(ends[k] + jitter[2:], 0.0, space.meta.get("side", 1.0))
        p_ids[row] = space.nearest_vertex(a)
        q_ids[row] = space.nearest_vertex(b)
    matched = misses = uniform_matched = uniform_misses = 0
    max_violation = max_link = -math.inf
    worst = {}
    fields_cache = {}
    for row, (p_i, q_i) in enumerate(zip(p_ids, q_ids)):
        is_uniform = row < n_uniform
        p_i, q_i = int(p_i), int(q_i)
        if p_i == q_i:
            misses += 1
            uniform_misses += is_uniform
            continue
        p = space.coords[p_i]
        q = space.coords[q_i]
        fwd = np.maximum(np.linalg.norm(starts - p, axis=1), np.linalg.norm(ends - q, axis=1))
        rev = np.maximum(np.linalg.norm(ends - p, axis=1), np.linalg.norm(starts - q, axis=1))
        best = np.minimum(fwd, rev)
        k = int(np.argmin(best))
        if best[k] > epsilon:
            misses += 1
            uniform_misses += is_uniform
            continue
        matched += 1
        uniform_matched += is_uniform
        seg_len = float(np.linalg.norm(ends[k] - starts[k]))
        d_x = float(np.linalg.norm(p - q))
        if p_i not in fields_cache:
            fields_cache[p_i] = space.distance_field(p_i)
        d_bar = float(fields_cache[p_i][q_i])
        violation = d_bar - seg_len
        link = max(d_x - d_bar, (seg_len - 2.0 * epsilon) - d_x)
        if violation > max_violation:
            max_violation = violation
            worst = {"p": p_i, "q": q_i, "segment": k, "segment_length": seg_len,
                     "d_ambient": d_x, "d_completion": d_bar, "violation": violation}
        max_link = max(max_link, link)
    return {"pairs": pairs, "matched": matched, "misses": misses,
            "uniform_matched": int(uniform_matched), "uniform_misses": int(uniform_misses),
            "epsilon": epsilon, "max_violation": max_violation if matched else 0.0,
            "max_link_violation": max_link if matched else 0.0, "h_err": space.h_err,
            "worst_case": worst}


@pytest.mark.parametrize("pairs,epsilon,seed", [
    (200, 0.05, 0), (201, 0.05, 1), (300, 0.1, 2), (1, 0.05, 3), (2, 0.3, 4), (150, 0.02, 5),
])
def test_completion_compare_matches_the_per_row_loop(dense_square, pairs, epsilon, seed):
    rep = asdict(completion_compare(dense_square, pairs=pairs, epsilon=epsilon, seed=seed))
    work = rep.pop("work")
    oracle = _completion_by_rows(dense_square, pairs, epsilon, seed)
    assert rep == oracle
    assert work["distance_sources"] <= rep["matched"]


def test_completion_compare_blocks_do_not_change_the_report(dense_square, monkeypatch):
    whole = completion_compare(dense_square, pairs=120, epsilon=0.1, seed=6)
    # blocks of one to a few rows each
    monkeypatch.setattr(domains, "_BLOCK_ELEMENTS", 3000)
    assert completion_compare(dense_square, pairs=120, epsilon=0.1, seed=6) == whole


def test_nearest_vertices_match_nearest_vertex(dense_square):
    rng = np.random.default_rng(0)
    points = np.vstack([rng.uniform(-0.1, 1.1, size=(300, 2)),
                        dense_square.coords[:50],
                        # halfway between two grid columns: a tie, won by the lower index
                        dense_square.coords[:50] + [0.5 * dense_square.h, 0.0]])
    got = domains._nearest_vertices(dense_square.coords, points)
    assert got.tolist() == [dense_square.nearest_vertex(x) for x in points]


def test_completion_compare_rejects_other_domains(punctured_square):
    with pytest.raises(GeometryError):
        completion_compare(punctured_square, pairs=10, epsilon=0.05, seed=0)


# ---------------------------------------------------------------------------
# sphere point sets


def test_unit_sphere_points_are_unit():
    pts = unit_sphere_points(64, seed=0)
    assert np.allclose(np.linalg.norm(pts.points, axis=1), 1.0, atol=1e-12)
    again = unit_sphere_points(64, seed=0)
    assert np.array_equal(pts.points, again.points)
