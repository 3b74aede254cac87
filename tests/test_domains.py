"""Generators: determinism, openness, cap sanity, area and completion checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    assert DomainSpec.from_dict(spec.to_dict()) == spec


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
