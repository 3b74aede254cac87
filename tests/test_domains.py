"""Generators: determinism, openness, cap sanity, area and completion checks."""

import math
import os
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from alexkit import domains, spaces
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
from alexkit.spaces import great_circle


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
    assert DomainSpec(**asdict(spec)) == spec


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
        adj_ok = np.zeros(sp.n_points, dtype=bool)
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


def test_completion_compare_refuses_a_dense_square_without_segments(dense_square, monkeypatch):
    meta = {k: v for k, v in dense_square.meta.items() if k != "segments"}
    monkeypatch.setattr(dense_square, "meta", meta)
    with pytest.raises(GeometryError, match="with their meta.segments"):
        completion_compare(dense_square, pairs=10, epsilon=0.05, seed=0)


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
    n = space.n_points
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
    (4, 0.001, 5),  # no pair matches
])
def test_completion_compare_matches_the_per_row_loop(dense_square, pairs, epsilon, seed):
    rep = asdict(completion_compare(dense_square, pairs=pairs, epsilon=epsilon, seed=seed))
    work = rep.pop("work")
    oracle = _completion_by_rows(dense_square, pairs, epsilon, seed)
    assert rep == oracle
    assert work["full_fields"] <= rep["matched"]


# CPU counts a test may fake: never more than the real affinity mask holds,
# since that is how many children a distance call forks
_MASKS = [1] + [2] * (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def test_completion_compare_blocks_do_not_change_the_report(dense_square, dense_square_cut,
                                                            monkeypatch):
    # the cut square, no complete lattice, reads its pairs from Dijkstra fields
    for sp in (dense_square, dense_square_cut):
        whole = completion_compare(sp, pairs=120, epsilon=0.1, seed=6)
        # blocks of one to a few rows each, on one CPU and on two
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 3000)
        for cpus in _MASKS:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            assert completion_compare(sp, pairs=120, epsilon=0.1, seed=6) == whole
        monkeypatch.undo()


def test_completion_compare_forks_no_worker(dense_square, dense_square_cut, monkeypatch):
    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    lattice, cut = (completion_compare(sp, pairs=300, epsilon=0.1, seed=2)
                    for sp in (dense_square, dense_square_cut))
    assert lattice.matched > 0
    # one edge at the corner moves no count, and the distances only by rounding
    assert (lattice.matched, lattice.worst_case["p"], lattice.worst_case["q"], lattice.work) == \
        (cut.matched, cut.worst_case["p"], cut.worst_case["q"], cut.work)
    assert lattice.max_violation == pytest.approx(cut.max_violation, rel=1e-14)


def test_cap_distortion_does_not_depend_on_blocks_or_workers(wide_cap, monkeypatch):
    whole = domains._estimate_cap_distortion(wide_cap, 0.9 * math.pi, 0)
    # 24 blocks of one source each
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 3000)
    for cpus in _MASKS:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert domains._estimate_cap_distortion(wide_cap, 0.9 * math.pi, 0) == whole


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


# ---------------------------------------------------------------------------
# array generators against the loops they replaced


def _subdivide_loop(verts, faces):
    vlist = [tuple(v) for v in verts]
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key in cache:
            return cache[key]
        m = 0.5 * (np.asarray(vlist[i]) + np.asarray(vlist[j]))
        m /= math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
        vlist.append(tuple(m))
        cache[key] = len(vlist) - 1
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab = midpoint(int(a), int(b))
        bc = midpoint(int(b), int(c))
        ca = midpoint(int(c), int(a))
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(vlist), np.array(new_faces, dtype=np.int64)


def _cap_mesh_edges_loop(faces, keep, remap):
    edge_set = set()
    for a, b, c in faces:
        for i, j in ((a, b), (b, c), (c, a)):
            if keep[i] and keep[j]:
                edge_set.add((min(int(i), int(j)), max(int(i), int(j))))
    mesh_edges = remap[np.array(sorted(edge_set), dtype=np.int64)]
    adj = [set() for _ in range(int(keep.sum()))]
    for i, j in mesh_edges:
        adj[int(i)].add(int(j))
        adj[int(j)].add(int(i))
    hop2 = set(map(tuple, mesh_edges.tolist()))
    for i in range(len(adj)):
        for j in adj[i]:
            for k in adj[j]:
                if k != i:
                    hop2.add((min(i, k), max(i, k)))
    return np.array(sorted(hop2), dtype=np.int64)


def _sew_guards_loop(kept, near_rim, guards, first_id, reach):
    sew = []
    for j in range(len(guards)):
        if len(near_rim):
            arcs = great_circle(kept[near_rim], guards[j])
            for i in near_rim[arcs <= reach]:
                sew.append((int(i), first_id + j))
    return np.array(sorted(set(sew)), dtype=np.int64).reshape(-1, 2)


def _estimate_cap_distortion_loop(space, r, seed):
    rng = np.random.default_rng([seed, 7])
    u_ids = np.flatnonzero(space.in_U)
    sources = rng.choice(u_ids, size=min(24, len(u_ids)), replace=False)
    cos_r = math.cos(r)
    worst = 0.0
    fields = space.distance_field(sources)
    for row, src in enumerate(sources):
        targets = rng.choice(u_ids, size=min(60, len(u_ids)), replace=False)
        a = space.coords[src]
        for t in targets:
            if t == src:
                continue
            b = space.coords[t]
            arc = float(great_circle(a, b))
            if arc < 4.0 * space.meta["h"]:
                continue
            ts = np.linspace(0.0, 1.0, 17)
            pts = np.outer(np.sin((1 - ts) * arc), a) + np.outer(np.sin(ts * arc), b)
            pts /= np.sin(arc)
            if np.any(pts[:, 2] < cos_r - 1e-9):
                continue  # ambient arc exits the cap
            g = float(fields[row, t])
            if math.isfinite(g) and arc > 0.0:
                worst = max(worst, g / arc - 1.0)
    return 1.15 * worst if worst > 0.0 else 0.03


def _segments_cross(p1, p2, q1, q2):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    eps = 1e-12
    return bool(((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps))
                and ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)))


def _slit_crossings_loop(coords, edges, slit):
    x1, y1, x2, y2 = slit
    out = np.zeros(len(edges), dtype=bool)
    for idx in range(len(edges)):
        a = coords[edges[idx, 0]]
        b = coords[edges[idx, 1]]
        out[idx] = _segments_cross((a[0], a[1]), (b[0], b[1]), (x1, y1), (x2, y2))
    return out


_LOOPS = {"_subdivide": _subdivide_loop, "_cap_mesh_edges": _cap_mesh_edges_loop,
          "_sew_guards": _sew_guards_loop,
          "_estimate_cap_distortion": _estimate_cap_distortion_loop,
          "_slit_crossings": _slit_crossings_loop}
_CAP_LOOPS = ("_subdivide", "_cap_mesh_edges", "_sew_guards", "_estimate_cap_distortion")


def _generated_file(monkeypatch, path, spec, seed, loops=()):
    """The bytes and ``h_err`` bits of a file generated with the named loops patched in."""
    with monkeypatch.context() as m:
        for name in loops:
            m.setattr(domains, name, _LOOPS[name])
        sp = generate(spec, seed=seed)
    sp.save(path)
    return path.read_bytes(), float.hex(sp.meta["h_err"])


def test_unit_rows_round_as_the_fixed_order_sum():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(30_000, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    # midpoints of unit vectors, as the subdivision forms them, and raw vectors
    m = np.vstack([0.5 * (u[:15_000] + u[15_000:]), rng.normal(size=(5_000, 3)) * 1e3])
    want = np.array([row / math.sqrt(row[0] * row[0] + row[1] * row[1] + row[2] * row[2])
                     for row in m])
    assert domains._unit_rows(m).tobytes() == want.tobytes()


def test_subdivide_matches_the_midpoint_loop():
    verts, faces = domains._icosahedron()
    loop_verts, loop_faces = verts, faces
    for _ in range(5):
        verts, faces = domains._subdivide(verts, faces)
        loop_verts, loop_faces = _subdivide_loop(loop_verts, loop_faces)
        assert verts.tobytes() == loop_verts.tobytes()
        assert faces.dtype == loop_faces.dtype and np.array_equal(faces, loop_faces)


@pytest.mark.parametrize("h", [0.04, 0.09, 0.12])
@pytest.mark.parametrize("r", [0.35, 0.4 * math.pi, math.pi / 2, 1.2566, 0.9 * math.pi,
                               2.8274])
def test_cap_file_matches_the_loop_generator(tmp_path, monkeypatch, r, h):
    """Every file byte and the h_err bits equal the loop generator's, at seeds 0-2.

    Only the distortion estimate reads the seed, so the mesh loops run at
    seed 0 and the estimate's loop at every seed.
    """
    spec = DomainSpec(kind="cap", resolution=h, cap_radius=r)
    for seed in range(3):
        loops = _CAP_LOOPS if seed == 0 else _CAP_LOOPS[-1:]
        got = _generated_file(monkeypatch, tmp_path / "a.json", spec, seed)
        assert got == _generated_file(monkeypatch, tmp_path / "b.json", spec, seed, loops)


@pytest.mark.parametrize("slits", [
    ((0.25, 0.5, 0.75, 0.5),),                          # axis-aligned, through vertices
    ((0.2, 0.23, 0.81, 0.7),),                          # diagonal, off the lattice
    ((0.25, 0.25, 0.625, 0.5),),                        # ends on vertices, passes through some
    ((0.1, 0.12, 0.9, 0.85), (0.1, 0.85, 0.9, 0.1)),    # two slits that cross
], ids=["axis-aligned", "diagonal", "vertex-touching", "two-crossing"])
def test_slit_square_file_matches_the_loop_cut(tmp_path, monkeypatch, slits):
    spec = DomainSpec(kind="punctured", resolution=1 / 32, stencil_radius=3,
                      removed_segments=slits)
    got = _generated_file(monkeypatch, tmp_path / "a.json", spec, 0)
    assert got == _generated_file(monkeypatch, tmp_path / "b.json", spec, 0,
                                  ["_slit_crossings"])
    # each slit cuts some lattice edge
    grid = domains._square_grid(spec.side, spec.resolution, spec.stencil_radius)
    assert all(domains._slit_crossings(grid.coords, grid.edges, slit).any() for slit in slits)


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="cap", resolution=1e-6, cap_radius=1.0),
    DomainSpec(kind="cap", resolution=1e-310, cap_radius=1.0),
    DomainSpec(kind="punctured", resolution=1e-6),
    DomainSpec(kind="punctured", resolution=1e-310, side=2.0),
    DomainSpec(kind="dense_square", resolution=1e-6, delta=0.2, num_segments=5),
    # the first counts past the limit: 46341**2 and 10 * 4**14 + 2 vertices
    DomainSpec(kind="punctured", resolution=1 / 46340),
    DomainSpec(kind="cap", resolution=domains._cap_levels(1.0)[0] / 2**14, cap_radius=1.0),
], ids=["cap", "cap-overflow", "punctured", "punctured-overflow", "dense_square",
        "punctured-first-past", "cap-first-past"])
def test_meshes_past_int32_ids_are_refused_before_they_are_built(monkeypatch, spec):
    def reached(*args, **kwargs):
        raise AssertionError("a mesh builder ran")

    for name in ("_subdivide", "_square_grid", "_generate_cap", "_generate_dense_square",
                 "_generate_punctured"):
        monkeypatch.setattr(domains, name, reached)
    with pytest.raises(GeometryError, match="does not fit the file's int32 vertex ids"):
        generate(spec, seed=0)


def test_mesh_vertex_counts_at_the_int32_limit():
    # counts only: none of these meshes is built
    assert domains._mesh_vertices(DomainSpec(kind="punctured", resolution=1 / 46339)) \
        == 46340 ** 2 < 2**31
    assert domains._mesh_vertices(DomainSpec(kind="punctured", resolution=1 / 46340)) \
        == 46341 ** 2 >= 2**31
    for levels in (13, 14):
        h = domains._cap_levels(1.0)[0] / 2 ** levels
        assert domains._mesh_vertices(DomainSpec(kind="cap", resolution=h, cap_radius=1.0)) \
            == 10 * 4 ** levels + 2
    assert 10 * 4 ** 13 + 2 < 2**31 <= 10 * 4 ** 14 + 2
