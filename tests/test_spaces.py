"""Metric carriers, geodesic walks, quadruple scans, local domain checks."""

import base64
import gc
import itertools
import json
import math
import os
import pickle
import re
import shlex
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from alexkit import spaces
from alexkit.domains import DomainSpec, generate, unit_sphere_points
from alexkit.errors import (
    DegenerateAngleError,
    GeometryError,
    InvalidTriangleError,
    ResolutionError,
    UndefinedModelAngleError,
    UnreachableError,
)
from alexkit.spaces import (
    SKIP_REASONS,
    DiscreteLengthSpace,
    FiniteMetricSpace,
    GeodesicPath,
    LocalCheckReport,
    SpherePointSet,
    _all_quadruples,
    _quad_defects,
    _quad_sides,
    _scan_distances,
    comparison_angle,
    local_kappa_domain_check,
    quadruple_defect,
    scan_quadruples,
)
from alexkit.trig import angle_from_sides


# ---------------------------------------------------------------------------
# metric validation


def test_finite_metric_space_accepts_valid_matrix():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    ms = FiniteMetricSpace(d)
    assert ms.n_points == 3
    assert ms.submatrix(np.array([2, 0])).tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_finite_metric_space_rejects_violations():
    with pytest.raises(GeometryError):
        FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(GeometryError):
        FiniteMetricSpace(np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    with pytest.raises(GeometryError):
        FiniteMetricSpace(np.array([[0.5, 1.0], [1.0, 0.0]]))  # diagonal


def test_finite_metric_csv_round_trip(tmp_path):
    d = np.array([[0.0, 1.0, 1.2], [1.0, 0.0, 0.8], [1.2, 0.8, 0.0]])
    path = tmp_path / "m.csv"
    FiniteMetricSpace(d).to_csv(path)
    back = FiniteMetricSpace.from_csv(path)
    assert np.allclose(back.dist, d, atol=0)
    direct = tmp_path / "direct.csv"
    np.savetxt(direct, d, delimiter=",", fmt="%.17g")
    assert path.read_bytes() == direct.read_bytes()


def _triangle_violation_reference(d, tol=1e-9):
    """The n-pass check: the first k through which some pair breaks the triangle inequality."""
    for k in range(d.shape[0]):
        if np.any(d > d[:, k][:, None] + d[k, :][None, :] + tol):
            return k
    return None


def _assert_same_verdict(d, tol=1e-9):
    """The tiled check agrees with the n-pass one, and the triple it names breaks the inequality."""
    got = spaces._triangle_violation(d, tol)
    assert (got is None) == (_triangle_violation_reference(d, tol) is None)
    if got is not None:
        i, j, k = got
        assert d[i, j] > d[i, k] + d[k, j] + tol
    return got


@given(n=st.integers(1, 75), seed=st.integers(0, 10_000), sphere=st.booleans(),
       excess=st.sampled_from([0.0, 5e-10, 1e-9, 1.5e-9, 1e-3]), both_sides=st.booleans())
@settings(max_examples=150, deadline=None)
def test_tiled_triangle_check_matches_the_loop(n, seed, sphere, excess, both_sides):
    rng = np.random.default_rng(seed)
    if sphere:
        d = unit_sphere_points(n, seed=seed).submatrix(np.arange(n))
    else:
        pts = rng.normal(size=(n, 3))
        d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    if n >= 2:
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] += excess
        if both_sides:
            d[j, i] = d[i, j]
    _assert_same_verdict(d)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 31, 33, 37, 70])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("both_sides", [False, True])
def test_tiled_triangle_check_at_the_tolerance(n, ulps, both_sides):
    tol = 1e-9
    rng = np.random.default_rng(n)
    for _ in range(4):
        # integer points on a line: every distance and two-hop sum is exact
        x = rng.integers(0, 50, n).astype(float)
        i, j, k = (list(rng.choice(n, 3, replace=False)) if n >= 3
                   else [0, n - 1, None])
        if k is not None:
            x[k] = x[i]  # so the loop's bound for (i, j) is fl(d[i, j] + tol), through k
        d = np.abs(x[:, None] - x[None, :])
        bound = d[i, j] + tol
        d[i, j] = bound if ulps == 0 else np.nextafter(bound, ulps * np.inf)
        if both_sides:
            d[j, i] = d[i, j]
            assert np.array_equal(d, d.T)  # the halved path runs
        got = _assert_same_verdict(d, tol)
        if k is None or ulps < 1:
            assert got is None
        else:
            # raising d[i, j] can break only the inequalities it bounds
            assert got[:2] == (i, j) or (both_sides and got[:2] == (j, i))


@given(n=st.integers(2, 40), seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_tiled_triangle_check_with_coincident_points_and_negative_entries(n, seed):
    tol = 1e-9
    rng = np.random.default_rng(seed)
    # few distinct positions, so many pairs coincide; their zeros move within +-tol
    x = rng.integers(0, 4, n).astype(float)
    d = np.abs(x[:, None] - x[None, :])
    zero = d == 0.0
    d[zero] = rng.choice([-tol, -0.5 * tol, 0.0, 0.5 * tol, tol], size=int(zero.sum()))
    _assert_same_verdict(d, tol)
    _assert_same_verdict(np.minimum(d, d.T), tol)


def test_coincident_points_keep_their_zero_distance():
    # a dense shortest-path closure would read the off-diagonal 0 as no edge
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    assert _assert_same_verdict(d) == (1, 2, 0)
    with pytest.raises(GeometryError) as err:
        FiniteMetricSpace(d)
    assert str(err.value) == "triangle inequality fails: d(1, 2) > d(1, 0) + d(0, 2) + 1e-09"
    d[1, 2] = d[2, 1] = 1.0
    FiniteMetricSpace(d)


def test_sphere_point_set_distances():
    pts = SpherePointSet(np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]]))
    sub = pts.submatrix(np.array([0, 1, 2]))
    assert sub[0, 1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert sub[0, 2] == pytest.approx(math.pi, abs=1e-12)
    assert np.array_equal(sub, sub.T) and not np.diag(sub).any()


# ---------------------------------------------------------------------------
# paths


def test_shortest_path_single_edge(full_square):
    i, j = (int(v) for v in full_square.edges[0])
    path = full_square.shortest_path(i, j)
    assert path.vertices in ([i, j], [j, i]) or len(path.vertices) == 2
    assert path.length == pytest.approx(full_square.weights[0], abs=1e-12)


def test_grid_diagonal_within_distortion(full_square):
    a = full_square.nearest_vertex([0.0, 0.0])
    b = full_square.nearest_vertex([1.0, 1.0])
    path = full_square.shortest_path(a, b)
    exact = math.sqrt(2.0)
    assert exact <= path.length <= exact * (1.0 + full_square.h_err)


def test_path_length_matches_distance_field(full_square):
    a = full_square.nearest_vertex([0.1, 0.2])
    b = full_square.nearest_vertex([0.8, 0.7])
    path = full_square.shortest_path(a, b)
    assert path.length == float(full_square.distance_field(b)[a])
    assert path.arc_lengths[-1] == pytest.approx(path.length, abs=1e-9)
    assert np.all(np.diff(path.arc_lengths) > 0)


def test_punctured_detour_strictly_longer(punctured_square):
    sp = punctured_square
    hole = int(np.flatnonzero(~sp.in_U)[0])
    hx, hy = sp.coords[hole]
    a = sp.nearest_vertex([hx - 0.25, hy], require_in_U=True)
    b = sp.nearest_vertex([hx + 0.25, hy], require_in_U=True)
    free = sp.shortest_path(a, b).length
    detour = sp.shortest_path(a, b, restrict_to_U=True).length
    assert detour > free
    chord = float(np.linalg.norm(sp.coords[a] - sp.coords[b]))
    assert detour > chord


def test_restricted_distance_dominates(punctured_square):
    sp = punctured_square
    rng = np.random.default_rng(0)
    uids = np.flatnonzero(sp.in_U)
    for _ in range(10):
        a, b = (int(v) for v in rng.choice(uids, 2, replace=False))
        d_full = float(sp.distance_field(a)[b])
        d_rest = float(sp.distance_field(a, restrict_to_U=True)[b])
        assert d_rest >= d_full - 1e-12


def test_unreachable_raises(punctured_square):
    hole = int(np.flatnonzero(~punctured_square.in_U)[0])
    other = int(np.flatnonzero(punctured_square.in_U)[0])
    with pytest.raises(UnreachableError):
        punctured_square.shortest_path(hole, other, restrict_to_U=True)


def _reference_walk(space, adj, src, dst, restrict_to_U):
    """Adjacency-list walk of the shortest-path DAG over undirected Dijkstra.

    Pure-Python reference for ``shortest_path`` with its DAG test and tie
    rule, the chord keys summed by ``math.fsum``: a match also shows that
    the choice does not depend on summation order.  None when unreachable
    or stalled.
    """
    edges, weights = space.edges, space.weights
    if restrict_to_U:
        keep = space.in_U[edges[:, 0]] & space.in_U[edges[:, 1]]
        edges, weights = edges[keep], weights[keep]
    n = space.n_points
    g = csr_matrix((weights, (edges[:, 0], edges[:, 1])), shape=(n, n))
    dist_to = dijkstra(g, directed=False, indices=dst)
    total = float(dist_to[src])
    if not math.isfinite(total):
        return None
    p0 = space.coords[src].tolist()
    chord = [b - a for a, b in zip(p0, space.coords[dst].tolist())]
    chord2 = math.fsum(c * c for c in chord)
    verts, arcs, u, walked = [src], [0.0], src, 0.0
    tol = 1e-12 * total
    while u != dst:
        keys = {}
        for v, w in adj[u]:
            dv = dist_to[v]
            if restrict_to_U and not space.in_U[v] or not math.isfinite(dv):
                continue
            if abs((w + dv) - dist_to[u]) > tol or dv >= dist_to[u]:
                continue
            off = [x - a for x, a in zip(space.coords[v].tolist(), p0)]
            t = math.fsum(o * c for o, c in zip(off, chord)) / chord2
            keys[v] = (math.fsum((o - t * c) ** 2 for o, c in zip(off, chord)), w)
        if not keys:
            return None
        # keys within 1e-12 * total**2 of the least tie; the lowest id wins
        least = min(key for key, _ in keys.values())
        u = min(v for v, (key, _) in keys.items() if key <= least + tol * total)
        walked += keys[u][1]
        verts.append(u)
        arcs.append(walked)
    return verts, arcs, total


@pytest.mark.parametrize("name", ["full_square", "punctured_square", "wide_cap"])
def test_shortest_path_matches_adjacency_walk_oracle(request, name):
    sp = request.getfixturevalue(name)
    adj = [[] for _ in range(sp.n_points)]
    for (i, j), w in zip(sp.edges.tolist(), sp.weights.tolist()):
        adj[i].append((j, w))
        adj[j].append((i, w))
    for lst in adj:
        lst.sort()
    rng = np.random.default_rng(11)
    uids = np.flatnonzero(sp.in_U)
    for restrict in (False, True):
        pool = uids if restrict else np.arange(sp.n_points)
        for _ in range(40):
            a, b = (int(v) for v in rng.choice(pool, 2, replace=False))
            ref = _reference_walk(sp, adj, a, b, restrict)
            assert ref is not None
            path = sp.shortest_path(a, b, restrict_to_U=restrict)
            assert path.vertices == ref[0]
            assert all(type(v) is int for v in path.vertices)
            assert path.arc_lengths.tolist() == ref[1]
            assert path.length == ref[2]


def test_distance_field_batches_single_sources(wide_cap):
    sources = [0, 17, int(np.flatnonzero(wide_cap.in_U)[-1])]
    for restrict in (False, True):
        fields = wide_cap.distance_field(sources, restrict_to_U=restrict)
        assert fields.shape == (3, wide_cap.n_points)
        single = np.stack([wide_cap.distance_field(s, restrict_to_U=restrict)
                           for s in sources])
        assert np.array_equal(fields, single)
    assert wide_cap.distance_field(sources[1]).ndim == 1


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# masks of one and two CPUs: a faked mask never exceeds the real one, whose
# size is how many children a call forks
_MASKS = [1] + [2] * (_CPUS >= 2)


def _fake_mask(monkeypatch, cpus):
    monkeypatch.setattr(spaces.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _block_rows(rows, fields):
    """A block's fields, each row led by its row number and its block's size."""
    ids = np.arange(rows.start, rows.stop)
    return np.column_stack([ids, np.full(len(ids), len(ids)), fields])


@pytest.mark.parametrize("cpus", _MASKS)
def test_distance_blocks_are_the_fields_cut_block_by_block(wide_cap, monkeypatch, cpus):
    # 40 sources in blocks of one row: row j holds source j's field, whichever
    # process computed it
    _fake_mask(monkeypatch, cpus)
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 3000)
    sources = np.random.default_rng(2).choice(wide_cap.n_points, 40, replace=False)
    kept = wide_cap.distance_blocks(sources, _block_rows)
    assert kept[:, 0].tolist() == list(range(40))
    assert kept[:, 1].tolist() == [1] * 40
    assert np.array_equal(kept[:, 2:], wide_cap.distance_field(sources))
    assert wide_cap.distance_blocks(sources[:0], _block_rows).shape == (0,)
    _no_child_left()


class _LocalError(Exception):
    """Not picklable: its constructor takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def _cut_short(obj, file, protocol=None):
    """``pickle.dump`` that writes half the bytes, then ends the process."""
    data = pickle.dumps(obj, protocol=protocol)
    file.write(data[:len(data) // 2])
    file.flush()
    os._exit(0)


@pytest.mark.skipif(_CPUS < 2, reason="forks a worker only with two CPUs in the mask")
@pytest.mark.parametrize("block, raised", [
    (0, lambda: GeometryError("in the parent's block")),
    (1, lambda: GeometryError("in a worker's block")),
    (3, lambda: KeyboardInterrupt()),
    (3, lambda: _LocalError(1, 2)),
    (3, "dies"),
    (3, "cut-short"),
], ids=["parent", "worker", "worker-interrupt", "worker-unpicklable", "worker-dies",
        "worker-cut-short"])
def test_distance_blocks_raise_a_block_error_and_leave_no_child(wide_cap, monkeypatch, block,
                                                                raised):
    # a worker that fails sends nothing, and the caller computes its blocks:
    # a block's error is raised as the serial call raises it, and a worker that
    # dies or sends a cut-short pickle changes no bit
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 3000)
    sources = np.arange(6)
    _fake_mask(monkeypatch, 1)
    serial = wide_cap.distance_blocks(sources, _block_rows)
    _fake_mask(monkeypatch, 2)
    # a serial call would not fork
    assert spaces._workers(6) == 2
    parent, in_parent = os.getpid(), []
    error = raised() if callable(raised) else None

    def keep(rows, fields):
        if os.getpid() == parent:
            in_parent.append(rows.start)
        elif raised == "dies" and rows.start == block:
            os._exit(3)  # a worker killed mid-block sends nothing
        if error is not None and rows.start == block:
            raise error
        return _block_rows(rows, fields)

    if raised == "cut-short":
        monkeypatch.setattr(spaces.pickle, "dump", _cut_short)
    if error is None:
        assert wide_cap.distance_blocks(sources, keep).tobytes() == serial.tobytes()
        assert in_parent == [0, 2, 4, 1, 3, 5]
    else:
        with pytest.raises(type(error)) as err:
            wide_cap.distance_blocks(sources, keep)
        assert err.value is error
    _no_child_left()


@pytest.mark.parametrize("cpus", _MASKS)
def test_one_cpu_or_one_block_forks_no_worker(wide_cap, monkeypatch, cpus):
    def fork():
        raise AssertionError("a worker was forked")

    _fake_mask(monkeypatch, cpus)
    monkeypatch.setattr(spaces.os, "fork", fork)
    sources = np.arange(5)
    # five rows are one block at the budget, and five blocks of one row at 3000
    assert wide_cap.distance_blocks(sources, _block_rows)[:, 1].tolist() == [5] * 5
    if cpus == 1:
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 3000)
        assert wide_cap.distance_blocks(sources, _block_rows)[:, 1].tolist() == [1] * 5


_FIXTURES =["convex_cap", "wide_cap", "full_square", "punctured_square", "slit_square",
             "dense_square"]


@pytest.mark.parametrize("name", _FIXTURES)
def test_bounded_distance_field_is_the_full_field_up_to_its_limit(request, name):
    sp = request.getfixturevalue(name)
    rng = np.random.default_rng(4)
    for source in rng.choice(sp.n_points, 4, replace=False):
        for restrict in (False, True):
            full = sp.distance_field(source, restrict_to_U=restrict)
            reach = np.sort(full[np.isfinite(full)])
            # a limit equal to a field value keeps that vertex
            for limit in (3.0 * sp.h, float(np.median(reach)), float(reach[:8][-1])):
                bounded = sp.distance_field(source, restrict_to_U=restrict, limit=limit)
                inside = full <= limit
                assert np.array_equal(bounded[inside], full[inside])
                assert np.all(np.isinf(bounded[~inside]))


def _coo_symmetric(edges, weights, n):
    """The symmetric CSR matrix of weighted pairs by a COO build, as an oracle."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=float)
    return csr_matrix((np.concatenate([weights, weights]),
                       (np.concatenate([edges[:, 0], edges[:, 1]]),
                        np.concatenate([edges[:, 1], edges[:, 0]]))), shape=(n, n))


def _assert_same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        x, y = getattr(got, attr), getattr(want, attr)
        assert x.dtype == y.dtype, attr
        assert np.array_equal(x, y), attr
    assert got.shape == want.shape


@pytest.mark.parametrize("name", _FIXTURES)
def test_restricted_graph_equals_a_second_csr_build(request, name):
    sp = request.getfixturevalue(name)
    _assert_same_csr(sp._graph, _coo_symmetric(sp.edges, sp.weights, sp.n_points))
    keep = sp.in_U[sp.edges[:, 0]] & sp.in_U[sp.edges[:, 1]]
    _assert_same_csr(sp._graph_u,
                     _coo_symmetric(sp.edges[keep], sp.weights[keep], sp.n_points))
    assert (sp._graph_u is sp._graph) == bool(sp.in_U.all())


def _vertex_at_arc_by_tick(path, t):
    """The per-tick rule that ``vertices_at_arcs`` batches, as an oracle."""
    i = int(np.searchsorted(path.arc_lengths, t))
    if i <= 0:
        return path.vertices[0]
    if i >= len(path.vertices):
        return path.vertices[-1]
    before = t - path.arc_lengths[i - 1]
    after = path.arc_lengths[i] - t
    return path.vertices[i - 1] if before <= after else path.vertices[i]


def test_vertices_at_arcs_match_the_per_tick_rule(full_square, slit_square, wide_cap):
    paths = [GeodesicPath([5], np.array([0.0]), 0.0),
             # ties halfway between two vertices go to the earlier one
             GeodesicPath([5, 7, 9, 2], np.array([0.0, 1.0, 2.0, 3.5]), 3.5)]
    rng = np.random.default_rng(2)
    for sp in (full_square, slit_square, wide_cap):
        for _ in range(5):
            a, b = (int(v) for v in rng.choice(np.flatnonzero(sp.in_U), 2, replace=False))
            paths.append(sp.shortest_path(a, b, restrict_to_U=True))
    for path in paths:
        arcs = path.arc_lengths
        ticks = np.concatenate([
            [-1.0, path.length + 1.0], arcs, 0.5 * (arcs[1:] + arcs[:-1]),
            np.linspace(0.0, path.length, 37), rng.uniform(0.0, path.length, 20)])
        got = path.vertices_at_arcs(ticks)
        want = [_vertex_at_arc_by_tick(path, float(t)) for t in ticks]
        assert got.tolist() == want
        assert [path.vertex_at_arc(float(t)) for t in ticks] == want
    assert paths[1].vertices_at_arcs(np.array([0.5, 1.5, 2.75])).tolist() == [5, 7, 9]


@pytest.mark.parametrize("edges", [[[0, 1], [1, 2], [0, 1]],   # duplicate edge
                                   [[0, 1], [2, 1], [1, 0]],   # same edge reversed
                                   [[0, 1], [1, 2], [2, 2]]])  # self-loop
def test_duplicate_edges_and_self_loops_rejected(edges):
    # pairs are sorted into the upper triangle first: a repeat shares its
    # row and column with the pair before it, a self-loop sits on the diagonal
    match = "self-loop" if [2, 2] in edges else "duplicate edges at row"
    with pytest.raises(GeometryError, match=match):
        DiscreteLengthSpace(None, [True] * 3, edges, [1.0] * 3)


def test_space_json_round_trip(tmp_path, punctured_square):
    path = tmp_path / "space.json"
    punctured_square.save(path)
    back = DiscreteLengthSpace.load(path)
    assert back.n_points == punctured_square.n_points
    assert np.array_equal(back.in_U, punctured_square.in_U)
    assert np.allclose(back.coords, punctured_square.coords, atol=0)
    assert back.meta["generator"] == "punctured"
    path2 = tmp_path / "space2.json"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


@st.composite
def _connected_graphs(draw):
    """``(in_U, pairs, weights)`` of a connected graph, pairs in any order and orientation."""
    n = draw(st.integers(1, 14))
    # a spanning tree, each vertex joined to a lower one, then extra edges
    edges = {frozenset((draw(st.integers(0, k - 1)), k)) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=25)):
        if i != j:
            edges.add(frozenset((i, j)))
    pairs = [sorted(e) for e in edges]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [pair[::-1] if flip else pair for pair, flip in zip(pairs, flips)]
    pairs = [pairs[k] for k in draw(st.permutations(range(len(pairs))))]
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pairs), max_size=len(pairs)))
    in_u = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return in_u, pairs, weights


@settings(max_examples=60, deadline=None)
@given(_connected_graphs())
def test_graph_file_round_trip_keeps_the_matrices(graph):
    in_u, pairs, weights = graph
    n = len(in_u)
    sp = DiscreteLengthSpace(None, in_u, pairs, weights)
    _assert_same_csr(sp._graph, _coo_symmetric(pairs, weights, n))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        sp.save(first)
        back = DiscreteLengthSpace.load(first)
        back.save(second)
        assert first.read_bytes() == second.read_bytes()
    _assert_same_csr(back._graph, sp._graph)
    _assert_same_csr(back._graph_u, sp._graph_u)
    assert back.edges.tolist() == sorted(sorted(pair) for pair in pairs)
    for restrict in (False, True):
        assert np.array_equal(back.distance_field(np.arange(n), restrict_to_U=restrict),
                              sp.distance_field(np.arange(n), restrict_to_U=restrict))


def _b64(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _csr_table(indptr, indices, w):
    """A graph file's edge table holding the given upper-triangle CSR arrays."""
    return {"indptr": _b64(indptr, "<i4"), "indices": _b64(indices, "<i4"),
            "w": _b64(w, "<f8")}


def _ij_table(space):
    """The edge table of the ``ij`` format: endpoint pairs, their count and weights."""
    return {"count": len(space.edges), "ij": _b64(space.edges, "<i4"),
            "w": _b64(space.weights, "<f8")}


def _dumps_save(space):
    """The text of one sorted-key ``json.dumps`` of the whole payload, the earlier writer."""
    in_u = space.in_U.tolist()
    if space.coords is None:
        verts = [{"in_U": u} for u in in_u]
    else:
        key = "xy" if space.coords.shape[1] == 2 else "xyz"
        verts = [{"in_U": u, key: c} for u, c in zip(in_u, space.coords.tolist())]
    edges = _csr_table(space._indptr, space._indices, space.weights)
    payload = {"vertices": verts, "edges": edges, "meta": space.meta}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", ["punctured_square", "slit_square", "wide_cap",
                                  "dense_square", "bare", "escaped-meta"])
def test_save_writes_the_bytes_of_one_json_dumps(request, tmp_path, name):
    if name == "bare":
        sp = DiscreteLengthSpace(None, [True, False, True], [[0, 1], [1, 2]], [1.0, 2.5])
    elif name == "escaped-meta":
        sp = DiscreteLengthSpace(None, [True, True], [[0, 1]], [0.5],
                                 meta={"note": 'é "quoted" \\ \n', "a": [1, {"z": 2}]})
    else:
        sp = request.getfixturevalue(name)
    path = tmp_path / "space.json"
    sp.save(path)
    assert path.read_text(encoding="utf-8") == _dumps_save(sp)


def _indented_save(space, path):
    """The indented writer of earlier versions, with edges as [i, j, w] triples."""
    verts = []
    for i in range(space.n_points):
        entry = {"in_U": bool(space.in_U[i])}
        if space.coords is not None:
            key = "xy" if space.coords.shape[1] == 2 else "xyz"
            entry[key] = [float(x) for x in space.coords[i]]
        verts.append(entry)
    data = {
        "vertices": verts,
        "edges": [[int(i), int(j), float(w)] for (i, j), w in zip(space.edges, space.weights)],
        "meta": space.meta,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _assert_same_space(a, b):
    for name in ("in_U", "coords", "edges", "weights"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name
    assert a.meta == b.meta


@pytest.mark.parametrize("name", ["full_square", "punctured_square", "slit_square",
                                  "wide_cap", "dense_square"])
def test_compact_file_decodes_like_indented_file(request, tmp_path, name):
    sp = request.getfixturevalue(name)
    old, first, second = tmp_path / "old.json", tmp_path / "a.json", tmp_path / "b.json"
    _indented_save(sp, old)
    sp.save(first)
    back = DiscreteLengthSpace.load(first)
    _assert_same_space(back, sp)
    back.save(second)
    assert first.read_bytes() == second.read_bytes()
    # the vertex table and meta read as the old writer's; only the edges are binary
    new_data, old_data = json.loads(first.read_text()), json.loads(old.read_text())
    assert new_data["vertices"] == old_data["vertices"]
    assert new_data["meta"] == old_data["meta"]
    table = new_data["edges"]
    assert list(table) == ["indices", "indptr", "w"]
    indptr = np.frombuffer(base64.b64decode(table["indptr"]), dtype="<i4")
    cols = np.frombuffer(base64.b64decode(table["indices"]), dtype="<i4")
    w = np.frombuffer(base64.b64decode(table["w"]), dtype="<f8")
    assert len(indptr) == sp.n_points + 1 and len(cols) == len(w) == len(sp.edges)
    rows = np.repeat(np.arange(sp.n_points), np.diff(indptr))
    assert [[int(i), int(j), float(x)] for i, j, x in zip(rows, cols, w)] == old_data["edges"]
    assert len(first.read_bytes()) < len(old.read_bytes())


def test_old_list_form_file_is_refused_with_its_regeneration_argv(tmp_path, punctured_square):
    path = tmp_path / "old.json"
    _indented_save(punctured_square, path)
    with pytest.raises(GeometryError, match="domain generate") as info:
        DiscreteLengthSpace.load(path)
    argv = shlex.split(str(info.value).split("`")[1])
    assert argv[:3] == ["alexkit", "domain", "generate"]
    assert argv[argv.index("--remove-point") + 1] == "0.5,0.5"
    assert argv[argv.index("--seed") + 1] == "0"
    assert argv[-2:] == ["-o", str(path)]


def test_ij_edge_table_is_refused_with_its_regeneration_argv(tmp_path, punctured_square):
    path, fresh = tmp_path / "old.json", tmp_path / "fresh.json"
    punctured_square.save(fresh)
    data = json.loads(fresh.read_text())
    path.write_text(json.dumps({**data, "edges": _ij_table(punctured_square)}))
    with pytest.raises(GeometryError, match="format no longer read") as info:
        DiscreteLengthSpace.load(path)
    argv = shlex.split(str(info.value).split("`")[1])
    assert argv[:3] == ["alexkit", "domain", "generate"]
    assert argv[argv.index("--remove-point") + 1] == "0.5,0.5"
    assert argv[-2:] == ["-o", str(path)]


def test_failed_save_keeps_previous_file(tmp_path, full_square):
    path = tmp_path / "space.json"
    full_square.save(path)
    before = path.read_bytes()
    broken = DiscreteLengthSpace(full_square.coords, full_square.in_U, full_square.edges,
                                 full_square.weights, meta={"bad": object()})
    with pytest.raises(TypeError):
        broken.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["space.json"]


_TWO = [{"in_U": True}, {"in_U": True}]
_THREE = [{"in_U": True}] * 3
# the edge 0 - 1, and the path 0 - 1 - 2
_EDGE = ([0, 1, 1], [1], [1.0])
_PATH = ([0, 1, 2, 2], [1, 2], [1.0, 1.0])


# cases 3, 13 and 14 were checks of the ij table's count, which went with it
@pytest.mark.parametrize("vertices, edges, match", [
    ([{"in_U": "false"}, {"in_U": True}], [[0, 1, 1.0]], "JSON booleans"),
    ([{"in_U": 1}, {"in_U": True}], [[0, 1, 1.0]], "JSON booleans"),
    (_TWO, {**_csr_table(*_EDGE), "indices": "AAAA!AAAAAAA"}, "malformed"),
    (_TWO, _csr_table([0, 1], [1], [1.0]), "edges.indptr holds 8 bytes where 12"),
    (_TWO, _csr_table([0, 1, 1], [2**31 - 1], [1.0]), "out of range"),
    (_TWO, _csr_table([0, 1, 1], [-1], [1.0]), "out of range"),
    (_THREE, _csr_table(_PATH[0], _PATH[1], [1.0]), "edges.w holds 8 bytes"),
    (_THREE, _csr_table([0, 1, 1, 1], [1], [1.0, 1.0]), "edges.w holds 16 bytes"),
    (_TWO, _csr_table(*_EDGE[:2], [math.nan]), "positive and finite"),
    (_TWO, _csr_table(*_EDGE[:2], [0.0]), "positive and finite"),
    (_THREE, _csr_table([0, 2, 2, 2], [1, 1], [1.0, 1.0]), "duplicate edges"),
    (_TWO, 5, "must be an object"),
    (_TWO, "edges", "must be an object"),
    (_THREE, _csr_table([1, 1, 2, 2], *_PATH[1:]), "rise from 0"),
    (_THREE, _csr_table([0, 2, 1, 2], *_PATH[1:]), "rise from 0"),
    (_TWO, {"indptr": _b64([0, 1, 1], "<i4"), "w": _b64([1.0], "<f8")}, "malformed"),
    (_TWO, [[0, 1, 1.0]], "domain generate"),
    (_THREE, _csr_table([0, 1, 2, 3], *_PATH[1:]), "rise from 0"),
    (_THREE, _csr_table([0, 1, 1, 1], *_PATH[1:]), "rise from 0"),
    (_THREE, {**_csr_table(*_PATH), "indices": "AAAAAAA="}, "indices holds 5 bytes where 4"),
    (_THREE, {**_csr_table(*_PATH), "w": 7}, "malformed"),
    (_THREE, _csr_table(_PATH[0], [1, 1], _PATH[2]), "self-loop .* row 1, column 1"),
    (_THREE, _csr_table(_PATH[0], [1, 0], _PATH[2]), "below the diagonal at row 1"),
    (_THREE, _csr_table([0, 2, 2, 2], [2, 1], _PATH[2]), "columns out of order"),
    (_THREE, _csr_table(_PATH[0], [1, 3], _PATH[2]), "out of range"),
    (_THREE, _csr_table([0, 1, 1, 1], [1], [1.0]), "reaches 2 of 3 vertices"),
    (_THREE, _csr_table(*_PATH[:2], [1.0, -math.inf]), "positive and finite"),
    (_TWO, {"count": 1, "ij": _b64([0, 1], "<i4"), "w": _b64([1.0], "<f8")}, "domain generate"),
    ([{"in_U": True, "xy": []}] * 2, _csr_table(*_EDGE), r"\(2, 2\) or \(2, 3\) array, got "
     r"shape \(2, 0\)"),
    ([{"in_U": True, "xy": 1.0}] * 2, _csr_table(*_EDGE), r"got shape \(2,\)"),
    ([{"in_U": True, "xy": [0.0, 0.0, 0.0, 1.0]}] * 2, _csr_table(*_EDGE), "got shape"),
    ([{"in_U": True, "xy": [[0.0, 1.0]]}] * 2, _csr_table(*_EDGE), "got shape"),
    ([{"in_U": True, "xy": [math.nan, 0.0]}] * 2, _csr_table(*_EDGE), "must be finite"),
    ([{"in_U": True, "xy": [0.0, 0.0]}, {"in_U": True, "xy": [math.nan, 0.0]}],
     _csr_table(*_EDGE), "must be finite"),
    ([{"in_U": True, "xyz": [0.0, 0.0, math.inf]}, {"in_U": True, "xyz": [1.0, 0.0, 0.0]}],
     _csr_table(*_EDGE), "must be finite"),
])
def test_load_rejects_malformed_values(tmp_path, vertices, edges, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=match):
            DiscreteLengthSpace.load(path)


def test_binary_graph_file_names_the_first_undecodable_byte(tmp_path):
    path = tmp_path / "junk.json"
    path.write_bytes(b"{" + bytes(range(256)))
    with pytest.raises(GeometryError) as info:
        DiscreteLengthSpace.load(path)
    assert str(info.value) == f"{path}: not UTF-8 text at byte 129"


@pytest.mark.parametrize("coords, match", [
    ([[0.0, 0.0], [1.0, math.nan]], "must be finite"),
    ([[0.0], [1.0]], r"got shape \(2, 1\)"),
    ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], r"got shape \(3, 2\)"),
])
def test_constructor_rejects_coordinates_that_are_not_a_finite_table(coords, match):
    with pytest.raises(GeometryError, match=match):
        DiscreteLengthSpace(coords, [True, True], [(0, 1)], [1.0])


@pytest.mark.parametrize("meta, match", [
    ("x", "meta must be an object, got str"),
    ([1, 2], "meta must be an object, got list"),
    ({"h_err": "abc"}, "meta.h_err must be a finite number >= 0, got 'abc'"),
    ({"h": "abc"}, "meta.h must be"),
    ({"h": math.nan}, "meta.h must be"),
    ({"h": -0.5}, "meta.h must be"),
    ({"h": 10**400}, "meta.h must be"),
    ({"h_err": True}, "meta.h_err must be"),
    ({"stencil_gap": "x"}, "meta.stencil_gap must be"),
    ({"side": "x"}, "meta.side must be"),
    ({"side": math.inf}, "meta.side must be"),
    ({"exact_metric": "hyperbolic"}, 'meta.exact_metric must be "sphere" or "euclidean"'),
    ({"chord_corrected": 1}, "meta.chord_corrected must be a boolean"),
    ({"segments": "x"}, "meta.segments must be"),
    ({"segments": []}, "meta.segments must be"),
    ({"segments": [[0, 0, 1]]}, "meta.segments must be"),
    ({"segments": [[0, 0, 1, "x"]]}, "meta.segments must be"),
    ({"segments": [[0, 0, 1, math.nan]]}, "meta.segments must be"),
], ids=["string", "list", "h_err-string", "h-string", "h-nan", "h-negative", "h-huge",
        "h_err-bool", "stencil_gap-string", "side-string", "side-inf", "exact-hyperbolic",
        "chord_corrected-int", "segments-string", "segments-empty", "segments-three-columns",
        "segments-string-entry", "segments-nan"])
def test_constructor_rejects_a_meta_member_it_cannot_read(meta, match):
    with pytest.raises(GeometryError, match=re.escape(match)):
        DiscreteLengthSpace(None, [True, True], [(0, 1)], [1.0], meta)


def test_constructor_takes_the_meta_members_it_reads():
    meta = {"h": 1, "h_err": 0.0, "stencil_gap": 0.5, "side": 2.0, "exact_metric": "euclidean",
            "chord_corrected": False, "segments": [[0, 0, 1, 1]], "other": "anything"}
    sp = DiscreteLengthSpace([[0.0, 0.0], [1.0, 0.0]], [True, True], [(0, 1)], [1.0], meta)
    assert sp.meta == meta and sp.meta is not meta
    assert (sp.h, sp.h_err, sp.stencil_gap, sp.exact_metric) == (1.0, 0.0, 0.5, "euclidean")
    assert DiscreteLengthSpace(None, [True, True], [(0, 1)], [1.0]).meta == {}


# (0, 0) and (3, 4) are 5 apart; (9, 9) is joined to neither
_XY = [{"in_U": True, "xy": [0.0, 0.0]}, {"in_U": True, "xy": [3.0, 4.0]},
       {"in_U": True, "xy": [9.0, 9.0]}]


# the last two files are both disconnected and mis-embedded: the embedding check
# comes first, since only the connectivity search needs the symmetric matrix
@pytest.mark.parametrize("vertices, w, meta, match", [
    (_XY[:2], 4.0, {}, r"edge weights disagree with embedding by 1.0$"),
    (_XY[:2], 4.9, {"chord_corrected": True}, "arc weights shorter than chords"),
    (_XY, 5.0, {}, "reaches 2 of 3 vertices"),
    (_XY, 4.0, {}, r"edge weights disagree with embedding by 1.0$"),
    (_XY, 4.9, {"chord_corrected": True}, "arc weights shorter than chords"),
])
def test_load_checks_the_embedding_before_the_connectivity(tmp_path, vertices, w, meta,
                                                           match):
    path = tmp_path / "bad.json"
    table = _csr_table([0, 1] + [1] * (len(vertices) - 1), [1], [w])
    path.write_text(json.dumps({"vertices": vertices, "edges": table, "meta": meta}))
    with pytest.raises(GeometryError, match=match):
        DiscreteLengthSpace.load(path)


def test_embedding_error_is_the_one_of_summed_squares(punctured_square):
    # the check sums in place, in the order of sum(squares[1:], squares[0])
    sp = punctured_square
    w = sp.weights * (1.0 + 1e-7 * np.sin(np.arange(len(sp.weights))))
    rows = sp.edges[:, 0]
    squares = [(x[rows] - x[sp._indices]) ** 2 for x in np.ascontiguousarray(sp.coords.T)]
    err = np.abs(np.sqrt(sum(squares[1:], squares[0])) - w).max()
    with pytest.raises(GeometryError) as info:
        DiscreteLengthSpace(sp.coords, sp.in_U, sp.edges, w, sp.meta)
    assert str(info.value) == f"edge weights disagree with embedding by {float(err)!r}"


def _traced(f):
    """``f()``, and the bytes it left traced and its traced peak, both counted from its start.

    A first call outside the traced window takes the imports and caches.
    """
    f()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        retained, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return out, retained, peak


def test_load_peak_is_the_space_and_one_transposed_copy(tmp_path):
    """A load holds at its peak what the space keeps, and the transposed upper triangle.

    ``up + up.T`` needs ``up.T`` as CSR: one more copy of the columns, the
    weights and the row offsets, freed once the sum is built.  Everything
    else a load makes (the parsed file, the checks' temporaries) must fit
    under that peak; the matrix objects and call frames add a few kB,
    whatever the graph's size.
    """
    grid = generate(DomainSpec(kind="punctured", resolution=1 / 32, side=2.0,
                               stencil_radius=5), seed=1)
    path = tmp_path / "grid.json"
    grid.save(path)
    del grid
    sp, retained, peak = _traced(lambda: DiscreteLengthSpace.load(path))
    m, n = len(sp.weights), sp.n_points
    assert m == 154_880
    transposed = m * (sp._indices.itemsize + sp.weights.itemsize) + (n + 1) * sp._indptr.itemsize
    assert peak <= retained + transposed + 2**16, (peak, retained, transposed)


def test_shortest_path_reuses_a_given_destination_field(punctured_square):
    sp = punctured_square
    src, dst = 3, sp.n_points - 5
    for restrict in (False, True):
        field_to = sp.distance_field(dst, restrict_to_U=restrict)
        given = sp.shortest_path(src, dst, restrict_to_U=restrict, dist_to=field_to)
        fresh = sp.shortest_path(src, dst, restrict_to_U=restrict)
        assert given.vertices == fresh.vertices
        assert given.arc_lengths.tolist() == fresh.arc_lengths.tolist()


# ---------------------------------------------------------------------------
# comparison angles between actual points


def test_comparison_angle_collinear(full_square):
    q = full_square.nearest_vertex([0.5, 0.5])
    p = full_square.nearest_vertex([0.25, 0.5])
    s = full_square.nearest_vertex([0.75, 0.5])
    ang = comparison_angle(full_square, q, p, s, 0.0)
    assert ang == pytest.approx(math.pi, abs=1e-9)


def test_comparison_angle_euclidean_embedded(full_square):
    q = full_square.nearest_vertex([0.25, 0.25])
    p = full_square.nearest_vertex([0.75, 0.25])
    s = full_square.nearest_vertex([0.25, 0.75])
    ang = comparison_angle(full_square, q, p, s, 0.0)
    vq, vp, vs = (full_square.coords[i] for i in (q, p, s))
    u = vp - vq
    v = vs - vq
    expected = math.acos(float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))
    # exact euclidean metric is recorded for the full square
    assert ang == pytest.approx(expected, abs=1e-9)


def test_comparison_angle_sphere_oracle():
    pts = unit_sphere_points(40, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(25):
        q, p, s = (int(v) for v in rng.choice(40, 3, replace=False))
        d = pts.submatrix(np.array([q, p, s]))
        dq, ds, dps = d[0, 1], d[0, 2], d[1, 2]
        if dq + ds + dps >= 2 * math.pi - 0.1 or min(dq, ds) < 0.05:
            continue
        got = comparison_angle(pts, q, p, s, 1.0)
        # spherical law of cosines on exact coordinates
        expected = math.acos(
            np.clip((math.cos(dps) - math.cos(dq) * math.cos(ds))
                    / (math.sin(dq) * math.sin(ds)), -1.0, 1.0)
        )
        assert got == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# quadruple defects


def test_quadruple_defect_flat_interior_point():
    # p strictly inside the triangle: angles at p close up to exactly 2*pi
    coords = np.array([[0.3, 0.25], [0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    ms = FiniteMetricSpace(d)
    defect = quadruple_defect(ms, 0, 1, 2, 3, 0.0)
    assert defect == pytest.approx(0.0, abs=1e-9)


def test_quadruple_defect_permutation_invariance():
    pts = unit_sphere_points(12, seed=5)
    base = quadruple_defect(pts, 0, 1, 2, 3, 0.7)
    for perm in ((1, 3, 2), (2, 1, 3), (3, 2, 1)):
        assert quadruple_defect(pts, 0, *perm, 0.7) == pytest.approx(base, abs=1e-12)


def test_quadruple_defect_vacuous_at_large_kappa():
    pts = SpherePointSet(np.array([
        [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1 / math.sqrt(2), -1 / math.sqrt(2), 0],
    ]))
    assert quadruple_defect(pts, 0, 1, 2, 3, 30.0) is None


def test_quadruple_defect_monotone_in_kappa():
    pts = unit_sphere_points(30, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(30):
        ids = [int(v) for v in rng.choice(30, 4, replace=False)]
        lo = quadruple_defect(pts, *ids, -1.0)
        hi = quadruple_defect(pts, *ids, 0.8)
        if lo is None or hi is None:
            continue
        assert lo >= hi - 1e-12


def test_quadruple_requires_distinct_points():
    pts = unit_sphere_points(8, seed=0)
    with pytest.raises(GeometryError):
        quadruple_defect(pts, 0, 0, 1, 2, 0.0)


# ---------------------------------------------------------------------------
# scans


def test_scan_sphere_at_unit_curvature():
    pts = unit_sphere_points(300, seed=0)
    rep = scan_quadruples(pts, 1.0, samples=20_000, seed=7)
    assert rep.min_defect >= -1e-6
    assert rep.kappa_max == pytest.approx(1.0, abs=5e-3)
    assert rep.exact_metric == "sphere"


def test_scan_sphere_witness_above_unit_curvature():
    pts = unit_sphere_points(300, seed=0)
    rep = scan_quadruples(pts, 1.5, samples=20_000, seed=7)
    assert rep.min_defect < -1e-6
    assert rep.worst_case


def test_scan_very_negative_kappa_all_nonnegative():
    pts = unit_sphere_points(100, seed=1)
    rep = scan_quadruples(pts, -1e6, samples=5_000, seed=3)
    assert rep.min_defect >= -1e-9


def test_scan_exhaustive_small_set():
    pts = unit_sphere_points(12, seed=4)
    rep = scan_quadruples(pts, 1.0, samples=10, seed=0, exhaustive=True)
    # 4 * C(12, 4) oriented quadruples
    assert rep.samples == 4 * math.comb(12, 4)
    assert rep.min_defect >= -1e-9


def test_exhaustive_scan_of_more_than_60_points_is_refused_before_the_block(wide_cap,
                                                                           monkeypatch):
    def submatrix(idx):
        raise AssertionError("the distance block was built")

    monkeypatch.setattr(wide_cap, "submatrix", submatrix)
    assert wide_cap.n_points > 600
    for subset in (61, 600):
        with pytest.raises(GeometryError, match="exhaustive scan limited to 60 points"):
            scan_quadruples(wide_cap, 1.0, samples=10, seed=1, subset=subset, exhaustive=True)


def test_scan_deterministic():
    pts = unit_sphere_points(100, seed=1)
    a = asdict(scan_quadruples(pts, 1.0, samples=5_000, seed=3))
    b = asdict(scan_quadruples(pts, 1.0, samples=5_000, seed=3))
    assert a == b


def test_scan_wide_cap_completion_violates_unit_curvature(wide_cap, convex_cap):
    # past the half sphere the boundary circle turns concave and intrinsic
    # distances between near-opposite points wrap around the missing disk,
    # so the completion genuinely fails the curvature-1 quadruple condition;
    # the sub-half-sphere cap satisfies it to roundoff on exact distances
    rep_wide = scan_quadruples(wide_cap, 1.0, samples=20_000, seed=2, subset=400)
    assert rep_wide.exact_metric is None
    assert rep_wide.min_defect < -rep_wide.tol
    rep_convex = scan_quadruples(convex_cap, 1.0, samples=20_000, seed=2)
    assert rep_convex.exact_metric == "sphere"
    assert rep_convex.min_defect >= -1e-6


@pytest.mark.parametrize("carrier", ["csv", "wide_cap", "convex_cap", "full_square"])
def test_scan_blocks_do_not_change_the_report(request, monkeypatch, carrier):
    # a CSV matrix, the graph metric, and the sphere's and the plane's closed forms
    if carrier == "csv":
        space = FiniteMetricSpace(unit_sphere_points(300, seed=5).submatrix(np.arange(300)))
    else:
        space = request.getfixturevalue(carrier)
    kwargs = {"samples": 4_000, "seed": 7, "subset": 200}
    whole = scan_quadruples(space, 1.0, **kwargs)
    assert whole.work["probes"] > 1
    # one Dijkstra row, one closed-form row and 75 probe rows in a block, on
    # one CPU and on two
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 3000)
    for cpus in _MASKS:
        _fake_mask(monkeypatch, cpus)
        assert scan_quadruples(space, 1.0, **kwargs) == whole


@pytest.fixture(scope="module")
def fine_wide_cap():
    # 10,191 vertices, against the 2,596 of wide_cap
    return generate(DomainSpec(kind="cap", resolution=0.06, cap_radius=0.9 * math.pi), seed=0)


# bytes a scan holds per sampled row at most: the quadruple's four int64 ids
# and its six sides (10 words), and at most 6 words more, whether the draw's
# sorted copy or the search's per-row arrays (holds_to, the active rows, a
# probe's defects in blocks and joined)
_SCAN_ROW_BYTES = 16 * 8


@pytest.mark.parametrize("samples", [25_000, 100_000])
@pytest.mark.parametrize("cap", ["wide_cap", "fine_wide_cap"])
def test_scan_peak_is_the_block_and_the_per_row_arrays(request, cap, samples):
    """A graph scan's traced peak does not grow with the graph, nor per row past its arrays.

    The subset's m x m distance block, the per-row arrays and two block
    budgets (a Dijkstra block with its ``idx`` columns, or a probe block of
    rows) bound it, plus 64 KiB for the objects and frames.
    """
    space = request.getfixturevalue(cap)
    rep, _, peak = _traced(lambda: scan_quadruples(space, 1.0, samples=samples, seed=3))
    m = rep.subset_size
    assert m == 600
    bound = 8 * m * m + _SCAN_ROW_BYTES * samples + 2 * 8 * spaces._BLOCK_ELEMENTS + 2**16
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("carrier", ["sphere", "sphere_points", "wide_cap", "convex_cap",
                                     "full_square"])
def test_scan_defects_match_scalar_quadruple_defect(request, carrier, kappa):
    pts = unit_sphere_points(40, seed=0)
    if carrier == "sphere":
        space = FiniteMetricSpace(pts.submatrix(np.arange(40)))
    elif carrier == "sphere_points":
        space = pts
    else:
        space = request.getfixturevalue(carrier)
    # each graph oracle call computes a 4-source field: fewer rows there
    samples = 3000 if space is pts or carrier == "sphere" else 300
    dist, idx, quads = _scan_distances(space, 60, 3, samples)
    defects, vacuous = _quad_defects(_quad_sides(dist, quads), kappa)
    # the scalar oracle reads the space's own block of the four points, whose
    # entries equal the scan block's bit for bit, so the two differ only in
    # the cosine-law arithmetic.  Below zero curvature, math.sinh and np.sinh
    # may round apart, and arccos near 1 on a graph-collinear triple turns
    # one ulp into 1e-7, so this bound holds only for kappa >= 0
    assert not vacuous.all()
    # at kappa 2 perimeters past pi*sqrt(2) leave some quadruples of the
    # sphere and the caps undefined; the unit square has none so long
    assert kappa < 2.0 or vacuous.any() != (carrier == "full_square")
    for row, quad in enumerate(idx[quads].tolist()):
        scalar = quadruple_defect(space, *quad, kappa)
        assert (scalar is None) == vacuous[row] == np.isnan(defects[row])
        if scalar is not None:
            assert abs(scalar - defects[row]) <= 1e-12


def test_scan_counts_rows_with_a_zero_side_as_skipped():
    # a pseudo-metric that validate accepts: 8 points of the plane, point 1
    # moved onto point 0.  At kappa -1 every model triangle exists, yet the
    # scan once counted the 11 rows with a zero adjacent side as vacuous
    pts = np.random.default_rng(0).standard_normal((8, 2))
    pts[1] = pts[0]
    space = FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
    rep = scan_quadruples(space, -1.0, samples=400, seed=0)
    assert (rep.samples, rep.evaluated, rep.vacuous, rep.skipped) == (173, 162, 0, 11)
    # skipped rows hold at every probe
    assert rep.kappa_max == 1.0547625037257062e-09
    dist, idx, quads = _scan_distances(space, 600, 0, 400)
    for kappa in (-1.0, 1.0, 4.0):
        defects, vacuous = _quad_defects(_quad_sides(dist, quads), kappa)
        for row, quad in enumerate(idx[quads].tolist()):
            try:
                scalar = quadruple_defect(space, *quad, kappa)
            except (DegenerateAngleError, InvalidTriangleError):
                assert np.isnan(defects[row]) and not vacuous[row], (kappa, quad)
            else:
                assert (scalar is None) == vacuous[row] == np.isnan(defects[row]), (kappa, quad)
        if kappa == 4.0:
            assert vacuous.any()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_scan_defect_monotone_in_kappa_property(seed):
    pts = unit_sphere_points(30, seed=seed % 7)
    rng = np.random.default_rng(seed)
    ids = [int(v) for v in rng.choice(30, 4, replace=False)]
    k1, k2 = sorted(rng.uniform(-2.0, 1.0, 2))
    d1 = quadruple_defect(pts, *ids, k1)
    d2 = quadruple_defect(pts, *ids, k2)
    if d1 is not None and d2 is not None:
        assert d1 >= d2 - 1e-12


def _loop_quadruples(m):
    """Every oriented quadruple of m points, built one tuple at a time."""
    rows = []
    for combo in itertools.combinations(range(m), 4):
        for p in combo:
            rows.append((p, *(x for x in combo if x != p)))
    return np.array(rows, dtype=np.int64)


def _reference_bracket(holds, kappa, bound, top):
    """Oracle for ``_kappa_max``: the first probe, the bracket and the bisection.

    ``holds(kappa)`` is called here as the first probe.  Returns
    ``(kappa_max, rule)``.
    """
    held = holds(kappa)
    if bound == math.inf:
        return math.inf, "perimeter"
    if (held or kappa > top) and holds(top):
        return top, "perimeter"
    if held and kappa <= top:
        lo, hi = kappa, top
    else:
        hi = min(kappa, top)
        lo = None
        for step in [hi - bound * 2.0 ** j for j in range(64)]:
            if holds(step):
                lo = step
                break
            hi = step
        if lo is None:
            return -math.inf, "defect"
    for _ in range(64):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, "defect"


def _kappa_max_reference(space, kappa, samples, seed, subset=600, tol=None, exhaustive=False):
    """Oracle for the scan's search: every probe evaluates every quadruple.

    The perimeter bound is the least ``(2*pi / P)**2`` over rows, row by row,
    and the top of the bracket the largest float below it at which every
    row's longest perimeter passes the kernel's test.  A row holds when it
    is not vacuous and fails by no more than the tolerance.  Returns
    ``(kappa_max, rule, bound, [(kappa, holds), ...])``, one pair per probe.
    """
    dist, _, quads = _scan_distances(space, subset, seed, samples)
    if exhaustive:
        quads = _loop_quadruples(dist.shape[0])
    if tol is None:
        tol = 1e-9 if space.exact_metric else max(1e-9, 24.0 * space.h_err)
    sides = _quad_sides(dist, quads)
    longest = _longest_perimeters(sides)
    bound = float(np.min(np.square(2.0 * math.pi / longest), initial=math.inf))
    top = float(np.nextafter(bound, 0.0))  # the bound is positive
    while not (longest < 2.0 * math.pi / np.sqrt(top)).all():
        top = float(np.nextafter(top, 0.0))
    outcomes = []

    def holds(kprobe):
        d, vacuous = _quad_defects(sides, kprobe)
        result = not (vacuous | (d < -tol)).any()
        outcomes.append((kprobe, result))
        return result

    return (*_reference_bracket(holds, kappa, bound, top), bound, outcomes)


def _longest_perimeters(sides):
    """Each row's largest triangle perimeter, summed as the kernel sums it."""
    px1, px2, px3, x12, x23, x31 = sides
    return np.maximum.reduce([x12 + px1 + px2, x23 + px2 + px3, x31 + px3 + px1])


def _scan_with_outcomes(monkeypatch, space, kappa, **kwargs):
    """``scan_quadruples`` plus the outcome of each of its probes, first probe included."""
    outcomes = []
    kappa_max = spaces._kappa_max

    def recording(holds, k, held, bound, top):
        outcomes.append((k, held))

        def recorded(kprobe):
            result = holds(kprobe)
            outcomes.append((kprobe, result))
            return result

        return kappa_max(recorded, k, held, bound, top)

    with monkeypatch.context() as patch:
        patch.setattr(spaces, "_kappa_max", recording)
        rep = scan_quadruples(space, kappa, **kwargs)
    return rep, outcomes


def _assert_matches_reference(monkeypatch, space, kappa, **kwargs):
    rep, outcomes = _scan_with_outcomes(monkeypatch, space, kappa, **kwargs)
    ref_kappa_max, ref_rule, ref_bound, ref_outcomes = _kappa_max_reference(space, kappa,
                                                                            **kwargs)
    assert outcomes == ref_outcomes
    assert rep.kappa_max == ref_kappa_max  # bit for bit, -inf included
    assert (rep.kappa_max_rule, rep.perimeter_bound) == (ref_rule, ref_bound)
    assert rep.censored == math.isinf(rep.kappa_max)
    assert rep.work["probes"] == len(outcomes)
    # the search probes nothing at or above the bound after the first probe
    assert all(k < rep.perimeter_bound for k, _ in outcomes[1:])
    return rep


# four points of a tripod: the centre's three comparison angles are pi at every
# kappa up to (pi/2)^2, so the condition fails as far down as the search looks
_TRIPOD = FiniteMetricSpace(np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 2.0, 2.0],
                                      [1.0, 2.0, 0.0, 2.0], [1.0, 2.0, 2.0, 0.0]]))


@pytest.mark.parametrize("kappa", [-1e6, -20.0, -1.0, 0.0, 1.0, 1.5, 3.0])
def test_scan_kappa_max_matches_full_pass_bisection_on_sphere(monkeypatch, kappa):
    pts = unit_sphere_points(200, seed=0)
    rep = _assert_matches_reference(monkeypatch, pts, kappa, samples=6_000, seed=7)
    # a defect fails just above 1, below the perimeter bound
    assert rep.kappa_max_rule == "defect" and not rep.censored
    assert 1.0 <= rep.kappa_max < rep.perimeter_bound
    if kappa >= 0.0:
        # witness rows and settled rows leave most of the full passes undone
        assert rep.work["quadruple_evaluations"] < rep.work["probes"] * rep.samples / 3


def test_scan_kappa_max_matches_full_pass_bisection_on_wide_cap(monkeypatch, wide_cap):
    for kappa in (0.0, 1.0, 3.0):
        rep = _assert_matches_reference(monkeypatch, wide_cap, kappa, samples=6_000, seed=2,
                                        subset=300)
        # no defect fails below the bound: two probes, --kappa and the top
        assert rep.kappa_max == math.nextafter(rep.perimeter_bound, -math.inf)
        assert rep.kappa_max_rule == "perimeter" and not rep.censored
        assert rep.work["probes"] == 2


def test_scan_without_quadruples_reads_infinite_kappa_max():
    # the one sampled quadruple repeats a point, so no row is left
    seed = next(s for s in range(100) if len(_scan_distances(_TRIPOD, 600, s, 1)[2]) == 0)
    rep = scan_quadruples(_TRIPOD, 0.0, samples=1, seed=seed)
    assert (rep.samples, rep.evaluated, rep.vacuous) == (0, 0, 0)
    assert rep.perimeter_bound == math.inf and rep.kappa_max == math.inf
    assert rep.censored and rep.kappa_max_rule == "perimeter"
    assert rep.work == {"probes": 1, "quadruple_evaluations": 0}


def test_scan_censored_when_downward_search_reaches_minus_infinity(monkeypatch):
    rep = _assert_matches_reference(monkeypatch, _TRIPOD, 0.0, samples=200, seed=0)
    assert rep.kappa_max == -math.inf
    assert rep.censored and rep.kappa_max_rule == "defect"
    assert rep.min_defect == pytest.approx(-math.pi)
    # the first probe and the 64 steps down
    assert rep.work["probes"] == 65


def test_scan_kappa_max_matches_full_pass_bisection_exhaustive(monkeypatch):
    pts = unit_sphere_points(12, seed=4)
    rep = _assert_matches_reference(monkeypatch, pts, 1.0, samples=10, seed=0,
                                    exhaustive=True)
    assert rep.samples == 4 * math.comb(12, 4)


@pytest.mark.parametrize("m", [4, 5, 12, 20])
def test_all_quadruples_matches_the_loop_enumeration(m):
    assert np.array_equal(_all_quadruples(m), _loop_quadruples(m))


def _small_space(n, dim, seed, sphere):
    if sphere:
        return unit_sphere_points(n, seed=seed)
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    return FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=-1))


@given(n=st.integers(4, 14), dim=st.integers(2, 3), seed=st.integers(0, 10_000),
       kappa=st.floats(-5.0, 5.0), sphere=st.booleans())
@settings(max_examples=25, deadline=None)
def test_scan_kappa_max_matches_full_pass_bisection_property(n, dim, seed, kappa, sphere):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_reference(monkeypatch, _small_space(n, dim, seed, sphere), kappa,
                                  samples=300, seed=seed)


@given(n=st.integers(5, 14), dim=st.integers(2, 3), seed=st.integers(0, 10_000),
       kappa=st.floats(-5.0, 5.0), sphere=st.booleans())
# rows undefined by rounding at the bound once counted as holding there, and
# kappa_max read 0.2434718717313102 by the perimeter rule above failing rows
@example(n=7, dim=3, seed=21, kappa=0.0, sphere=False)
@settings(max_examples=25, deadline=None)
def test_kappa_max_is_a_tested_bound_property(n, dim, seed, kappa, sphere):
    space = _small_space(n, dim, seed, sphere)
    rep = scan_quadruples(space, kappa, samples=300, seed=seed)
    assert rep.kappa_max < rep.perimeter_bound
    if not math.isfinite(rep.kappa_max):
        return
    dist, _, quads = _scan_distances(space, 600, seed, 300)
    sides = _quad_sides(dist, quads)
    longest = _longest_perimeters(sides)
    # kappa_max and a grid below it, from 1e-4 of its scale down to 4 of it:
    # every row is defined there, none fails, and no triangle is too long
    # for a model triangle
    scale = max(abs(rep.kappa_max), rep.perimeter_bound)
    for g in rep.kappa_max - scale * np.append(0.0, np.geomspace(1e-4, 4.0, 15)):
        d, undefined = _quad_defects(sides, g)
        assert not (undefined | (d < -rep.tol)).any()
        assert g <= 0.0 or (longest < 2.0 * math.pi / math.sqrt(g)).all()


@given(kappa=st.floats(-5.0, 5.0), bound=st.floats(0.1, 50.0),
       switches=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 1e-12)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_kappa_max_is_never_below_a_probe_that_held(kappa, bound, switches):
    # below the bound holds() switches at each break, so it need not be monotone
    breaks = [kappa + step + tiny for step, tiny in switches]
    probes = []

    def holds(k):
        result = k < bound and sum(b <= k for b in breaks) % 2 == 0
        probes.append((k, result))
        return result

    kappa_max, _ = spaces._kappa_max(holds, kappa, holds(kappa), bound,
                                     math.nextafter(bound, -math.inf))
    held = [k for k, ok in probes if ok]
    assert kappa_max == -math.inf or kappa_max in held
    first_failure = min((k for k, ok in probes if not ok), default=math.inf)
    assert kappa_max >= max((k for k in held if k < first_failure), default=-math.inf)


_K0, _BOUND = 0.3, 2.0
_TOP = math.nextafter(_BOUND, -math.inf)
# (kappa, bound, what holds below the bound): a threshold t for "k <= t", or a
# predicate that need not be monotone
_LADDER_CASES = {
    # the first probe holds: top holds, or [kappa, top] is bisected
    **{f"up-{d}": (_K0, _BOUND, _K0 + d) for d in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)},
    "up-31": (_K0, _BOUND, _K0 + 31.0),
    "up-100": (_K0, _BOUND, _K0 + 100.0),
    "at-top": (_K0, _BOUND, _TOP),
    # the first probe fails below the bound: steps of 2, 4, 8, ... down from
    # kappa, thresholds in their gaps and on them
    **{f"down-{d}": (_K0, _BOUND, _K0 - d)
       for d in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 31.0)},
    "far-down": (_K0, _BOUND, _K0 - 1e18),
    "minus-inf": (_K0, _BOUND, -math.inf),
    # fails only on a band between kappa and top
    "skipped-band": (_K0, _BOUND, lambda k: not _K0 + 0.5 <= k < _K0 + 0.8),
    "odd-floor": (_K0, _BOUND, lambda k: math.floor(k) % 2 == 1),
    # the first probe is at or above the bound: top first, then steps down from it
    **{f"above-{t}": (5.0, _BOUND, t) for t in (10.0, _TOP, 1.0, -7.0)},
    "on-bound": (_BOUND, _BOUND, 10.0),
    # no row: the bound is +inf, and so is kappa_max
    "no-row": (_K0, math.inf, 10.0),
}


@pytest.mark.parametrize("kappa, bound, below", _LADDER_CASES.values(), ids=_LADDER_CASES)
def test_kappa_max_walks_the_reference_ladder(kappa, bound, below):
    holds = below if callable(below) else lambda k: k <= below
    probes, ref_probes = [], []

    def recorded(log):
        def probe(k):
            log.append(k)
            return k < bound and holds(k)
        return probe

    probe = recorded(probes)
    top = math.nextafter(bound, -math.inf)
    got = spaces._kappa_max(probe, kappa, probe(kappa), bound, top)
    assert got == _reference_bracket(recorded(ref_probes), kappa, bound, top)  # +-inf included
    assert probes == ref_probes
    if not callable(below):
        assert got[1] == ("perimeter" if min(below, bound) >= _TOP else "defect")
        if got[1] == "defect":
            assert got[0] == below  # bisected down to the threshold itself, or -inf


def test_scan_kappa_max_is_not_below_the_step_that_held_on_the_sphere():
    # from kappa 0 the search bisects [0, top], and every curvature up to 1
    # holds on exact sphere distances; the absolute ladder's step to 1 once
    # held here while its bisection reported 1 - 9.1e-13
    rep = scan_quadruples(unit_sphere_points(200, seed=0), 0.0, samples=6_000, seed=7)
    assert rep.kappa_max >= 1.0


def _scaled(space, c):
    """``space`` with every distance multiplied by c."""
    if isinstance(space, DiscreteLengthSpace):
        return DiscreteLengthSpace(space.coords * c, space.in_U, space.edges, space.weights * c,
                                   {**space.meta, "h": space.meta["h"] * c})
    return FiniteMetricSpace(space.dist * c)


_SCAN_RESULTS = {}


@given(k=st.integers(-4, 4), carrier=st.sampled_from(["csv_sphere", "graph"]))
@settings(max_examples=20, deadline=None)
def test_scan_is_scale_invariant_under_powers_of_two(wide_cap, k, carrier):
    # (X, c*d) has curvature >= kappa/c^2 exactly when (X, d) has curvature
    # >= kappa; for c a power of two the kernels scale exactly too
    if carrier == "graph":
        space, kwargs = wide_cap, {"samples": 3_000, "subset": 120, "seed": 4}
    else:
        pts = unit_sphere_points(60, seed=3)
        space, kwargs = FiniteMetricSpace(pts.submatrix(np.arange(60))), {"samples": 4_000,
                                                                          "seed": 1}
    if carrier not in _SCAN_RESULTS:
        _SCAN_RESULTS[carrier] = scan_quadruples(space, 0.5, **kwargs)
    ref = _SCAN_RESULTS[carrier]
    c = 2.0 ** k
    rep = scan_quadruples(_scaled(space, c), 0.5 / c**2, **kwargs)
    for name in ("min_defect", "evaluated", "vacuous", "work", "kappa_max_rule", "censored"):
        assert getattr(rep, name) == getattr(ref, name), name
    assert rep.kappa_max * c**2 == ref.kappa_max
    assert rep.perimeter_bound * c**2 == ref.perimeter_bound


@pytest.fixture(scope="module")
def stencil3_grid():
    # side 2, h 1/48, stencil radius 3, one point removed: most walk steps
    # there choose among exactly tied chord keys
    return generate(DomainSpec(kind="punctured", resolution=1 / 48, side=2.0,
                               stencil_radius=3, removed_points=((1.13, 1.07),)), seed=0)


@pytest.mark.parametrize("name", ["stencil3_grid", "wide_cap"])
def test_geodesics_do_not_change_under_rescaling(request, name):
    # with np.dot chord keys and an absolute DAG tolerance, 19-29 of 150 grid
    # paths changed under each decimal scaling
    sp = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    uids = np.flatnonzero(sp.in_U)
    # 15 destinations with 5 sources each, restricted and not: 150 pairs
    walks = []
    for restrict in (False, True):
        pool = uids if restrict else np.arange(sp.n_points)
        for b in rng.choice(pool, 15, replace=False).tolist():
            walks.append((restrict, b, rng.choice(pool, 5).tolist()))

    def paths(space):
        return [space.shortest_path(a, b, restrict, dist_to=field).vertices
                for restrict, b, sources in walks
                for field in [space.distance_field(b, restrict_to_U=restrict)]
                for a in sources]

    ref = paths(sp)
    for c in (2**-4, 2**-1, 2**3, 0.01, 0.1, 3.0, 10.0, 100.0):
        got = paths(_scaled(sp, c))
        assert got == ref, (c, sum(g != r for g, r in zip(got, ref)))


@pytest.mark.parametrize("seed", range(4))
def test_local_check_is_scale_invariant(stencil3_grid, seed):
    # angles, counts and ids are scale-free.  When walk ties were decided by
    # rounding, seed 0 at c = 0.1 read base_worst 0.142 against 0.105; when
    # the window tests had no slack, seed 3 at c = 0.1 or 10 split at another
    # vertex
    center = stencil3_grid.nearest_vertex([1.0, 1.0])
    args = {"kappa": 0.0, "samples": 6, "h_angle": 3, "seed": seed}
    ref = local_kappa_domain_check(stencil3_grid, center, 1.6, **args)
    for c in (2**-3, 0.1, 10.0):
        rep = local_kappa_domain_check(_scaled(stencil3_grid, c), center, 1.6 * c, **args)
        for name in ("evaluated", "vacuous", "skips", "work", "base_violations",
                     "split_violations"):
            assert getattr(rep, name) == getattr(ref, name), (c, name)
        assert rep.worst_case.keys() == ref.worst_case.keys()
        for key, value in ref.worst_case.items():
            assert rep.worst_case[key] == (pytest.approx(value, abs=1e-6) if key == "gap"
                                           else value), (c, key)
        for name in ("base_worst", "split_worst"):
            assert getattr(rep, name) == pytest.approx(getattr(ref, name), abs=1e-6), (c, name)


# perfbench's sphere scan at workload seeds 32, 67 and 82: (generator seed,
# scan seed); the chord form of great_circle gave min_defect -1.6e-9, -2.7e-9
# and -9.6e-9 there, below the tolerance of 1e-9
@pytest.mark.parametrize("gen_seed, scan_seed", [(332524003, 621245851),
                                                 (321236752, 1754003658),
                                                 (621570035, 1254681156)])
def test_scan_sphere_passes_at_former_failing_seeds(gen_seed, scan_seed):
    rep = scan_quadruples(unit_sphere_points(500, seed=gen_seed), 1.0, samples=25_000,
                          seed=scan_seed, subset=600)
    assert rep.passed and rep.min_defect > -1e-10
    assert rep.kappa_max >= 1.0


def _unit(v):
    return v / np.linalg.norm(v)


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["random", "antipodal", "near"]),
       gap=st.floats(-12.0, -1.0))
@settings(max_examples=200, deadline=None)
def test_great_circle_matches_mpmath(seed, mode, gap):
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    u = _unit(rng.normal(size=3))
    if mode == "random":
        v = _unit(rng.normal(size=3))
    else:
        v = _unit((-u if mode == "antipodal" else u) + 10.0 ** gap * rng.normal(size=3))
    with mp.workdps(50):
        a, b = [mp.mpf(float(x)) for x in u], [mp.mpf(float(x)) for x in v]
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        exact = mp.atan2(mp.sqrt(sum(x * x for x in cross)), sum(x * y for x, y in zip(a, b)))
        err = abs(mp.mpf(float(spaces.great_circle(u, v))) - exact)
    # two ulp at pi; the chord form 2 asin(|u - v|/2) was off by up to 1e8 of these
    assert err <= 4 * 2.0**-52


def test_great_circle_matches_numpy_cross_and_sum():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(50, 1, 3))
    v = rng.normal(size=(1, 40, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    cross = np.cross(u, v)
    want = np.arctan2(np.sqrt(np.sum(cross * cross, axis=-1)), np.sum(u * v, axis=-1))
    assert np.array_equal(spaces.great_circle(u, v), want)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_scan_rejects_tolerance_that_is_not_finite_and_nonnegative(tol):
    pts = unit_sphere_points(10, seed=0)
    with pytest.raises(GeometryError, match="tolerance"):
        scan_quadruples(pts, 1.0, samples=10, tol=tol)


def test_scan_accepts_zero_tolerance():
    rep = scan_quadruples(unit_sphere_points(10, seed=0), 0.0, samples=50, tol=0.0)
    assert rep.tol == 0.0


# ---------------------------------------------------------------------------
# local domain check


@pytest.fixture(scope="module")
def flat_grid_fine():
    return generate(
        DomainSpec(kind="punctured", resolution=2 / 128, side=2.0, stencil_radius=5),
        seed=0,
    )


def test_local_check_flat_grid_passes_at_zero(flat_grid_fine):
    center = flat_grid_fine.nearest_vertex([1.0, 1.0])
    rep = local_kappa_domain_check(
        flat_grid_fine, center, radius=1.6, kappa=0.0, samples=25, h_angle=8, seed=2
    )
    assert rep.evaluated >= 10
    assert rep.base_violations == 0
    assert rep.split_violations == 0
    assert rep.passed


def test_local_check_flat_grid_split_within_stencil_gap(flat_grid_fine):
    # at this seed a comparison angle collapses to pi on the lattice metric
    # and the split gap equals the stencil gap atan(1/5)
    center = flat_grid_fine.nearest_vertex([1.0, 1.0])
    rep = local_kappa_domain_check(
        flat_grid_fine, center, radius=1.6, kappa=0.0, samples=6, h_angle=8, seed=31
    )
    assert flat_grid_fine.stencil_gap == pytest.approx(math.atan(1.0 / 5.0), abs=1e-15)
    tol = rep.tolerances
    assert tol["stencil_gap"] == flat_grid_fine.stencil_gap
    assert tol["split_tol"] == 2.0 * tol["angle_tol"] + flat_grid_fine.stencil_gap
    assert rep.split_worst > 2.0 * tol["angle_tol"]
    assert rep.passed


def test_local_check_flat_grid_fails_at_half(flat_grid_fine):
    center = flat_grid_fine.nearest_vertex([1.0, 1.0])
    rep = local_kappa_domain_check(
        flat_grid_fine, center, radius=1.6, kappa=0.5, samples=25, h_angle=8, seed=2
    )
    assert rep.base_violations > 0
    assert not rep.passed
    assert rep.worst_case["kind"] == "base"


def test_local_check_rejects_window_shorter_than_half_an_edge():
    # stencil radius 5 has edges of sqrt(41) h = 6.40 h, longer than the 6 h
    # that twice a 3-cell window spans; the midpoint rule of vertex_at_arc
    # could then return the split vertex itself as its own neighbour
    grid = generate(
        DomainSpec(kind="punctured", resolution=1 / 48, side=2.0, stencil_radius=5),
        seed=0,
    )
    center = grid.nearest_vertex([1.0, 1.0])
    for seed in range(16):
        with pytest.raises(ResolutionError, match="longest edge"):
            local_kappa_domain_check(grid, center, radius=1.6, kappa=0.0, samples=6,
                                     h_angle=3, seed=seed)
    assert local_kappa_domain_check(grid, center, radius=1.6, kappa=0.0, samples=6,
                                    h_angle=4, seed=0).evaluated > 0


def test_local_check_degenerate_ball_is_vacuous(flat_grid_fine):
    rep = local_kappa_domain_check(
        flat_grid_fine, 0, radius=1e-9, kappa=0.0, samples=5, h_angle=8, seed=0
    )
    assert rep.vacuous
    assert rep.passed


def _check_cases(grid):
    center = grid.nearest_vertex([1.0, 1.0])
    return [dict(center=center, radius=1.6, kappa=kappa, samples=6, h_angle=8, seed=seed)
            for kappa, seed in ((0.0, 2), (0.0, 31), (0.5, 2), (-1.0, 5))]


def test_local_check_bounded_fields_change_no_result(flat_grid_fine, monkeypatch):
    bounded = [asdict(local_kappa_domain_check(flat_grid_fine, **case))
               for case in _check_cases(flat_grid_fine)]
    full_field = DiscreteLengthSpace.distance_field
    monkeypatch.setattr(DiscreteLengthSpace, "distance_field",
                        lambda self, sources, restrict_to_U=False, limit=np.inf:
                        full_field(self, sources, restrict_to_U))
    for case, rep in zip(_check_cases(flat_grid_fine), bounded):
        full = asdict(local_kappa_domain_check(flat_grid_fine, **case))
        assert {**full, "work": None} == {**rep, "work": None}


def test_local_check_counts_its_fields_and_skips(flat_grid_fine):
    for case in _check_cases(flat_grid_fine):
        rep = local_kappa_domain_check(flat_grid_fine, **case)
        assert set(rep.skips) == set(SKIP_REASONS)
        assert sum(rep.skips.values()) == rep.skipped == rep.trials - rep.evaluated
        # the ball's field, then per sample at most the path's and p's
        assert rep.work["full_fields"] <= 1 + 2 * rep.trials
        # d_q, d_x and the three angle side fields of each evaluated sample
        assert rep.work["bounded_fields"] >= 5 * rep.evaluated
    rep = local_kappa_domain_check(flat_grid_fine, 0, radius=1e-9, kappa=0.0, samples=5,
                                   h_angle=8)
    assert rep.skips["small_ball"] == 5
    assert rep.work == {"full_fields": 1, "bounded_fields": 0}


def test_local_check_without_a_feasible_sample_is_vacuous():
    # each of the four samples has a short path or an endpoint within 3w of p
    grid = generate(DomainSpec(kind="punctured", resolution=0.0625, side=2.0,
                               stencil_radius=3, removed_points=((1.13, 1.07),)), seed=0)
    rep = local_kappa_domain_check(grid, 544, radius=1.5, kappa=0.0, samples=4, h_angle=3,
                                   seed=0)
    assert rep.vacuous and rep.passed
    assert rep.evaluated == 0
    assert rep.skipped == 4
    assert rep.skips["short_path"] + rep.skips["endpoint_near_p"] == 4


@pytest.fixture(scope="module")
def slit_grid():
    # a slit beside the centre, which is removed: completion distances there
    # run through points outside U, U's own distances do not
    return generate(DomainSpec(kind="punctured", resolution=0.0625, side=2.0,
                               stencil_radius=2, removed_points=((1.0, 1.0),),
                               removed_segments=((0.5, 1.3, 1.5, 1.3),)), seed=0)


def _local_check_reference(space, center, radius, kappa, samples, h_angle, seed):
    """The local check one scalar ``angle_from_sides`` call at a time.

    The oracle of ``local_kappa_domain_check``: the same samples and skips,
    every field but the ball's in U's metric, except that a triangle that
    breaks the triangle inequality raises :class:`InvalidTriangleError`
    instead of being skipped.  It decides the skips after the full fields
    from s and p, in the order the check keeps, so its ``work`` counts more
    full fields than the check's.
    """
    w = h_angle * space.h
    angle_tol = 0.5 / h_angle + 6.0 * space.h_err + 1e-3
    split_tol = 2.0 * angle_tol + space.stencil_gap
    skips = dict.fromkeys(SKIP_REASONS, 0)
    work = {"full_fields": 0, "bounded_fields": 0}

    def distance_field(source, restrict_to_U=True, limit=np.inf):
        work["full_fields" if limit == np.inf else "bounded_fields"] += 1
        return space.distance_field(source, restrict_to_U=restrict_to_U, limit=limit)

    def discrete_angle(toward_a, toward_b, d_at):
        da = float(d_at[toward_a])
        db = float(d_at[toward_b])
        dab = float(distance_field(toward_a, limit=da + db + 1e-9)[toward_b])
        return angle_from_sides(kappa, dab, da, db)

    def report(evaluated, vacuous, base=(0, 0.0), split=(0, 0.0), worst=None):
        return LocalCheckReport(
            kappa=kappa, center=center, radius=radius, trials=samples, evaluated=evaluated,
            skipped=samples - evaluated, vacuous=vacuous, window=w, h_err=space.h_err,
            base_violations=base[0], base_worst=base[1], split_violations=split[0],
            split_worst=split[1], worst_case=worst or {}, skips=skips, work=work,
            tolerances={"angle_tol": angle_tol, "split_tol": split_tol,
                        "stencil_gap": space.stencil_gap})

    d_center = distance_field(center, restrict_to_U=False)
    ball = np.flatnonzero((d_center <= radius) & space.in_U)
    if len(ball) < 4:
        skips["small_ball"] = samples
        return report(0, True)
    near = 3.0 * w
    rng = np.random.default_rng(seed)
    evaluated = base_violations = split_violations = 0
    base_worst = split_worst = -math.inf
    worst_base: dict = {}
    worst_split: dict = {}
    feasible = False
    for _ in range(samples):
        q, s, p = (int(ball[j]) for j in rng.choice(len(ball), size=3, replace=False))
        try:
            path = space.shortest_path(q, s, restrict_to_U=True, dist_to=distance_field(s))
        except UnreachableError:
            skips["no_path"] += 1
            continue
        slack = 1e-12 * path.length
        if path.length < 4.0 * w - slack:
            skips["short_path"] += 1
            continue
        d_p = distance_field(p)
        if d_p[q] == np.inf:
            skips["no_path"] += 1
            continue
        if min(d_p[q], d_p[s]) < 3.0 * w - slack:
            skips["endpoint_near_p"] += 1
            continue
        feasible = True
        try:
            path_qp = space.shortest_path(q, p, restrict_to_U=True, dist_to=d_p)
            d_q = distance_field(q, limit=near)
            lhs = discrete_angle(path_qp.vertex_at_arc(w), path.vertex_at_arc(w), d_q)
            rhs = angle_from_sides(kappa, float(d_p[s]), float(d_p[q]), path.length)
            base_gap = rhs - lhs
            arcs = path.arc_lengths
            mid = slice(1, len(arcs) - 1)
            inner = 1 + np.flatnonzero((w - slack <= arcs[mid])
                                       & (arcs[mid] <= path.length - w + slack)
                                       & (d_p[path.vertices[mid]] >= 3.0 * w - slack))
            if not len(inner):
                skips["no_inner_vertex"] += 1
                continue
            j = int(inner[int(rng.integers(0, len(inner)))])
            x = path.vertices[j]
            d_x = distance_field(x, limit=near)
            y_back, y_fwd = path.vertices_at_arcs(np.array([arcs[j] - w, arcs[j] + w]))
            y_xp = space.shortest_path(x, p, restrict_to_U=True, dist_to=d_p).vertex_at_arc(w)
            split_gap = abs(discrete_angle(y_back, y_xp, d_x)
                            + discrete_angle(y_fwd, y_xp, d_x) - math.pi)
        except UndefinedModelAngleError:
            skips["undefined_angle"] += 1
            continue
        evaluated += 1
        if base_gap > base_worst:
            base_worst = base_gap
            if base_gap > angle_tol:
                worst_base = {"kind": "base", "q": q, "p": p, "s": s, "gap": base_gap}
        if split_gap > split_worst:
            split_worst = split_gap
            if split_gap > split_tol:
                worst_split = {"kind": "split", "q": q, "p": p, "s": s, "x": x,
                               "gap": split_gap}
        base_violations += base_gap > angle_tol
        split_violations += split_gap > split_tol
    if not evaluated:
        return report(0, not feasible)
    return report(evaluated, False, (base_violations, base_worst),
                  (split_violations, split_worst), worst_base or worst_split)


_ANGLES = ("base_worst", "split_worst")


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize("grid, point, radius, samples, h_angle, seeds", [
    ("flat_grid_fine", (1.0, 1.0), 1.6, 6, 8, range(3)),
    ("punctured_square", (0.5, 0.5), 0.8, 8, 3, range(6)),
    ("slit_grid", (1.0, 1.0), 1.6, 20, 3, range(6)),
], ids=["flat", "punctured", "slit"])
def test_local_check_matches_the_scalar_reference(request, kappa, grid, point, radius,
                                                  samples, h_angle, seeds):
    space = request.getfixturevalue(grid)
    center = space.nearest_vertex(point)
    # the array kernel's md rounds one ulp off the scalar one at kappa < 0,
    # which arccos near +-1 amplifies
    tol = 1e-12 if kappa >= 0.0 else 1e-7
    completed = 0
    for seed in seeds:
        case = dict(center=center, radius=radius, kappa=kappa, samples=samples,
                    h_angle=h_angle, seed=seed)
        try:
            ref = asdict(_local_check_reference(space, **case))
        except InvalidTriangleError:
            continue
        completed += 1
        rep = asdict(local_kappa_domain_check(space, **case))
        for key in _ANGLES:
            assert rep[key] == pytest.approx(ref[key], rel=0.0, abs=tol), (seed, key)
        assert rep["worst_case"].pop("gap", 0.0) == pytest.approx(
            ref["worst_case"].pop("gap", 0.0), rel=0.0, abs=tol)
        assert ({k: v for k, v in rep.items() if k not in (*_ANGLES, "work")}
                == {k: v for k, v in ref.items() if k not in (*_ANGLES, "work")}), seed
        assert rep["work"]["full_fields"] <= ref["work"]["full_fields"]
    assert completed >= len(seeds) // 2


@pytest.mark.parametrize("base_gaps, split_gaps, kind, gap", [
    # the third split gap is the worst; the second was the first violation
    ((0.0,) * 7, (0.9, 1.2, 1.5, 1.0, 1.3, 0.0, 0.0), "split", 1.5),
    # a base violation after a split violation is the worst case
    ((0.0, 0.5, 0.4, 0.0, 0.0, 0.0, 0.0), (1.5,) + (0.0,) * 6, "base", 0.5),
], ids=["worst-split", "base-after-split"])
def test_local_check_worst_case_is_the_worst_violation(monkeypatch, base_gaps, split_gaps,
                                                       kind, gap):
    grid = generate(DomainSpec(kind="punctured", resolution=0.03125, side=2.0,
                               stencil_radius=2), seed=0)
    calls = []

    def gaps(kappa, opposite, u, v):
        """Angles of a base call, then of a split call, per sample, with the given gaps."""
        sample, is_split = divmod(len(calls), 2)
        calls.append(is_split)
        angles = [math.pi, split_gaps[sample]] if is_split else [1.0, 1.0 + base_gaps[sample]]
        return np.array(angles), np.zeros(2, dtype=bool)

    monkeypatch.setattr(spaces, "batch_angle", gaps)
    rep = local_kappa_domain_check(grid, grid.nearest_vertex((1.0, 1.0)), radius=1.6,
                                   kappa=0.0, samples=8, h_angle=3, seed=1)
    # seven samples reach both angle calls, one is skipped before them
    assert rep.evaluated == 7 and len(calls) == 14
    angle_tol, split_tol = rep.tolerances["angle_tol"], rep.tolerances["split_tol"]
    assert split_tol == pytest.approx(1.129, abs=1e-3)
    assert angle_tol == pytest.approx(0.333, abs=1e-3)
    assert rep.base_violations == sum(g > angle_tol for g in base_gaps)
    assert rep.split_violations == sum(g > split_tol for g in split_gaps)
    assert rep.split_worst == pytest.approx(1.5)
    assert rep.worst_case["kind"] == kind
    assert rep.worst_case["gap"] == pytest.approx(gap)
    assert rep.worst_case["gap"] == (rep.split_worst if kind == "split" else rep.base_worst)


def test_local_check_beside_a_slit_measures_in_one_metric(slit_grid):
    # at seed 3, |qs| from a geodesic of U and |pq|, |ps| from the completion
    # made one sample's triangle break the triangle inequality, skipped as
    # invalid_triangle with 6 samples evaluated; in U's metric alone 12 are
    case = dict(center=slit_grid.nearest_vertex((1.0, 1.0)), radius=1.6, samples=20,
                h_angle=3, seed=3)
    for kappa in (-1.0, 0.0, 0.5):
        ref = asdict(_local_check_reference(slit_grid, kappa=kappa, **case))
        rep = asdict(local_kappa_domain_check(slit_grid, kappa=kappa, **case))
        assert rep["skips"]["invalid_triangle"] == 0
        assert rep["evaluated"] == ref["evaluated"] == 12
        assert sum(rep["skips"].values()) == rep["skipped"] == rep["trials"] - rep["evaluated"]


@pytest.mark.parametrize("slit", [(0.5, 1.3, 1.5, 1.3), (0.0, 1.3, 2.0, 1.3)],
                         ids=["beside", "across"])
def test_local_check_decides_skips_as_the_full_fields_did(slit):
    # the reference decides every skip after the full fields from s and p;
    # the check decides them first, by U's components and cut-off fields.
    # A slit across the square separates U, so samples meet no_path there
    grid = generate(DomainSpec(kind="punctured", resolution=1 / 32, side=2.0,
                               stencil_radius=2, removed_points=((1.0, 1.0),),
                               removed_segments=(slit,)), seed=0)
    case = dict(center=grid.nearest_vertex((1.0, 1.0)), radius=1.6, kappa=0.0, samples=6,
                h_angle=3)
    totals = dict.fromkeys(SKIP_REASONS, 0)
    fields = {"check": 0, "reference": 0}
    for seed in range(60):
        rep = local_kappa_domain_check(grid, seed=seed, **case)
        ref = _local_check_reference(grid, seed=seed, **case)
        assert rep.skips == ref.skips, seed
        assert (rep.evaluated, rep.vacuous) == (ref.evaluated, ref.vacuous), seed
        totals = {k: totals[k] + v for k, v in rep.skips.items()}
        fields["check"] += rep.work["full_fields"]
        fields["reference"] += ref.work["full_fields"]
    assert totals["short_path"] and totals["endpoint_near_p"]
    assert bool(totals["no_path"]) == (slit[0] == 0.0)
    assert fields["check"] < fields["reference"]


def test_local_check_skips_a_triangle_that_breaks_the_triangle_inequality(monkeypatch):
    # one metric breaks the inequality only by rounding; a kernel that finds
    # the base triangle invalid counts the sample under invalid_triangle
    grid = generate(DomainSpec(kind="punctured", resolution=0.03125, side=2.0,
                               stencil_radius=2), seed=0)
    monkeypatch.setattr(spaces, "batch_angle", lambda kappa, opposite, u, v: (
        np.full(2, np.nan), np.zeros(2, dtype=bool)))
    rep = local_kappa_domain_check(grid, grid.nearest_vertex((1.0, 1.0)), radius=1.6,
                                   kappa=0.0, samples=8, h_angle=3, seed=1)
    # every sample that reaches the angle kernel
    reached = rep.trials - rep.skips["short_path"] - rep.skips["endpoint_near_p"]
    assert rep.skips["invalid_triangle"] == reached > 0 and rep.evaluated == 0
    assert not rep.vacuous and rep.passed
