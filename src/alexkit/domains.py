"""Generators for benchmark domains and their companion experiments.

Three families of discretized incomplete domains: an open metric ball on
the unit sphere (with the boundary circle sewn in explicitly, since the
completion owns it), the unit square covered by thin neighborhoods of a
countable family of rational-endpoint segments, and square domains with
points or slits removed.  Companion operations estimate the area of the
thin cover by Monte Carlo and compare completion distances against
in-domain distances after rational perturbation.

The generators are array code.  The cap's subdivision numbers each
edge's midpoint at its first appearance and normalises it with the same
dot kernel as a one-vector norm; its two-hop chords are the pattern of
A + A², A the kept mesh's adjacency; its guard rings are sewn in one
broadcast.  The slit cut evaluates its orientation tests over the whole
edge array.  Each writes the same bytes as the loop it replaced, which
the tests keep as its oracle.  A mesh whose vertex ids would not fit a
graph file's int32 ids is refused before any of it is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GeometryError, ResolutionError
from .spaces import DiscreteLengthSpace, SpherePointSet, _row_blocks, great_circle

_MIN_U_VERTICES = 100

# a bound on cells per mesh side, far past any mesh whose ids fit int32
_MAX_CELLS = 2.0**40

# tubes thinner than this fraction of a mesh cell cannot carry a connected
# vertex chain and are left out of the discrete open set
TUBE_CUTOFF_CELLS = 0.75


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class DomainSpec:
    """Parameters of a generated domain.

    kind is one of cap, dense_square, punctured.  ``resolution`` is
    the target mesh size h (arc length on the sphere, grid spacing on the
    square).
    """

    kind: str
    resolution: float
    cap_radius: float = 0.0
    delta: float = 0.0
    num_segments: int = 0
    removed_points: tuple = ()
    removed_segments: tuple = ()
    side: float = 1.0
    stencil_radius: int = 2

    def __post_init__(self):
        if not 0.0 < self.resolution < math.inf:
            raise GeometryError("resolution must be positive and finite")
        if self.kind == "cap":
            if not 0.0 < self.cap_radius < math.pi:
                raise GeometryError("cap radius must lie in (0, pi)")
        elif self.kind == "dense_square":
            if not 0.0 < self.delta < 1.0:
                raise GeometryError("delta must lie in (0, 1)")
            if self.num_segments < 1:
                raise GeometryError("need at least one segment")
        elif self.kind == "punctured":
            pass
        else:
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        if not 0.0 < self.side < math.inf:
            raise GeometryError("square side must be positive and finite")
        for name, items, arity in (("removed point", self.removed_points, 2),
                                   ("removed segment", self.removed_segments, 4)):
            for item in items:
                if len(item) != arity or not all(map(math.isfinite, item)):
                    raise GeometryError(f"a {name} needs {arity} finite coordinates, "
                                        f"got {item!r}")
        if self.stencil_radius < 1:
            raise GeometryError("stencil radius must be >= 1")


# ---------------------------------------------------------------------------
# rational segment family


def rational_segments(count: int) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """First ``count`` segments with rational endpoints in the unit square.

    Enumerated by increasing denominator: for D = 1, 2, ... all ordered
    pairs of distinct points on the D-grid that have not appeared for a
    smaller denominator, in lexicographic order.  Deterministic and stable
    under extension of ``count``.
    """
    if count < 1:
        raise GeometryError("need at least one segment")
    segments: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    seen: set[tuple] = set()
    d = 0
    while len(segments) < count:
        d += 1
        pts = sorted(
            {(Fraction(a, d), Fraction(b, d)) for a in range(d + 1) for b in range(d + 1)}
        )
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                key = (pts[i], pts[j])
                if key in seen:
                    continue
                seen.add(key)
                segments.append((pts[i][0], pts[i][1], pts[j][0], pts[j][1]))
                if len(segments) == count:
                    return segments
    return segments


def segment_radii(delta: float, count: int) -> np.ndarray:
    """Geometric radius schedule summing exactly to delta/4."""
    i = np.arange(1, count + 1, dtype=float)
    w = np.power(2.0, -i)
    return (delta / 4.0) * w / w.sum()


def _segment_family(spec: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """A dense_square spec's segments as rows ``(x1, y1, x2, y2)``, and their radii."""
    segments = np.array(rational_segments(spec.num_segments), dtype=float)
    return segments, segment_radii(spec.delta, spec.num_segments)


def _point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


# ---------------------------------------------------------------------------
# square grids


def _stencil_directions(radius: int) -> list[tuple[int, int]]:
    dirs = []
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            if math.gcd(abs(dx), abs(dy)) != 1:
                continue
            dirs.append((dx, dy))
    return sorted(dirs)


def stencil_gap(radius: int) -> float:
    """Widest angle gamma between consecutive stencil directions, atan(1/radius)."""
    angles = sorted(math.atan2(dy, dx) for dx, dy in _stencil_directions(radius))
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2.0 * math.pi - angles[-1])
    return max(gaps)


def stencil_distortion(radius: int) -> float:
    """Worst relative overshoot of lattice paths over straight segments.

    Equals sec(gamma/2) - 1 for the widest angular gap gamma between
    consecutive stencil directions (about 2.75% for radius 2).
    """
    return 1.0 / math.cos(stencil_gap(radius) / 2.0) - 1.0


def _slit_crossings(coords: np.ndarray, edges: np.ndarray, slit) -> np.ndarray:
    """Which edges properly cross the open slit ``(x1, y1, x2, y2)``.

    An edge crosses when each segment's endpoints lie strictly on opposite
    sides of the other's line, by more than 1e-12 in the orientation
    determinant.
    """
    x1, y1, x2, y2 = slit
    px, py = coords[edges[:, 0]].T
    qx, qy = coords[edges[:, 1]].T
    eps = 1e-12

    def opposite(d1, d2):
        return ((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))

    def orient_to_slit(x, y):
        return (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)

    def orient_to_edge(x, y):
        return (qx - px) * (y - py) - (qy - py) * (x - px)

    return (opposite(orient_to_slit(px, py), orient_to_slit(qx, qy))
            & opposite(orient_to_edge(x1, y1), orient_to_edge(x2, y2)))


@dataclass
class _Grid:
    coords: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    spacing: float


def _grid_cells(side: float, h: float) -> int:
    """Cells along each side of the square grid of spacing about ``h``."""
    # the clamp keeps an overflowing ratio finite; generate() refuses it
    return max(2, round(min(side / h, _MAX_CELLS)))


def _square_grid(side: float, h: float, stencil_radius: int) -> _Grid:
    n = _grid_cells(side, h)
    spacing = side / n
    xs = np.arange(n + 1) * spacing
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    coords = np.column_stack([gx.ravel(), gy.ravel()])
    dirs = [(dx, dy) for dx, dy in _stencil_directions(stencil_radius)
            if (dx, dy) > (-dx, -dy)]  # one representative per undirected pair
    edges = []
    for dx, dy in dirs:
        i = np.arange(n + 1)
        ii, jj = np.meshgrid(i, i, indexing="ij")
        ok = (ii + dx >= 0) & (ii + dx <= n) & (jj + dy >= 0) & (jj + dy <= n)
        src = ii[ok] * (n + 1) + jj[ok]
        dst = (ii[ok] + dx) * (n + 1) + (jj[ok] + dy)
        edges.append(np.column_stack([src, dst]))
    e = np.vstack(edges)
    w = np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1)
    return _Grid(coords=coords, edges=e, weights=w, spacing=spacing)


def _demote_isolated(in_u: np.ndarray, edges: np.ndarray) -> int:
    """Drop in_U flags on vertices with no in_U neighbor, to a fixpoint."""
    demoted = 0
    while True:
        deg = np.zeros(len(in_u), dtype=int)
        mask = in_u[edges[:, 0]] & in_u[edges[:, 1]]
        np.add.at(deg, edges[mask, 0], 1)
        np.add.at(deg, edges[mask, 1], 1)
        lonely = in_u & (deg == 0)
        if not lonely.any():
            return demoted
        in_u[lonely] = False
        demoted += int(lonely.sum())


def _finish(coords, in_u, edges, weights, spec: DomainSpec, seed: int, h: float,
            meta: dict) -> DiscreteLengthSpace:
    """The generated space, its isolated open vertices demoted.

    Refuses a mesh left with too few open-domain vertices, and adds the
    ``meta`` keys every generator writes.
    """
    demoted = _demote_isolated(in_u, edges)
    if int(in_u.sum()) < _MIN_U_VERTICES:
        raise ResolutionError(
            f"resolution too coarse: only {int(in_u.sum())} open-domain vertices"
        )
    # the spec as a file holds it, so that a loaded space's meta equals this one
    spec_json = json.loads(json.dumps(asdict(spec)))
    meta.update(generator=spec.kind, h=h, seed=seed, demoted=demoted, spec=spec_json)
    return DiscreteLengthSpace(coords, in_u, edges, weights, meta=meta)


def _finalize_square(grid: _Grid, in_u, keep, spec: DomainSpec, seed: int,
                     meta: dict, exact: bool, crossing_segments=()) -> DiscreteLengthSpace:
    coords = grid.coords
    edges = grid.edges
    weights = grid.weights
    if not keep.all():
        remap = -np.ones(len(keep), dtype=np.int64)
        remap[keep] = np.arange(int(keep.sum()))
        coords = coords[keep]
        in_u = in_u[keep]
        emask = keep[edges[:, 0]] & keep[edges[:, 1]]
        edges = remap[edges[emask]]
        weights = weights[emask]
    if crossing_segments:
        emask = np.ones(len(edges), dtype=bool)
        for slit in crossing_segments:
            emask &= ~_slit_crossings(coords, edges, slit)
        edges = edges[emask]
        weights = weights[emask]
    meta.update(h_err=stencil_distortion(spec.stencil_radius),
                stencil_gap=stencil_gap(spec.stencil_radius), side=spec.side,
                stencil_radius=spec.stencil_radius)
    if exact:
        meta["exact_metric"] = "euclidean"
    return _finish(coords, in_u, edges, weights, spec, seed, grid.spacing, meta)


def _generate_dense_square(spec: DomainSpec, seed: int) -> DiscreteLengthSpace:
    grid = _square_grid(spec.side, spec.resolution, spec.stencil_radius)
    seg_arr, radii = _segment_family(spec)
    cutoff = TUBE_CUTOFF_CELLS * grid.spacing
    in_u = np.zeros(len(grid.coords), dtype=bool)
    materialized = 0
    for k in range(spec.num_segments):
        if radii[k] < cutoff:
            continue
        materialized += 1
        d = _point_segment_distance(grid.coords, seg_arr[k, :2], seg_arr[k, 2:])
        in_u |= d <= radii[k]
    extra = {
        "delta": spec.delta,
        "segments": seg_arr.tolist(),
        "radii": radii.tolist(),
        "materialized_segments": materialized,
        "tube_cutoff": cutoff,
    }
    return _finalize_square(grid, in_u, np.ones(len(grid.coords), bool), spec, seed,
                            extra, exact=True)


def _generate_punctured(spec: DomainSpec, seed: int) -> DiscreteLengthSpace:
    grid = _square_grid(spec.side, spec.resolution, spec.stencil_radius)
    in_u = np.ones(len(grid.coords), dtype=bool)
    keep = np.ones(len(grid.coords), dtype=bool)
    slits = [tuple(map(float, slit)) for slit in spec.removed_segments]
    for x1, y1, x2, y2 in slits:
        a = np.array([x1, y1])
        b = np.array([x2, y2])
        d = _point_segment_distance(grid.coords, a, b)
        on_slit = d <= 1e-9
        d_end = np.minimum(
            np.linalg.norm(grid.coords - a, axis=1), np.linalg.norm(grid.coords - b, axis=1)
        )
        tips = on_slit & (d_end <= 1e-9)
        interior = on_slit & ~tips
        keep &= ~interior
        in_u[tips] = False
    # the vertices nearest the removed points and the physical slit tips mark
    # the completion boundary
    marks = [*spec.removed_points, *(slit[i:i + 2] for slit in slits for i in (0, 2))]
    in_u[_nearest_vertices(grid.coords, np.array(marks, dtype=float).reshape(-1, 2))] = False
    meta = {
        "removed_points": [list(map(float, p)) for p in spec.removed_points],
        "removed_segments": [list(s) for s in slits],
    }
    return _finalize_square(grid, in_u, keep, spec, seed, meta,
                            exact=not slits, crossing_segments=slits)


# ---------------------------------------------------------------------------
# spherical caps


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    verts = [(0.0, 0.0, 1.0)]
    top_z = 1.0 / math.sqrt(5.0)
    rad = 2.0 / math.sqrt(5.0)
    for k in range(5):
        ang = 2.0 * math.pi * k / 5.0
        verts.append((rad * math.cos(ang), rad * math.sin(ang), top_z))
    for k in range(5):
        ang = 2.0 * math.pi * (k + 0.5) / 5.0
        verts.append((rad * math.cos(ang), rad * math.sin(ang), -top_z))
    verts.append((0.0, 0.0, -1.0))
    faces = []
    for k in range(5):
        faces.append((0, 1 + k, 1 + (k + 1) % 5))
        faces.append((11, 6 + (k + 1) % 5, 6 + k))
        faces.append((1 + k, 6 + k, 1 + (k + 1) % 5))
        faces.append((1 + (k + 1) % 5, 6 + k, 6 + (k + 1) % 5))
    return np.array(verts), np.array(faces, dtype=np.int64)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row of ``m`` divided by its Euclidean norm.

    The squared norm is the fixed-order sum ``x*x + y*y + z*z``, so every
    row rounds the same under every BLAS kernel.
    """
    x, y, z = m.T
    return m / np.sqrt(x * x + y * y + z * z)[:, None]


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One 4-to-1 split of every face, new vertices projected onto the sphere.

    Each face ``(a, b, c)`` contributes its edges ``ab``, ``bc``, ``ca`` in
    that order; the midpoint of an edge is numbered at its first
    appearance in that sequence, after the old vertices.
    """
    n = len(verts)
    pairs = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = pairs.min(axis=1) * n + pairs.max(axis=1)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mid = (n + rank[inverse]).reshape(-1, 3)
    ends = uniq[order]
    midpoints = _unit_rows(0.5 * (verts[ends // n] + verts[ends % n]))
    a, b, c = faces.T
    ab, bc, ca = mid.T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.vstack([verts, midpoints]), new_faces.reshape(-1, 3)


def _cap_mesh_edges(faces: np.ndarray, keep: np.ndarray, remap: np.ndarray) -> np.ndarray:
    """The kept faces' edges and the two-hop chords between kept vertices.

    These are the pairs ``i < k`` that are adjacent in the kept
    triangulation or share a neighbour there: the pattern of A + A² without
    its diagonal, A the kept mesh's adjacency, in lexicographic order.
    """
    from scipy.sparse import csr_matrix

    n = int(keep.sum())
    pairs = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    i, j = remap[pairs[keep[pairs].all(axis=1)]].T
    # an edge shared by two faces is summed; only the pattern counts
    adj = csr_matrix((np.ones(2 * len(i), dtype=np.int64),
                      (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    reach = (adj + adj @ adj).tocoo()
    upper = reach.row < reach.col
    keys = np.unique(reach.row[upper].astype(np.int64) * n + reach.col[upper])
    return np.column_stack([keys // n, keys % n])


def _sew_guards(kept: np.ndarray, near_rim: np.ndarray, guards: np.ndarray,
                first_id: int, reach: float) -> np.ndarray:
    """Edges from each mesh vertex in ``near_rim`` to the guard vertices within ``reach``.

    Guard vertex ``j`` has id ``first_id + j``.  The pairs come sorted by
    mesh vertex, then by guard id.
    """
    sew = []
    for rows in _row_blocks(len(near_rim), 3 * len(guards)):
        arcs = great_circle(kept[near_rim[rows], None], guards[None])
        i, j = np.nonzero(arcs <= reach)
        sew.append(np.column_stack([near_rim[rows][i], first_id + j]))
    return np.vstack(sew) if sew else np.empty((0, 2), dtype=np.int64)


def _cap_levels(h: float) -> tuple[float, int]:
    """The icosahedron's edge arc and the subdivisions that bring it to ``h`` or below."""
    verts, _ = _icosahedron()
    base_edge = float(great_circle(verts[0], verts[1]))
    # the clamp keeps an overflowing ratio finite; generate() refuses it
    return base_edge, max(0, math.ceil(math.log2(min(base_edge / h, _MAX_CELLS))))


def _generate_cap(spec: DomainSpec, seed: int) -> DiscreteLengthSpace:
    r = spec.cap_radius
    verts, faces = _icosahedron()
    base_edge, levels = _cap_levels(spec.resolution)
    for _ in range(levels):
        verts, faces = _subdivide(verts, faces)
    mesh_h = base_edge / 2 ** levels
    colat = np.arccos(np.clip(verts[:, 2], -1.0, 1.0))
    keep = colat < r - 1e-12
    remap = -np.ones(len(verts), dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    kept = verts[keep]
    n_mesh = len(kept)
    # widen the stencil with two-hop chords: the bare triangulation offers
    # only ~6 directions per vertex (over 15% length distortion); adding the
    # second ring brings the gaps down to ~30 degrees
    mesh_edges = _cap_mesh_edges(faces, keep, remap)
    # a boundary ring at colatitude exactly r, which the completion owns, and
    # two smooth guard rings just inside it: they keep near-boundary traffic
    # on open-domain vertices; without them the evenly spaced rim is a
    # smoother highway than the ragged triangulation and sub-half-sphere
    # geodesics would clip through completion-only vertices
    s_ring = 0.9 * mesh_h
    if r - 2.0 * s_ring <= 0.5 * mesh_h:
        raise ResolutionError(
            f"cap radius {r!r} too small for mesh size {mesh_h!r}; refine the mesh"
        )
    ring_n = max(12, int(round(2.0 * math.pi * math.sin(r) / (0.8 * mesh_h))))
    ang = 2.0 * math.pi * np.arange(ring_n) / ring_n
    colats = (r, r - s_ring, r - 2.0 * s_ring)
    sines = np.array([[math.sin(c)] for c in colats])
    rings = np.column_stack([(sines * np.cos(ang)).ravel(), (sines * np.sin(ang)).ravel(),
                             np.repeat([math.cos(c) for c in colats], ring_n)])
    coords = np.vstack([kept, rings])
    in_u = np.zeros(len(coords), dtype=bool)
    in_u[:n_mesh] = True
    in_u[n_mesh + ring_n:] = True
    edges = [mesh_edges]
    ids = [n_mesh + layer * ring_n + np.arange(ring_n) for layer in range(3)]
    for layer_ids in ids:
        edges.append(np.column_stack([layer_ids, layer_ids[(np.arange(ring_n) + 1) % ring_n]]))
    # consecutive layers share the angular grid: straight and diagonal rungs;
    # the rim connects only through the first guard ring
    for a_ids, b_ids in ((ids[0], ids[1]), (ids[1], ids[2])):
        for shift in (0, 1, ring_n - 1):
            edges.append(np.column_stack([a_ids, b_ids[(np.arange(ring_n) + shift) % ring_n]]))
    # sew the guard rings to nearby mesh vertices
    near_rim = np.flatnonzero(colat[keep] > r - 2.0 * s_ring - 2.2 * mesh_h)
    edges.append(_sew_guards(kept, near_rim, rings[ring_n:], n_mesh + ring_n,
                             1.6 * mesh_h))
    e = np.vstack(edges)
    w = great_circle(coords[e[:, 0]], coords[e[:, 1]])
    meta = {"cap_radius": r, "ring_vertices": ring_n, "guard_rings": 2, "chord_corrected": True}
    if r <= 0.5 * math.pi + 1e-12:
        meta["exact_metric"] = "sphere"
    space = _finish(coords, in_u, e, w, spec, seed, mesh_h, meta)
    space.meta["h_err"] = _estimate_cap_distortion(space, r, seed)
    return space


def _estimate_cap_distortion(space: DiscreteLengthSpace, r: float, seed: int) -> float:
    """Empirical relative overshoot of graph distances over great-circle arcs.

    Only pairs whose connecting arc stays inside the cap are compared (for
    caps past the half sphere the ambient arc may leave the domain).  The
    sampled maximum is padded since it underestimates the true supremum.
    """
    rng = np.random.default_rng([seed, 7])
    u_ids = np.flatnonzero(space.in_U)
    sources = rng.choice(u_ids, size=min(24, len(u_ids)), replace=False)
    fields = space.distance_field(sources)
    targets = np.array([rng.choice(u_ids, size=min(60, len(u_ids)), replace=False)
                        for _ in sources])
    a = space.coords[sources][:, None]
    b = space.coords[targets]
    arc = great_circle(a, b)
    far = (targets != sources[:, None]) & (arc >= 4.0 * space.meta["h"])
    # the height of 17 points along each pair's ambient arc
    row, col = np.nonzero(far)
    ts = np.linspace(0.0, 1.0, 17)
    theta = arc[row, col][:, None]
    z = (np.sin((1 - ts) * theta) * a[row, 0, 2][:, None]
         + np.sin(ts * theta) * b[row, col, 2][:, None])
    z /= np.sin(theta)
    # leave out the pairs whose ambient arc exits the cap
    far[row, col] = ~np.any(z < math.cos(r) - 1e-9, axis=1)
    g = fields[np.arange(len(sources))[:, None], targets]
    ok = far & np.isfinite(g) & (arc > 0.0)
    worst = float(np.max(g[ok] / arc[ok] - 1.0, initial=0.0))
    return 1.15 * worst if worst > 0.0 else 0.03


# ---------------------------------------------------------------------------
# public entry points


def _mesh_vertices(spec: DomainSpec) -> int:
    """Vertices of the whole mesh that ``spec`` starts from, before any is cut away."""
    if spec.kind == "cap":
        return 10 * 4 ** _cap_levels(spec.resolution)[1] + 2
    return (_grid_cells(spec.side, spec.resolution) + 1) ** 2


def generate(spec: DomainSpec, seed: int = 0) -> DiscreteLengthSpace:
    """Build the discretized domain described by ``spec`` deterministically.

    A mesh whose vertex ids would not fit a graph file's int32 ids is
    refused before any of it is built.
    """
    count = _mesh_vertices(spec)
    if count >= 2**31:
        raise GeometryError(f"a mesh of {count} vertices does not fit the file's int32 "
                            f"vertex ids; use a coarser --h")
    if spec.kind == "cap":
        return _generate_cap(spec, seed)
    if spec.kind == "dense_square":
        return _generate_dense_square(spec, seed)
    if spec.kind == "punctured":
        return _generate_punctured(spec, seed)
    raise GeometryError(f"unknown domain kind {spec.kind!r}")


def unit_sphere_points(n: int, seed: int = 0) -> SpherePointSet:
    """Uniform random points on the unit sphere with exact distances."""
    if n < 1:
        raise GeometryError("need at least one sphere point")
    return SpherePointSet.random(n, seed=seed)


@dataclass
class AreaReport:
    estimate: float
    sigma: float
    samples: int
    union_bound: float
    delta: float

    @property
    def passed(self) -> bool:
        """The estimate stays within three standard errors above ``delta``."""
        return self.estimate <= self.delta + 3.0 * self.sigma


def area_estimate(spec: DomainSpec, samples: int = 100_000, seed: int = 0) -> AreaReport:
    """Monte Carlo area of the thin segment cover, with a union-bound cross-check.

    Works on the continuum description (all segments, however thin), not on
    the mesh.
    """
    if spec.kind != "dense_square":
        raise GeometryError("area estimation applies to dense_square specs")
    if samples < 1:
        raise GeometryError("area estimation needs at least one sample")
    seg_arr, radii = _segment_family(spec)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(samples, 2))
    inside = np.zeros(samples, dtype=bool)
    for k in range(spec.num_segments):
        out = ~inside
        if not out.any():
            break
        d = _point_segment_distance(pts[out], seg_arr[k, :2], seg_arr[k, 2:])
        sub = np.flatnonzero(out)
        inside[sub[d <= radii[k]]] = True
    p = float(inside.mean())
    sigma = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    lengths = np.linalg.norm(seg_arr[:, 2:] - seg_arr[:, :2], axis=1)
    union = float(np.sum(2.0 * radii * lengths + math.pi * radii ** 2))
    return AreaReport(estimate=p, sigma=sigma, samples=samples,
                      union_bound=union, delta=spec.delta)


@dataclass
class CompletionReport:
    pairs: int
    matched: int
    misses: int
    uniform_matched: int
    uniform_misses: int
    epsilon: float
    max_violation: float
    max_link_violation: float
    h_err: float
    worst_case: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    @property
    def tolerances(self) -> dict:
        """The chain estimate's ``violation_budget``: 4*epsilon plus twice the mesh distortion."""
        return {"violation_budget": 4.0 * self.epsilon + 2.0 * self.h_err}

    @property
    def passed(self) -> bool:
        """No matched pair's violation exceeds the budget."""
        return self.matched == 0 or self.max_violation <= self.tolerances["violation_budget"]


def _nearest_vertices(xy: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``DiscreteLengthSpace.nearest_vertex`` of each planar point, first index on ties.

    Its squared distances dx**2 + dy**2 round exactly as ``nearest_vertex``'s
    sum over the two coordinates.
    """
    out = np.empty(len(points), dtype=np.int64)
    for rows in _row_blocks(len(points), len(xy)):
        d2 = (xy[None, :, 0] - points[rows, None, 0]) ** 2
        d2 += (xy[None, :, 1] - points[rows, None, 1]) ** 2
        out[rows] = np.argmin(d2, axis=1)
    return out


def _match_segments(starts, ends, p_xy, q_xy, epsilon):
    """For each pair (p, q): the segment whose endpoints lie nearest to it, or -1.

    A segment matches when both of its endpoints, in either orientation,
    lie within epsilon of p and q; the worse endpoint's distance ranks the
    candidates, and the first segment wins a tie.
    """
    out = np.empty(len(p_xy), dtype=np.int64)
    for rows in _row_blocks(len(p_xy), 4 * starts.size):
        p = p_xy[rows, None, :]
        q = q_xy[rows, None, :]
        fwd = np.maximum(np.linalg.norm(starts - p, axis=2), np.linalg.norm(ends - q, axis=2))
        rev = np.maximum(np.linalg.norm(ends - p, axis=2), np.linalg.norm(starts - q, axis=2))
        best = np.minimum(fwd, rev)
        k = np.argmin(best, axis=1)
        out[rows] = np.where(best[np.arange(len(k)), k] > epsilon, -1, k)
    return out


def completion_compare(
    space: DiscreteLengthSpace,
    pairs: int = 200,
    epsilon: float = 0.05,
    seed: int = 0,
) -> CompletionReport:
    """Compare completion distances against in-domain distances after perturbation.

    For sampled vertex pairs (p, q), finds a bundled segment whose endpoints
    lie within epsilon of p and q.  The perturbed in-domain distance is the
    segment's own length (the straight chord is its minimizer and lies in
    the open set by construction).  The reported violation for a matched
    pair is graph completion distance minus that length; the chain estimate
    bounds it by 4*epsilon plus mesh distortion.  Pairs with no bundled
    segment within epsilon are truncation misses, counted but not failures.

    Sampling is stratified: half the pairs are uniform over vertices (their
    miss rate measures how sparse the finite bundle is at this epsilon),
    half are anchored near bundled endpoints so the chain is actually
    exercised at every run.  The nearest vertices, the segment matches and
    the completion distances are each computed for all pairs at once, in
    blocks of bounded size; ``work`` counts the distinct sources of the
    distance fields.
    """
    if space.meta.get("generator") != "dense_square":
        raise GeometryError("completion comparison applies to dense_square domains")
    if pairs < 1:
        raise GeometryError("completion comparison needs at least one pair")
    if not 0.0 < epsilon < math.inf:
        raise GeometryError(f"epsilon must be positive and finite, got {epsilon!r}")
    segs = np.asarray(space.meta["segments"], dtype=float)
    starts = segs[:, :2]
    ends = segs[:, 2:]
    side = space.meta.get("side", 1.0)
    rng = np.random.default_rng(seed)
    n = space.n_points
    n_uniform = pairs // 2
    p_ids = np.empty(pairs, dtype=np.int64)
    q_ids = np.empty(pairs, dtype=np.int64)
    p_ids[:n_uniform] = rng.integers(0, n, size=n_uniform)
    q_ids[:n_uniform] = rng.integers(0, n, size=n_uniform)
    anchored = np.empty(pairs - n_uniform, dtype=np.int64)
    jitter = np.empty((pairs - n_uniform, 4))
    for row in range(len(anchored)):
        anchored[row] = rng.integers(0, len(segs))
        jitter[row] = rng.uniform(-0.5, 0.5, size=4)
    jitter *= epsilon
    anchors = np.vstack([np.clip(starts[anchored] + jitter[:, :2], 0.0, side),
                         np.clip(ends[anchored] + jitter[:, 2:], 0.0, side)])
    nearest = _nearest_vertices(space.coords, anchors)
    p_ids[n_uniform:] = nearest[:len(anchored)]
    q_ids[n_uniform:] = nearest[len(anchored):]
    ks = _match_segments(starts, ends, space.coords[p_ids], space.coords[q_ids], epsilon)
    ks[p_ids == q_ids] = -1
    hit = ks >= 0
    q_hit = q_ids[hit]
    sources, which = np.unique(p_ids[hit], return_inverse=True)
    d_bar = np.empty(len(which))
    for rows in _row_blocks(len(sources), n):
        fields = space.distance_field(sources[rows])
        picked = (which >= rows.start) & (which < rows.stop)
        d_bar[picked] = fields[which[picked] - rows.start, q_hit[picked]]
    p_hit, k_hit = p_ids[hit], ks[hit]
    # fixed-order sums, which round the same under every BLAS kernel
    sx, sy = (ends[k_hit] - starts[k_hit]).T
    cx, cy = (space.coords[p_hit] - space.coords[q_hit]).T
    seg_len = np.sqrt(sx * sx + sy * sy)
    d_x = np.sqrt(cx * cx + cy * cy)
    violation = d_bar - seg_len
    # completion dominates the ambient metric, and the chain's second link
    link = np.maximum(d_x - d_bar, (seg_len - 2.0 * epsilon) - d_x)
    matched = int(hit.sum())
    uniform_matched = int(hit[:n_uniform].sum())
    max_violation = max_link = 0.0
    worst: dict = {}
    if matched:
        i = int(np.argmax(violation))  # the first on ties
        max_violation, max_link = float(violation[i]), float(link.max())
        worst = {"p": int(p_hit[i]), "q": int(q_hit[i]), "segment": int(k_hit[i]),
                 "segment_length": float(seg_len[i]), "d_ambient": float(d_x[i]),
                 "d_completion": float(d_bar[i]), "violation": max_violation}
    return CompletionReport(
        pairs=pairs,
        matched=matched,
        misses=pairs - matched,
        uniform_matched=uniform_matched,
        uniform_misses=n_uniform - uniform_matched,
        epsilon=epsilon,
        max_violation=max_violation,
        max_link_violation=max_link,
        h_err=space.h_err,
        worst_case=worst,
        work={"distance_sources": len(sources)},
    )
