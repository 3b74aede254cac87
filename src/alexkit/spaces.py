"""Finite and discretized length spaces with curvature scans.

Three metric carriers: an explicit distance matrix, an exact point set on
the unit sphere, and a weighted graph over embedded vertices whose
shortest-path closure plays the role of the intrinsic metric.  On top of
them: deterministic geodesic extraction, comparison angles between actual
points, quadruple curvature scans with a bisection estimate of the
largest admissible curvature, and a local domain check that measures
angles at a small fixed arc scale.

Broadcast temporaries are built in blocks of rows under one budget,
``_BLOCK_ELEMENTS`` float64 elements (2 MB), by ``_row_blocks``: the
graph's multi-source Dijkstra rows (``DiscreteLengthSpace.distance_blocks``,
which the scan's distance block and the cap generator's distortion sample
read, and the Dijkstra fields of ``pair_distances``), the closed-form
distance blocks, each scan probe's quadruple rows, the completion
comparison's nearest-vertex and segment matches, and the cap generator's
guard sewing.  Every entry depends only on its own
row, so the blocks change no bit; the blocks of ``distance_blocks`` run in
forked workers, one per CPU of the affinity mask, with the same bits for
every worker count.  A worker that fails sends nothing and leaves its
blocks to the caller, which computes them itself: an error is raised as
the serial path raises it.

On a complete square lattice (see ``DiscreteLengthSpace.validate``) the
graph metric is a polygonal norm with a closed form, ``_lattice_norms``:
the space's own distance queries read it instead of running Dijkstra.

A graph space is stored as one compact JSON object: a vertex table of
``{"in_U": bool, "xy"|"xyz": [...]}`` entries, the generator's ``meta``,
and an ``edges`` object holding the upper triangle of the weighted
adjacency matrix in CSR form.  Each edge is stored once, in the row of its
lower vertex id, and the columns of a row ascend.  Its members are base64
strings of little-endian arrays: ``indptr``, the n + 1 int32 row offsets;
``indices``, the ``indptr[-1]`` int32 columns; ``w``, the ``indptr[-1]``
float64 weights.  A load decodes the three arrays and hands them to the
space as they are; a space built from endpoint pairs sorts them into the
same arrays once.  Either way the space checks on these arrays that the
offsets rise from 0 to the column count, that every column lies above its
row and below n and rises strictly within its row (no self-loops, no
duplicate edges), that the weights are positive and finite, and that they
match the embedding; last, it builds the symmetric matrix and checks that
the graph is connected.  Files whose edge table is an ``ij``
endpoint list or a list of ``[i, j, w]`` triples, both written by earlier
versions, are refused with the ``domain generate`` command that rebuilds
them.
"""

from __future__ import annotations

import base64
import io
import json
import math
import os
import pickle
import shlex
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType

import numpy as np

from .errors import (
    GeometryError,
    ResolutionError,
    UndefinedModelAngleError,
    UnreachableError,
)
from .reporting import _atomic_write
from .trig import angle_from_sides, batch_angle, check_curvature, first_missing

_PATH_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# metric carriers


# scipy.sparse is imported where a graph needs it, so that the commands
# without a graph (the sweeps, CSV scans) never load it


def dijkstra(csgraph, **options):
    """scipy's ``csgraph.dijkstra``."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(csgraph, **options)


def _upper_csr(edges, weights, n: int):
    """The upper-triangle CSR arrays ``(indptr, indices, w)`` of weighted endpoint pairs.

    A pair may come in either orientation and the pairs in any order: each
    goes to the row of its lower id, and the rows and the columns within
    each row ascend.  Self-loops and duplicates are kept, for
    :meth:`DiscreteLengthSpace.validate` to refuse.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(pairs),):
        raise GeometryError(f"{len(pairs)} edges need as many weights, got shape {w.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise GeometryError("edge endpoint out of range")
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    order = np.argsort(lo * n + hi, kind="stable")
    index = np.int32 if max(n, len(pairs)) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(lo, minlength=n), out=indptr[1:])
    return indptr, hi[order].astype(index), w[order]


def _induced_csr(graph, keep: np.ndarray):
    """The entries of a CSR matrix whose row and column both carry the ``keep`` flag.

    ``graph`` itself when every vertex is kept; otherwise the kept entries
    in a new matrix, without a second transpose or sort.
    """
    if keep.all():
        return graph
    from scipy.sparse import csr_matrix

    indptr, indices = graph.indptr, graph.indices
    rows = np.repeat(np.arange(graph.shape[0], dtype=indices.dtype), np.diff(indptr))
    entry = keep[rows] & keep[indices]
    starts = np.concatenate([[0], np.cumsum(entry)]).astype(indptr.dtype)
    return csr_matrix((graph.data[entry], indices[entry], starts[indptr]), shape=graph.shape)


def _b64(arr: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode("ascii")


def _unb64(table: dict, name: str, dtype: str, items: int | None = None) -> np.ndarray:
    """The ``dtype`` values of the base64 member ``name`` of a graph file's edge table.

    Exactly ``items`` of them when given, else any whole number.
    """
    raw = base64.b64decode(table[name], validate=True)
    size = np.dtype(dtype).itemsize
    need = size * (len(raw) // size if items is None else items)
    if len(raw) != need:
        raise GeometryError(f"edges.{name} holds {len(raw)} bytes where {need} are needed")
    return np.frombuffer(raw, dtype=dtype)


# DomainSpec fields and the `domain generate` options that set them
_SPEC_OPTIONS = (("kind", "--kind"), ("resolution", "--h"), ("cap_radius", "--r"),
                 ("delta", "--delta"), ("num_segments", "--segments"), ("side", "--side"),
                 ("stencil_radius", "--stencil-radius"))
_SPEC_LISTS = (("removed_points", "--remove-point"), ("removed_segments", "--remove-segment"))
# the `domain generate` parameters each kind reads besides --kind, --seed and
# -o; the command refuses the others
KIND_OPTIONS = {"cap": ("resolution", "cap_radius"),
                "dense_square": ("resolution", "delta", "num_segments", "side", "stencil_radius"),
                "punctured": ("resolution", "side", "stencil_radius", "removed_points",
                              "removed_segments"),
                "sphere_points": ("n_points",)}


def _regenerate_hint(meta, path) -> str:
    """The ``alexkit domain generate`` command line that rebuilds a generated file."""
    try:
        spec = meta["spec"]
        reads = ("kind", *KIND_OPTIONS[spec["kind"]])
        argv = ["alexkit", "domain", "generate"]
        for key, opt in _SPEC_OPTIONS:
            if key in reads:
                argv += [opt, str(spec[key])]
        for key, opt in _SPEC_LISTS:
            if key in reads:
                for item in spec[key]:
                    argv += [opt, ",".join(repr(float(x)) for x in item)]
        argv += ["--seed", str(int(meta["seed"])), "-o", str(path)]
    except (KeyError, TypeError, ValueError, OverflowError):
        return "regenerate it with `alexkit domain generate`"
    return f"regenerate it with `{shlex.join(argv)}`"


def _read_graph_file(path):
    """The arguments ``(coords, in_U, indptr, indices, w, meta)`` of a graph file's space.

    Checks the JSON types and the byte lengths of the edge table's arrays;
    the space checks the graph itself.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        verts = data["vertices"]
        meta = data.get("meta", {})
        table = data["edges"]
        n = len(verts)
        in_u = np.array([v["in_U"] for v in verts])
        if n and (in_u.dtype != bool or in_u.ndim != 1):
            raise GeometryError("vertex in_U flags must be JSON booleans")
        coords = None
        if n and ("xy" in verts[0] or "xyz" in verts[0]):
            key = "xy" if "xy" in verts[0] else "xyz"
            coords = np.array([v[key] for v in verts], dtype=float)
        if isinstance(table, list) or (isinstance(table, dict) and "ij" in table):
            raise GeometryError(f"{path} holds an edge table in a format no longer read; "
                                f"{_regenerate_hint(meta, path)}")
        if not isinstance(table, dict):
            raise GeometryError('edges must be an object {"indptr", "indices", "w"}')
        indptr = _unb64(table, "indptr", "<i4", n + 1)
        indices = _unb64(table, "indices", "<i4")
        weights = _unb64(table, "w", "<f8", len(indices))
    except GeometryError:
        raise
    except UnicodeDecodeError as exc:
        # the exception's repr would quote the whole undecodable buffer
        raise GeometryError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        raise GeometryError(f"malformed length-space file: {exc!r}") from exc
    return coords, in_u, indptr, indices, weights, meta


def _checked_meta(meta) -> dict:
    """A copy of a graph's ``meta`` object, the members that alexkit reads checked.

    Each may be absent: ``h``, ``h_err``, ``stencil_gap`` and ``side`` are
    finite numbers >= 0, not booleans; ``exact_metric`` is ``"sphere"`` or
    ``"euclidean"``; ``chord_corrected`` is a boolean; ``segments`` is a
    non-empty table of finite ``(x1, y1, x2, y2)`` rows.  Anything else is a
    :class:`GeometryError`.
    """
    if meta is None:
        return {}
    if not isinstance(meta, dict):
        raise GeometryError(f"meta must be an object, got {type(meta).__name__}")
    for key in ("h", "h_err", "stencil_gap", "side"):
        v = meta.get(key, 0.0)
        # a comparison of an int with a float is exact: no int past the float range passes
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v <= _FLOAT_MAX:
            raise GeometryError(f"meta.{key} must be a finite number >= 0, got {v!r:.40}")
    if meta.get("exact_metric", "sphere") not in ("sphere", "euclidean"):
        raise GeometryError(f'meta.exact_metric must be "sphere" or "euclidean", '
                            f"got {meta['exact_metric']!r:.40}")
    if not isinstance(meta.get("chord_corrected", False), bool):
        raise GeometryError("meta.chord_corrected must be a boolean")
    if "segments" in meta:
        try:
            segs = np.asarray(meta["segments"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            segs = np.empty(0)
        if segs.ndim != 2 or segs.shape[1] != 4 or not len(segs) or not np.isfinite(segs).all():
            raise GeometryError("meta.segments must be a non-empty table of finite "
                                "(x1, y1, x2, y2) rows")
    return dict(meta)


# float64 elements in one block of a broadcast temporary (2 MB)
_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(rows: int, width: int):
    """Slices of ``rows`` rows whose blocks of ``width`` elements each stay within budget."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _workers(blocks: int) -> int:
    """Processes for ``blocks`` independent blocks: one per CPU of the affinity mask, at most one
    per block.

    1 where the platform has no mask (not Linux) or another Python thread
    runs: a forked child inherits only the calling thread, and any lock
    another one held.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(blocks, len(os.sched_getaffinity(0)))


def _map_blocks(compute, blocks: list) -> list:
    """``[compute(rows) for rows in blocks]``, the blocks shared among forked workers.

    With k = :func:`_workers` of the block count, k - 1 children are forked:
    child w sends the list of blocks w, w + k, ... in one pickle, or nothing
    if it fails.  The parent computes blocks 0, k, ..., then the blocks of
    each child that sent no whole list, so an error is the serial path's and
    the list is the same for every k.  Every child is killed and reaped
    before the call returns or raises.
    """
    k = _workers(len(blocks))
    if k < 2:
        return [compute(rows) for rows in blocks]
    # imported here, so that the commands that fork no worker never load it
    import signal

    out = [None] * len(blocks)
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(1, k):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    parts = [compute(rows) for rows in blocks[w::k]]
                    # all computed before the write: no wait on a full pipe
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(parts, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                finally:
                    # no atexit handler, and no flush of the stdio buffers the parent also holds
                    os._exit(0)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        out[::k] = [compute(rows) for rows in blocks[::k]]
        for w, (_, pipe) in enumerate(children, 1):
            try:
                out[w::k] = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                out[w::k] = [compute(rows) for rows in blocks[w::k]]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def _lattice_norms(cells: int, spacing: float, radius: int) -> np.ndarray:
    """The graph distance of each lattice offset ``(x, y)``, ``0 <= x, y <= cells``.

    A complete square lattice of ``cells`` cells per side, with every
    stencil step of ``radius`` as an edge, has the polygonal norm whose
    worst overshoot ``stencil_distortion`` names.  The offset, folded
    into the first octant (``big >= small``), lies between two consecutive
    steps ``e1 = (a1, b1)`` and ``e2 = (a2, b2)``; their determinant is 1,
    so ``s = big*b2 - small*a2`` and ``t = small*a1 - big*b1`` are the
    non-negative integers with ``s*e1 + t*e2`` the offset, and the distance
    is ``h*(s|e1| + t|e2|)``.  Both steps lie in the offset's quadrant, so a
    path of them stays in the bounding box of its ends, inside the square.
    The spacing h multiplies last, once: an offset of x cells along an axis
    reads ``x*h``, the generator's own coordinate of vertex x.
    """
    # the first octant's steps, the Farey fractions b / a of order radius, by slope
    a, b = np.meshgrid(np.arange(1, radius + 1), np.arange(radius + 1), indexing="ij")
    keep = (b <= a) & (np.gcd(a, b) == 1)
    order = np.argsort(b[keep] / a[keep], kind="stable")
    a, b = a[keep][order], b[keep][order]
    length = np.hypot(a, b)
    x = np.arange(cells + 1)
    big, small = np.maximum.outer(x, x), np.minimum.outer(x, x)
    # the last step whose slope is at most small / big, compared exactly in integers
    k = np.zeros(big.shape, dtype=np.intp)
    for j in range(1, len(a) - 1):
        k += b[j] * big <= small * a[j]
    s = big * b[k + 1] - small * a[k + 1]
    t = small * a[k] - big * b[k]
    norms = s * length[k] + t * length[k + 1]
    norms *= spacing
    return norms


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right: the same bits under every kernel."""
    total = a[..., 0]
    for i in range(1, a.shape[-1]):
        total = total + a[..., i]
    return total


def great_circle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Great-circle distances between unit vectors, broadcast over leading axes.

    ``atan2(|u x v|, u . v)`` with fixed-order sums: a few ulp at every
    separation, antipodal pairs included, and the same bits under every BLAS.
    """
    (u0, u1, u2), (v0, v1, v2) = np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0)
    c0, c1, c2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    return np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), u0 * v0 + u1 * v1 + u2 * v2)


# floats per point pair that great_circle (6) or the norm of a difference (8)
# holds at its peak
_PAIR_FLOATS = 8


def _closed_form_distances(pts: np.ndarray, exact: str) -> np.ndarray:
    """The distances among ``pts`` by the closed form ``exact``, in blocks of rows.

    ``"sphere"``: great circles between unit vectors; ``"euclidean"``: the
    norm of each difference.  Each entry depends only on its own pair, so
    the blocks give the bits of one broadcast over every pair.
    """
    m = len(pts)
    out = np.empty((m, m))
    for rows in _row_blocks(m, _PAIR_FLOATS * m):
        if exact == "sphere":
            out[rows] = great_circle(pts[rows, None, :], pts[None, :, :])
        else:
            out[rows] = np.linalg.norm(pts[rows, None, :] - pts[None, :, :], axis=-1)
    return out


# pairs per tile of the triangle check: its temporary holds rows * cols * n floats
_TILE_ROWS, _TILE_COLS = 4, 32


def _triangle_violation(d: np.ndarray, tol: float) -> tuple[int, int, int] | None:
    """The first ``(i, j, k)`` in tile order with ``d[i, j] > d[i, k] + d[k, j] + tol``, or None.

    k is the point of least ``d[i, k] + d[k, j]``.  See
    :meth:`FiniteMetricSpace.validate`.
    """
    n = d.shape[0]
    d_t = np.ascontiguousarray(d.T)  # d_t[j, k] == d[k, j]
    symmetric = np.array_equal(d, d_t)
    buf = np.empty((_TILE_ROWS, _TILE_COLS, n))
    for i0 in range(0, n, _TILE_ROWS):
        rows = d[i0:i0 + _TILE_ROWS]
        first = i0 - i0 % _TILE_COLS if symmetric else 0
        for j0 in range(first, n, _TILE_COLS):
            cols = d_t[j0:j0 + _TILE_COLS]
            sums = buf[:len(rows), :len(cols)]
            np.add(rows[:, None, :], cols[None, :, :], out=sums)
            bad = rows[:, j0:j0 + _TILE_COLS] > sums.min(axis=2) + tol
            if bad.any():
                a, b = np.argwhere(bad)[0]
                return i0 + int(a), j0 + int(b), int(sums[a, b].argmin())
    return None


class FiniteMetricSpace:
    """Symmetric nonnegative distance matrix validated as a metric."""

    def __init__(self, dist: np.ndarray, validate: bool = True):
        d = np.asarray(dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise GeometryError("distance matrix must be square")
        self.dist = d
        if validate:
            self.validate()

    exact_metric = None
    h_err = 0.0
    # no graph: the work ledger of DiscreteLengthSpace stays empty
    work = MappingProxyType({})

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def validate(self) -> None:
        """Raise :class:`GeometryError` unless the matrix is a metric within ``tol``.

        ``tol`` is 1e-9 of the largest |entry|, so that every positive
        multiple of a matrix gets its verdict.  The triangle inequality is
        checked exactly: ``d[i, j] > d[i, k] + d[k, j] + tol`` for some k if
        and only if ``d[i, j]`` exceeds the min-plus product ``min_k (d[i, k]
        + d[k, j])`` plus ``tol``, since adding ``tol`` rounds monotonically.
        The product is formed one tile of pairs at a time; when the matrix
        equals its transpose bit for bit, tile (j, i) repeats tile (i, j) and
        only the tiles on or above the diagonal run.  A failure names the
        first failing pair in tile order and the point it fails through.
        """
        d = self.dist
        if not np.all(np.isfinite(d)):
            raise GeometryError("distances must be finite")
        tol = 1e-9 * float(np.abs(d).max(initial=0.0))
        if np.any(d < -tol):
            raise GeometryError("distances must be nonnegative")
        if np.abs(np.diag(d)).max(initial=0.0) > tol:
            raise GeometryError("diagonal must vanish")
        if np.abs(d - d.T).max(initial=0.0) > tol:
            raise GeometryError("matrix must be symmetric")
        bad = _triangle_violation(d, tol)
        if bad is not None:
            i, j, k = bad
            raise GeometryError(f"triangle inequality fails: d({i}, {j}) > d({i}, {k}) + "
                                f"d({k}, {j}) + {tol:.3g}, 1e-9 of the largest |d|")

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """The distances among the points ``idx``, in their order."""
        return self.dist[np.ix_(idx, idx)]

    def to_csv(self, path) -> None:
        buf = io.StringIO()
        np.savetxt(buf, self.dist, delimiter=",", fmt="%.17g")
        _atomic_write(path, buf.getvalue())

    @classmethod
    def from_csv(cls, path) -> "FiniteMetricSpace":
        try:
            dist = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GeometryError(f"malformed distance-matrix CSV: {exc}") from exc
        return cls(dist)


class SpherePointSet:
    """Points on the unit sphere with exact great-circle distances."""

    exact_metric = "sphere"
    h_err = 0.0
    work = FiniteMetricSpace.work

    def __init__(self, points: np.ndarray):
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3:
            raise GeometryError("expected an (n, 3) array of unit vectors")
        norms = np.linalg.norm(p, axis=1)
        if np.abs(norms - 1.0).max(initial=0.0) > 1e-9:
            raise GeometryError("points must lie on the unit sphere")
        self.points = p / norms[:, None]

    @classmethod
    def random(cls, n: int, seed: int = 0) -> "SpherePointSet":
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, 3))
        return cls(v / np.linalg.norm(v, axis=1, keepdims=True))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """The great-circle distances among the points ``idx``, in their order."""
        return _closed_form_distances(self.points[idx], "sphere")


@dataclass
class GeodesicPath:
    """Vertex walk of a shortest path with cumulative arc lengths."""

    vertices: list[int]
    arc_lengths: np.ndarray
    length: float

    def __post_init__(self):
        if len(self.vertices) != len(self.arc_lengths):
            raise GeometryError("vertex and arc-length counts differ")
        if len(self.vertices) > 1 and np.any(np.diff(self.arc_lengths) <= 0.0):
            raise GeometryError("cumulative arc lengths must increase strictly")
        if abs(float(self.arc_lengths[-1]) - self.length) > _PATH_TOL * (1.0 + self.length):
            raise GeometryError("path arc total disagrees with its stated length")

    def vertex_at_arc(self, t: float) -> int:
        """Path vertex whose cumulative arc is nearest to t."""
        return int(self.vertices_at_arcs(np.array([t], dtype=float))[0])

    def vertices_at_arcs(self, ts: np.ndarray) -> np.ndarray:
        """:meth:`vertex_at_arc` of each of ``ts``, with one ``searchsorted``.

        Arcs before the start or past the end give the end vertices; between
        two path vertices the nearer wins, the earlier one on a tie.
        """
        ts = np.asarray(ts, dtype=float)
        arcs = self.arc_lengths
        verts = np.asarray(self.vertices)
        last = len(verts) - 1
        if last == 0:
            return np.full(ts.shape, verts[0])
        i = np.searchsorted(arcs, ts)
        inner = np.clip(i, 1, last)
        before = ts - arcs[inner - 1]
        after = arcs[inner] - ts
        pick = np.where(before <= after, inner - 1, inner)
        return verts[np.where(i <= 0, 0, np.where(i > last, last, pick))]


class DiscreteLengthSpace:
    """Weighted graph over embedded vertices modeling an incomplete domain.

    The full graph stands for the metric completion; the subgraph induced
    by the ``in_U`` flags stands for the open domain itself.  Edge weights
    must match embedded segment lengths when coordinates are present, so
    graph distances always dominate the ambient metric.

    ``edges`` are endpoint pairs in any order and orientation; the space
    holds them once, as the upper triangle of the weighted adjacency matrix
    in CSR form (see the module docstring), which is what a graph file
    stores and what :meth:`load` reads back without a sort.

    ``work`` is the ledger of the space's metric queries: the sources of
    the distance fields without a ``limit`` (``full_fields``) and with one
    (``bounded_fields``), and the walks of :meth:`shortest_path`
    (``geodesics``).  A command reports its growth (:func:`_work_since`).

    On a complete square lattice, as :meth:`validate` decides it, the
    distance queries read the closed form ``_lattice_norms`` instead of
    running Dijkstra; everywhere else they run Dijkstra.  The ledger counts
    the same either way.
    """

    def __init__(self, coords, in_U, edges, weights, meta=None):
        in_u = np.asarray(in_U, dtype=bool)
        self._setup(coords, in_u, *_upper_csr(edges, weights, len(in_u)), meta)

    def _setup(self, coords, in_U, indptr, indices, weights, meta) -> None:
        """Take the upper-triangle CSR arrays as they are, and validate them."""
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self.in_U = np.asarray(in_U, dtype=bool)
        self.meta = _checked_meta(meta)
        self._n = self.in_U.shape[0]
        self._indptr, self._indices, self.weights = indptr, indices, weights
        self.work = {"full_fields": 0, "bounded_fields": 0, "geodesics": 0}
        self.validate()

    @cached_property
    def _graph(self):
        """The symmetric CSR matrix, each edge in both directions: ``up + up.T``.

        scipy transposes by counting, so the rows come out sorted with no
        COO temporary and no index sort; the transposed copy is freed once
        the sum is built.  Built by :meth:`validate` for its last check, the
        connectivity search, once the arrays are known to form an upper
        triangle that matches the embedding.
        """
        from scipy.sparse import csr_matrix

        up = csr_matrix((self.weights, self._indices, self._indptr), shape=(self._n, self._n))
        return up + up.T

    @cached_property
    def _graph_u(self):
        """``_graph`` restricted to the edges between ``in_U`` vertices."""
        return _induced_csr(self._graph, self.in_U)

    @cached_property
    def _lattice(self):
        """The ``_lattice_norms`` table of a complete square lattice, else None.

        Built at the first query, from the ``_lattice_cells`` that
        :meth:`validate` decided.
        """
        if not self._lattice_cells:
            return None
        return _lattice_norms(self._lattice_cells, self.h, self.meta["stencil_radius"])

    @cached_property
    def _lattice_u(self):
        """``_lattice`` for the distances within U: the same table when U is every vertex."""
        return self._lattice if self.in_U.all() else None

    # -- basic facts

    @property
    def n_points(self) -> int:
        return self._n

    @property
    def edges(self) -> np.ndarray:
        """The (m, 2) endpoint pairs, lower id first, in the order of ``weights``."""
        return np.column_stack([self._rows(), self._indices])

    def _rows(self) -> np.ndarray:
        """The row of each stored column, in the columns' index dtype."""
        return np.repeat(np.arange(self._n, dtype=self._indices.dtype), np.diff(self._indptr))

    @property
    def h(self) -> float:
        return float(self.meta.get("h", 0.0))

    @property
    def h_err(self) -> float:
        return float(self.meta.get("h_err", 0.0))

    @property
    def exact_metric(self) -> str | None:
        """``"sphere"`` or ``"euclidean"`` when the generator recorded a closed-form metric."""
        return self.meta.get("exact_metric")

    @property
    def stencil_gap(self) -> float:
        """Widest angle between the lattice directions of a grid's stencil; 0 otherwise."""
        return float(self.meta.get("stencil_gap", 0.0))

    def validate(self) -> None:
        """Raise :class:`GeometryError` unless the edge table is a connected, embedded graph.

        The table is checked as CSR arrays: offsets rising from 0 to the
        column count, each column above its row and below n and rising
        strictly within its row, weights positive and finite.  Coordinates,
        when present, must be a finite (n, 2) or (n, 3) array, and the weights
        must match the embedding (dominate the chords when
        ``meta["chord_corrected"]``), the segment lengths gathered one
        coordinate at a time and summed in order, in place.  Then it decides
        whether the graph is a complete square lattice (``_lattice_cells``),
        whose distances have a closed form.  Last, one breadth-first search
        from vertex 0 must reach every vertex: the only check that needs the
        symmetric matrix, so it is built once the arrays have passed the
        others and the lattice test's temporaries are freed.
        """
        n, indptr, cols, w = self._n, self._indptr, self._indices, self.weights
        if n == 0:
            raise GeometryError("empty vertex set")
        if indptr[0] != 0 or indptr[-1] != len(cols) or np.any(indptr[1:] < indptr[:-1]):
            raise GeometryError("edges.indptr must rise from 0 to the number of columns")
        rows = self._rows()
        if np.any((cols < 0) | (cols >= n)):
            raise GeometryError("edge endpoint out of range")
        below = np.flatnonzero(cols <= rows)
        if len(below):
            k = below[0]
            raise GeometryError(f"self-loop or edge below the diagonal at row {rows[k]}, "
                                f"column {cols[k]}: each edge is stored once, in the row "
                                f"of its lower id")
        repeat = np.flatnonzero((cols[1:] <= cols[:-1]) & (rows[1:] == rows[:-1]))
        if len(repeat):
            k = repeat[0] + 1
            what = "duplicate edges" if cols[k] == cols[k - 1] else "columns out of order"
            raise GeometryError(f"{what} at row {rows[k]}, column {cols[k]}")
        if not np.all((w > 0.0) & (w < np.inf)):
            raise GeometryError("edge weights must be positive and finite")
        if self.coords is not None:
            xy = self.coords
            if xy.ndim != 2 or xy.shape[0] != n or xy.shape[1] not in (2, 3):
                raise GeometryError(f"vertex coordinates must form an ({n}, 2) or ({n}, 3) "
                                    f"array, got shape {xy.shape}")
            if not np.isfinite(xy).all():
                raise GeometryError("vertex coordinates must be finite")
            self._check_embedding(rows)
        self._lattice_cells = self._complete_lattice(rows)
        # the search builds the symmetric matrix; the rows need not wait for it
        del rows
        from scipy.sparse.csgraph import breadth_first_order

        reached = len(breadth_first_order(self._graph, 0, directed=True,
                                          return_predecessors=False))
        if reached != n:
            raise GeometryError(f"completion graph must be connected; vertex 0 reaches "
                                f"{reached} of {n} vertices")

    def _check_embedding(self, rows: np.ndarray) -> None:
        """The embedding check of :meth:`validate`, given each column's row.

        Each edge's squared segment length is summed one coordinate at a
        time from the first, in the order of ``sum(squares[1:],
        squares[0])``, and every step writes into the running array, so the
        check holds two edge-long temporaries besides its result.
        """
        cols, w = self._indices, self.weights

        def square(x):
            d = x[rows]
            d -= x[cols]
            d *= d
            return d

        xs = self.coords.T
        seg = square(xs[0])
        for x in xs[1:]:
            seg += square(x)
        np.sqrt(seg, out=seg)
        if not self.meta.get("chord_corrected", False):
            seg -= w
            err = np.abs(seg, out=seg).max(initial=0.0)
            if err > 1e-9 * (1.0 + w.max(initial=0.0)):
                raise GeometryError(f"edge weights disagree with embedding by {float(err)!r}")
        else:
            # arc-weighted edges must dominate their chords
            seg -= 1e-9
            if np.any(w < seg):
                raise GeometryError("arc weights shorter than chords")

    def _complete_lattice(self, rows: np.ndarray) -> int:
        """The cells per side when the graph is a complete square lattice, else 0.

        Decided on the arrays, given each column's row, with ``meta``'s
        ``h`` and ``stencil_radius`` as the claim to test: n is (cells + 1)²;
        the coordinates are the grid ``arange(cells + 1) * h`` that the
        generator lays out, bit for bit, x major; the weights are segment
        lengths, not arcs; every stored edge is a stencil step, with no
        wrap from one grid row to the next; and the edge count is the
        stencil's for this grid.  Distinct stored edges that are all steps
        and as many as the steps are every step.  A removed vertex, a cut
        or missing edge or a moved vertex leaves the graph to Dijkstra.
        """
        n, h, radius = self._n, self.h, self.meta.get("stencil_radius")
        stride = math.isqrt(n)
        cells = stride - 1
        if (stride * stride != n or cells < 1 or not h > 0.0 or self.coords is None
                or self.coords.shape[1] != 2 or self.meta.get("chord_corrected", False)
                or type(radius) is not int or not 1 <= radius <= cells):
            return 0
        xs = np.arange(stride) * h
        if not (np.array_equal(self.coords[:, 0], np.repeat(xs, stride))
                and np.array_equal(self.coords[:, 1], np.tile(xs, stride))):
            return 0
        # the upper steps (di, dj): primitive, with di > 0, or di == 0 < dj
        x, y = np.meshgrid(np.arange(radius + 1), np.arange(-radius, radius + 1), indexing="ij")
        allowed = (np.gcd(x, y) == 1) & ((x > 0) | (y > 0))
        if len(self._indices) != int(((stride - x) * (stride - abs(y)))[allowed].sum()):
            return 0
        # each edge's step, as an index into the table of allowed steps
        cols = self._indices
        di = cols // stride
        di -= rows // stride
        dj = cols - rows
        dj -= di * stride
        if di.max(initial=0) > radius or dj.min(initial=0) < -radius or dj.max(initial=0) > radius:
            return 0
        di *= 2 * radius + 1
        dj += radius
        di += dj
        return cells if allowed.ravel()[di].all() else 0

    # -- metric queries

    def _lattice_distances(self, u, v) -> np.ndarray:
        """The lattice distances between the vertices ``u`` and ``v``, broadcast together.

        The one closed-form kernel of the fields and the pairs: the
        ``_lattice`` table read at each pair's offset.
        """
        ui, uj = np.divmod(u, self._lattice_cells + 1)
        vi, vj = np.divmod(v, self._lattice_cells + 1)
        return self._lattice[np.abs(ui - vi), np.abs(uj - vj)]

    def distance_field(self, sources, restrict_to_U: bool = False,
                       limit: float = np.inf) -> np.ndarray:
        """Graph distances from one source (1-D) or a sequence of sources (2-D).

        ``restrict_to_U`` measures in the subgraph of the ``in_U`` vertices;
        entries beyond ``limit`` read inf.  On a complete square lattice,
        unrestricted or with every vertex in U, the closed form answers;
        otherwise scipy's Dijkstra does.  Both stored matrices are
        symmetric, so the directed search gives the undirected distances
        without scipy's transposed copy.
        """
        self.work["full_fields" if limit == np.inf else "bounded_fields"] += int(np.size(sources))
        if (self._lattice_u if restrict_to_U else self._lattice) is not None:
            ids = np.arange(self._n)
            # negative ids count from the end, as scipy takes them
            field = self._lattice_distances(np.asarray(ids[sources])[..., None], ids)
            field[field > limit] = np.inf
            return field
        g = self._graph_u if restrict_to_U else self._graph
        return dijkstra(g, directed=True, indices=sources, limit=limit)

    def pair_distances(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The graph distance of each pair ``(p[i], q[i])``, in the completion.

        The closed form on a complete square lattice; otherwise the Dijkstra
        fields from the distinct sources of ``p``, a block of sources at a
        time in this process, each read at its pairs.  The ledger counts one
        full field per distinct source either way.
        """
        sources, which = np.unique(p, return_inverse=True)
        self.work["full_fields"] += len(sources)
        if self._lattice is not None:
            return self._lattice_distances(p, q)
        out = np.empty(len(p))
        for rows in _row_blocks(len(sources), self._n):
            fields = dijkstra(self._graph, directed=True, indices=sources[rows])
            pick = np.flatnonzero((which >= rows.start) & (which < rows.stop))
            out[pick] = fields[which[pick] - rows.start, q[pick]]
        return out

    def distance_blocks(self, sources: np.ndarray, keep) -> np.ndarray:
        """``keep(rows, fields)`` of each block of the multi-source field from ``sources``.

        The graph's multi-source Dijkstra, for the scan's :meth:`submatrix`
        and the cap generator's distortion sample.  The sources are cut into
        blocks of rows of at most ``_BLOCK_ELEMENTS``
        distances; ``fields`` holds the graph distances from ``sources[rows]``,
        and ``keep`` returns the part of them the caller needs, so that one
        block of fields is held at a time.  The kept parts come back
        concatenated in block order, an empty array when there are no
        sources.  The blocks run in forked workers, one per CPU of the
        affinity mask (see :func:`_map_blocks`); each Dijkstra row depends
        only on its source, so the result is the same bits for every worker
        count, and an error is raised as the serial call raises it.  The
        ledger counts the sources here, in the caller, whichever process
        computed their block.
        """
        parts = _map_blocks(
            lambda rows: keep(rows, dijkstra(self._graph, directed=True, indices=sources[rows])),
            list(_row_blocks(len(sources), self._n)))
        self.work["full_fields"] += len(sources)
        return np.concatenate(parts) if parts else np.empty(0)

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """The distances among the vertices ``idx``, in their order.

        The closed form named by ``exact_metric`` on the coordinates when the
        generator recorded one, else the multi-source graph block, symmetrized.
        Either is filled in blocks of rows: the graph's are the
        :meth:`distance_blocks` from ``idx`` cut to the ``idx`` columns.
        """
        exact = self.exact_metric
        if exact in ("sphere", "euclidean"):
            return _closed_form_distances(self.coords[idx], exact)
        dist = self.distance_blocks(idx, lambda rows, fields: fields[:, idx])
        # the bits of 0.5 * (dist + dist.T), with one temporary
        sym = dist + dist.T
        sym *= 0.5
        return sym

    def shortest_path(self, src: int, dst: int, restrict_to_U: bool = False,
                      dist_to: np.ndarray | None = None) -> GeodesicPath:
        """Deterministic minimal path from src to dst.

        Walks the CSR rows of the requested graph (the restricted matrix holds the
        U-U edges).  With D the distances to dst, v is a DAG neighbor of u at weight
        w when ``|w + D[v] - D[u]| <= 1e-12 * total`` and ``D[v] < D[u]``.  Their key
        is the squared distance to the chord between the endpoint embeddings, in
        fixed-order arithmetic; keys within ``1e-12 * total**2`` of the least tie,
        and the lowest id wins, as it does without coordinates.  Takes ``dist_to =
        distance_field(dst, restrict_to_U)`` when the caller holds it, and raises
        :class:`UnreachableError` when the requested subgraph separates the ends.
        """
        if restrict_to_U and not (self.in_U[src] and self.in_U[dst]):
            raise UnreachableError("endpoints must carry the in_U flag for restricted paths")
        if dist_to is None:
            dist_to = self.distance_field(dst, restrict_to_U=restrict_to_U)
        total = float(dist_to[src])
        if not math.isfinite(total):
            raise UnreachableError(f"no path from {src} to {dst} in the requested subgraph")
        g = self._graph_u if restrict_to_U else self._graph
        indptr, indices, data = g.indptr, g.indices, g.data
        coords, proj = self.coords, None
        if coords is not None:
            p0, chord = coords[src], coords[dst] - coords[src]
            chord2 = _row_sums(chord * chord)
            if chord2 > 0.0:
                proj = chord / chord2
        tol = 1e-12 * total
        verts, steps, u = [src], [0.0], src
        while u != dst:
            lo, hi = indptr[u], indptr[u + 1]
            nbrs, ws = indices[lo:hi], data[lo:hi]
            dv, du = dist_to.take(nbrs), dist_to[u]
            on = ((abs(ws + dv - du) <= tol) & (dv < du)).nonzero()[0]
            if not len(on):
                raise UnreachableError(f"walk stalled at vertex {u}; inconsistent field")
            if len(on) > 1 and proj is not None:
                off = coords.take(nbrs[on], axis=0) - p0
                perp = off - _row_sums(off * proj)[:, None] * chord
                key = _row_sums(perp * perp)
                on = on[key <= min(key.tolist()) + tol * total]
            # a CSR row lists its column ids in ascending order
            j = on[0]
            u = int(nbrs[j])
            verts.append(u)
            steps.append(ws[j])
        self.work["geodesics"] += 1
        # cumsum adds in order, as a running sum would
        return GeodesicPath(vertices=verts, arc_lengths=np.cumsum(steps), length=total)

    # -- serialization

    def save(self, path) -> None:
        """Write the graph file atomically: compact, sorted-key JSON.

        The vertex table and ``meta`` are plain JSON; the edge table is
        ``{"indices": ..., "indptr": ..., "w": ...}``, the base64 of the
        space's own upper-triangle CSR arrays (little-endian int32 columns
        and row offsets, little-endian float64 weights), so a load reads
        them back bit for bit.  The base64 members hold nothing that JSON
        escapes, so they are spliced into the text as they are; the bytes
        equal one sorted-key ``json.dumps`` of the whole payload.
        """
        if max(self._n, len(self._indices)) >= 2**31:
            raise GeometryError(f"{self._n} vertices and {len(self._indices)} edges do not "
                                f"fit the file's int32 ids and offsets")
        in_u = self.in_U.tolist()
        if self.coords is None:
            verts = [{"in_U": u} for u in in_u]
        else:
            key = "xy" if self.coords.shape[1] == 2 else "xyz"
            verts = [{"in_U": u, key: c} for u, c in zip(in_u, self.coords.tolist())]
        # "edges" sorts before "meta" and "vertices"
        rest = json.dumps({"meta": self.meta, "vertices": verts}, sort_keys=True,
                          separators=(",", ":"))
        _atomic_write(path, "".join([
            '{"edges":{"indices":"', _b64(self._indices, "<i4"),
            '","indptr":"', _b64(self._indptr, "<i4"),
            '","w":"', _b64(self.weights, "<f8"), '"},', rest[1:], "\n"]))

    @classmethod
    def load(cls, path) -> "DiscreteLengthSpace":
        """Read a graph file written by :meth:`save`; malformed content is a GeometryError.

        Vertex flags must be JSON booleans.  The edge table's members must
        be valid base64 of n + 1 offsets and of as many weights as columns;
        the decoded arrays are validated as they are, with no sort (see
        :meth:`validate`).  A file whose edge table predates this format is
        refused with the command that regenerates it.
        """
        # the parsed tree dies with the reader's frame, before the CSR builds
        space = cls.__new__(cls)
        space._setup(*_read_graph_file(path))
        return space

    def nearest_vertex(self, point, require_in_U: bool = False) -> int:
        """Index of the vertex nearest to ``point`` in the embedding, first on ties.

        Library API; the generators use its array form.
        """
        if self.coords is None:
            raise GeometryError("space carries no coordinates")
        d2 = np.sum((self.coords - np.asarray(point, dtype=float)) ** 2, axis=1)
        if require_in_U:
            d2 = np.where(self.in_U, d2, np.inf)
        return int(np.argmin(d2))


def _work_since(space, before: dict) -> dict:
    """The growth of ``space.work`` since ``before``, a copy of it taken earlier."""
    return {key: count - before[key] for key, count in space.work.items()}


# ---------------------------------------------------------------------------
# pointwise comparisons


def comparison_angle(space, q: int, p: int, s: int, kappa: float) -> float:
    """Comparison angle at q between p and s from the space's own distances; library API."""
    k = check_curvature(kappa)
    if len({q, p, s}) != 3:
        raise GeometryError("comparison angle needs three distinct points")
    d = space.submatrix(np.array([q, p, s]))
    return angle_from_sides(k, d[1, 2], d[0, 1], d[0, 2])


def quadruple_defect(space, p: int, x1: int, x2: int, x3: int, kappa: float) -> float | None:
    """2*pi minus the comparison angle sum at p, or None when vacuous.

    Nonnegative values mean the quadruple condition holds at this
    curvature.  Of the triangles opposite x1x2, x2x3 and x3x1, in that order,
    the first that fails decides: None, vacuously true, when its model angle
    is undefined, else the kernel's exception.  It reads the space's block of
    the four points: it is library API and the oracle of ``_quad_defects``.
    """
    k = check_curvature(kappa)
    ids = (p, x1, x2, x3)
    if len(set(ids)) != 4:
        raise GeometryError("quadruple needs four distinct points")
    d = space.submatrix(np.array(ids))
    total = 0.0
    for i, j in ((1, 2), (2, 3), (3, 1)):
        try:
            total += angle_from_sides(k, d[i, j], d[0, i], d[0, j])
        except UndefinedModelAngleError:
            return None
    return 2.0 * math.pi - total


# ---------------------------------------------------------------------------
# quadruple scans


@dataclass
class ScanReport:
    kappa: float
    samples: int
    evaluated: int
    vacuous: int
    skipped: int
    min_defect: float
    worst_case: dict
    kappa_max: float
    tol: float
    h_err: float = 0.0
    exact_metric: str | None = None
    subset_size: int = 0
    censored: bool = False
    perimeter_bound: float = math.inf
    kappa_max_rule: str = "defect"
    work: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """No evaluated quadruple has a defect below -tol."""
        return not (math.isfinite(self.min_defect) and self.min_defect < -self.tol)


def _scan_distances(space, subset: int, seed: int, samples: int | None):
    """The carrier's distance block over a sorted point subset, and quadruple index samples.

    ``samples=None`` asks for every quadruple, of at most 60 points; a larger
    subset is refused before the block is built, and no sample is drawn.
    """
    rng = np.random.default_rng(seed)
    n = space.n_points
    idx = np.sort(np.arange(n) if n <= subset else rng.choice(n, size=subset, replace=False))
    m = len(idx)
    if m < 4:
        raise GeometryError("quadruple scan needs at least four points")
    if samples is None:
        if m > 60:
            raise GeometryError("exhaustive scan limited to 60 points")
        return space.submatrix(idx), idx, _all_quadruples(m)
    dist = space.submatrix(idx)
    quads = rng.integers(0, m, size=(samples, 4))
    # rows of four distinct points
    quads = quads[(np.diff(np.sort(quads, axis=1), axis=1) != 0).all(axis=1)]
    return dist, idx, quads


# each 4-subset {a, b, c, d} gives four oriented quadruples, one per apex p,
# the other three points in increasing order
_APEX_ROTATIONS = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2]])


def _all_quadruples(m: int) -> np.ndarray:
    """Every oriented quadruple of m points, four rows per 4-subset in lexicographic order."""
    count = math.comb(m, 4)
    combos = np.fromiter(chain.from_iterable(combinations(range(m), 4)), dtype=np.int64,
                         count=4 * count).reshape(count, 4)
    return combos[:, _APEX_ROTATIONS].reshape(-1, 4)


def _quad_sides(dist: np.ndarray, quads: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each quadruple's six distances, gathered once per scan.

    Returns ``(px1, px2, px3, x1x2, x2x3, x3x1)`` for rows ``(p, x1, x2, x3)``.
    """
    p, x1, x2, x3 = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    return dist[p, x1], dist[p, x2], dist[p, x3], dist[x1, x2], dist[x2, x3], dist[x3, x1]


def _quad_defects(sides: tuple[np.ndarray, ...], kappa: float):
    """Each row's ``2*pi`` minus its model angles at p, and whether it is vacuous; one call."""
    px1, px2, px3, x12, x23, x31 = sides
    angles, undefined = batch_angle(kappa, np.stack((x12, x23, x31)),
                                    np.stack((px1, px2, px3)), np.stack((px2, px3, px1)))
    a1, a2, a3 = angles
    return 2.0 * math.pi - (a1 + a2 + a3), first_missing(angles, undefined)[1]


def _perimeter_bound(sides: tuple[np.ndarray, ...]) -> tuple[float, float]:
    """The least ``(2*pi / P)**2`` over rows, P a row's longest triangle perimeter, and ``top``.

    A length space of curvature >= kappa > 0 has no triangle of perimeter
    over ``2*pi/sqrt(kappa)`` (Burago, Gromov and Perelman 1992).  ``top``
    is the largest float below the bound at which the kernel's own test
    defines P.  Both are +inf when every P is 0.
    """
    px1, px2, px3, x12, x23, x31 = sides
    longest = max(float(np.max(opp + u + v, initial=0.0))
                  for opp, u, v in ((x12, px1, px2), (x23, px2, px3), (x31, px3, px1)))
    if not longest:
        return math.inf, math.inf
    root = 2.0 * math.pi / longest
    bound = min(root * root, float(np.finfo(float).max))
    top = math.nextafter(bound, -math.inf)
    while top > 0.0 and not longest < 2.0 * math.pi / math.sqrt(top):
        top = math.nextafter(top, -math.inf)
    return bound, top


# A row whose defect at a probe is at least -tol + _PRUNE_MARGIN holds at every
# smaller curvature: the defect decreases in kappa up to the kernel's rounding,
# at worst 1e-7 (arccos near +-1 on nearly collinear triples).
_PRUNE_MARGIN = 1e-3
# rows a probe evaluates before the rest: the worst failures of the last failing probe
_WITNESSES = 256
# floats that _quad_defects holds per row at its peak, in batch_angle
_PROBE_FLOATS = 40


class _ActiveSet:
    """``holds(kappa)`` over a fixed table of quadruples, evaluating only rows that can decide it.

    A row fails at kappa when it is vacuous there or one of its defects is
    below -tol, and a skipped row holds; ``holds(kappa)`` is true when every
    row holds.  A row defined at kappa is defined below it, and each defect
    decreases in kappa, so the predicate is monotone.  A row
    holds at every kappa up to its ``holds_to``, the greatest probe at which
    its defect was at least -tol + ``_PRUNE_MARGIN``, and a probe evaluates
    only the other rows: first the witnesses, up to ``_WITNESSES`` rows that
    failed worst at the last failing probe below ``bound``, and the rest
    only if every witness holds.  The first probe evaluates every row, and
    the scan reads its verdict from ``last``, the defects and vacuous mask
    of the latest evaluation.  ``probes`` counts the probes and
    ``evaluations`` the rows evaluated.
    """

    def __init__(self, sides: tuple[np.ndarray, ...], tol: float, bound: float):
        self.sides, self.tol, self.bound = sides, tol, bound
        self.holds_to = np.full(len(sides[0]), -np.inf)
        self.witnesses = np.empty(0, dtype=np.intp)
        self.probes, self.evaluations = 0, 0
        self.last = (np.empty(0), np.empty(0, dtype=bool))

    def _holds_on(self, rows: np.ndarray, kappa: float) -> bool:
        """Evaluate ``rows`` at kappa and store what that proved; true when every one holds.

        The rows are evaluated in blocks, each within the block budget.
        """
        self.evaluations += len(rows)
        parts = [_quad_defects(tuple(s[rows[b]] for s in self.sides), kappa)
                 for b in _row_blocks(len(rows), _PROBE_FLOATS)]
        defects, vacuous = self.last = tuple(map(np.concatenate, zip(*parts)))
        self.holds_to[rows[defects >= -self.tol + _PRUNE_MARGIN]] = kappa
        failing = vacuous | (defects < -self.tol)
        if not failing.any():
            return True
        # failures at or above the bound make no witnesses, so that the probe
        # at top evaluates, and settles, every row a witness would skip; a
        # vacuous row's NaN defect sorts after every failing defect
        if kappa < self.bound:
            worst = np.argsort(defects[failing], kind="stable")[:_WITNESSES]
            self.witnesses = rows[failing][worst]
        return False

    def holds(self, kappa: float) -> bool:
        self.probes += 1
        active = self.holds_to < kappa
        witnesses = self.witnesses[active[self.witnesses]]
        active[witnesses] = False
        return all(self._holds_on(rows, kappa)
                   for rows in (witnesses, np.flatnonzero(active)) if len(rows))


def _kappa_max(holds, kappa: float, held: bool, bound: float, top: float) -> tuple[float, str]:
    """The largest probed curvature at which the monotone ``holds`` is true, and its rule.

    ``held`` is the first probe's outcome, at kappa.  ``top``, the largest
    curvature below ``bound`` that the search probes, is probed unless the
    first probe failed at or below it; if it holds, it is the result by the
    ``"perimeter"`` rule.  Otherwise the bracket, bisected for at most 64
    steps or until the midpoint rounds to an end, is [kappa, top] if the
    first probe held there, and else the first holding step down from
    min(kappa, top) by ``bound * 2**j`` (at most 64 steps, else -inf) with
    the step before it; the rule is then ``"defect"``.  Steps scale with
    the bound, so the search is scale-free.  +inf when the bound is.
    """
    if bound == math.inf:
        return math.inf, "perimeter"
    if (held or kappa > top) and holds(top):
        return top, "perimeter"
    if held and kappa <= top:
        a, b = kappa, top
    else:
        b = start = min(kappa, top)
        for j in range(64):
            a = start - bound * 2.0**j
            if holds(a):
                break
            b = a
        else:
            return -math.inf, "defect"
    for _ in range(64):
        mid = 0.5 * a + 0.5 * b
        if mid in (a, b):
            break
        if holds(mid):
            a = mid
        else:
            b = mid
    return a, "defect"


def scan_quadruples(
    space,
    kappa: float,
    samples: int = 100_000,
    seed: int = 0,
    subset: int = 600,
    tol: float | None = None,
    exhaustive: bool = False,
) -> ScanReport:
    """Minimum quadruple defect over sampled quadruples, plus kappa_max.

    The first probe, at ``kappa``, evaluates every quadruple and gives the
    verdict, over the quadruples defined there; each other one is
    ``vacuous`` where ``quadruple_defect`` returns None, else ``skipped``.
    ``kappa_max`` is the largest probed curvature below ``perimeter_bound``
    at which every quadruple holds: it is not vacuous there and none of its
    defects is below -tol.  ``kappa_max_rule`` names what
    bounded it (see ``_kappa_max``); ``censored`` marks an infinite one.  ``work``
    counts the probes and the quadruple rows evaluated, beside the growth of
    a graph's ledger.  ``tol`` must be finite and nonnegative.  Exhaustive
    enumeration suits small point sets.
    """
    k = check_curvature(kappa)
    if samples < 1:
        raise GeometryError("scan needs at least one sample")
    if subset < 4:
        raise GeometryError("scan subset must hold at least four points")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise GeometryError(f"scan tolerance must be finite and nonnegative, got {tol!r}")
    before = dict(space.work)
    dist, idx, quads = _scan_distances(space, subset, seed, None if exhaustive else samples)
    m = dist.shape[0]
    if tol is None:
        tol = 1e-9 if space.exact_metric else max(1e-9, 24.0 * space.h_err)
    sides = _quad_sides(dist, quads)
    bound, top = _perimeter_bound(sides)
    search = _ActiveSet(sides, tol, bound)
    held = search.holds(k)
    defects, vacuous = search.last
    defined = ~np.isnan(defects)
    evaluated, vacuous = int(defined.sum()), int(vacuous.sum())
    if evaluated:
        finite = np.where(defined, defects, np.inf)
        i = int(np.argmin(finite))
        min_defect = float(finite[i])
        worst = {"p": int(idx[quads[i, 0]]), "x": idx[quads[i, 1:]].tolist(),
                 "distances": {"px": [float(d[i]) for d in sides[:3]],
                               "xx": [float(d[i]) for d in sides[3:]]}}
    else:
        min_defect = math.inf
        worst = {}
    kappa_max, rule = _kappa_max(search.holds, k, held, bound, top)
    return ScanReport(
        kappa=k, samples=len(quads), evaluated=evaluated, vacuous=vacuous,
        skipped=len(quads) - evaluated - vacuous,
        min_defect=min_defect, worst_case=worst, kappa_max=kappa_max, tol=float(tol),
        h_err=space.h_err, exact_metric=space.exact_metric, subset_size=m,
        censored=math.isinf(kappa_max), perimeter_bound=bound, kappa_max_rule=rule,
        work={**_work_since(space, before), "probes": search.probes,
              "quadruple_evaluations": search.evaluations},
    )


# ---------------------------------------------------------------------------
# local domain check


# why a local-check sample was skipped; the first reason counts every sample
# of a ball with fewer than four open-domain vertices, the rest in the order
# the check meets them
SKIP_REASONS = ("small_ball", "no_path", "short_path", "endpoint_near_p", "no_inner_vertex",
                "undefined_angle", "invalid_triangle")


@dataclass
class LocalCheckReport:
    kappa: float
    center: int
    radius: float
    trials: int
    evaluated: int
    skipped: int
    vacuous: bool
    window: float
    h_err: float
    base_violations: int
    base_worst: float
    split_violations: int
    split_worst: float
    worst_case: dict = field(default_factory=dict)
    skips: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    # angle_tol, split_tol and the stencil_gap split_tol reads; the envelope carries them
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.vacuous or (self.base_violations == 0 and self.split_violations == 0)


def local_kappa_domain_check(
    space: DiscreteLengthSpace,
    center: int,
    radius: float,
    kappa: float,
    samples: int = 20,
    h_angle: int = 3,
    seed: int = 0,
) -> LocalCheckReport:
    """Check the two local comparison conditions inside a metric ball.

    Geodesics [qs] are sampled in the ball; angles between actual
    geodesics are estimated by comparison angles at arc scale
    ``h_angle * h`` (a fixed-scale stand-in for the vanishing-scale
    definition, so the estimate is biased at order h / window and the
    tolerance scales accordingly).  Reports violations of the
    base comparison condition and of the angle-sum condition at interior
    points beyond the tolerance.  The angle-sum tolerance is doubled since
    two measured angles accumulate independent errors, plus the stencil
    gap gamma of a lattice graph: its metric is a polygonal norm, in which
    one of the two angles can collapse to pi when both directions fall in
    one face cone of the unit ball, an error of order gamma that no window
    removes.

    The tolerance ``angle_tol = 0.5/h_angle + 6 h_err + 1e-3`` assumes a
    window error of 0.5/``h_angle``.  On flat side-2 grids with h 1/48, where
    the exact angles are known (centre (1, 1), radius 1.6, 6 samples, kappa
    0, seeds 0-39), the largest base deviation measured is about
    0.7-1.0/``h_angle`` instead, and some seeds fail: one at stencil 2 and at
    stencil 3 with ``h_angle`` 3, one at stencil 3 and two at stencil 4 with
    ``h_angle`` 4, and six at stencil 4 with ``h_angle`` 3.  No seed fails at
    ``h_angle`` 6.  The window term is not yet derived from the lattice.

    Every distance and geodesic of a sample is one of U's own graph metric;
    only the ball is measured in the completion, so its centre may lie
    outside U.  The report counts the growth of the space's ledger
    (``work``), and each skipped sample under its reason
    (``skips``): ``no_path`` where U separates q, s or p, ``undefined_angle``
    where a model triangle does not exist, ``invalid_triangle`` where the
    sides break the triangle inequality, which one metric's do only by
    rounding.  A check none of whose samples is feasible (each one skipped
    before its angles) is vacuous, like one on a ball too small to sample.

    The skips before the angles are decided before the full fields from s
    and p: both ``no_path`` skips by U's component labels, ``short_path``
    by a field from q cut off at 4w (which then serves as q's field), and
    ``endpoint_near_p`` by a field from p cut off at 3w.
    """
    k = check_curvature(kappa)
    if samples < 1:
        raise GeometryError(f"local check needs at least one sample, got {samples}")
    if not radius > 0.0:
        raise GeometryError(f"ball radius must be positive, got {radius!r}")
    if space.h <= 0.0:
        raise ResolutionError("space does not record its mesh size h")
    w = h_angle * space.h
    if h_angle < 2:
        raise ResolutionError("angle window must span at least two mesh cells")
    # a path edge of length >= 2w can make vertex_at_arc(t +- w) return x itself
    longest = float(space.weights.max(initial=0.0))
    if longest >= 2.0 * w:
        raise ResolutionError(
            f"twice the angle window ({2.0 * w!r}) must exceed the longest edge "
            f"({longest!r}); raise h_angle"
        )
    angle_tol = 0.5 / h_angle + 6.0 * space.h_err + 1e-3
    split_tol = 2.0 * angle_tol + space.stencil_gap
    skips = dict.fromkeys(SKIP_REASONS, 0)
    before = dict(space.work)

    def sides(a, b, d_at):
        """Sides ``(|ab|, |ta|, |tb|)`` of the triangle at ``d_at``'s source t."""
        da, db = d_at[a], d_at[b]
        # |ab| <= da + db up to the rounding of either sum: a relative slack
        limit = (da + db) * (1.0 + 1e-12)
        return space.distance_field(a, restrict_to_U=True, limit=limit)[b], da, db

    def angles(*triangles):
        """Comparison angles of ``(opposite, u, v)`` triangles, or None once the skip is counted."""
        angle, undefined = batch_angle(k, *zip(*triangles))
        missing, undefined = first_missing(angle, undefined)
        if missing:
            skips["undefined_angle" if undefined else "invalid_triangle"] += 1
            return None
        return angle.tolist()

    d_center = space.distance_field(center)
    ball = np.flatnonzero((d_center <= radius) & space.in_U)
    if len(ball) < 4:
        skips["small_ball"] = samples
    from scipy.sparse.csgraph import connected_components

    # U's components decide both no_path skips without a field; the matrix is
    # symmetric, so its strong components are its components, found without
    # the transpose that an undirected search takes
    _, component = connected_components(space._graph_u, directed=True, connection="strong")
    # a lattice length often equals a window multiple: every window test
    # allows a relative slack of 1e-12, which outlasts rescaling
    short_cut, near_cut = 4.0 * w * (1.0 - 1e-12), 3.0 * w * (1.0 - 1e-12)
    rng = np.random.default_rng(seed)
    # (base gap, split gap, sample ids) of each evaluated sample
    gaps = []
    feasible = False
    for _ in range(samples if len(ball) >= 4 else 0):
        q, s, p = (int(ball[j]) for j in rng.choice(len(ball), size=3, replace=False))
        if component[q] != component[s]:
            skips["no_path"] += 1
            continue
        # a field cut off at a limit is exact up to it: d_q (to 4w) and a
        # field from p (to 3w) decide the other two skips, and d_q and d_x
        # are read only at path vertices within w + longest/2 < 2w of q and x
        d_q = space.distance_field(q, restrict_to_U=True, limit=4.0 * w)
        if d_q[s] < short_cut:
            skips["short_path"] += 1
            continue
        if component[p] != component[q]:
            skips["no_path"] += 1
            continue
        near_p = space.distance_field(p, restrict_to_U=True, limit=3.0 * w)
        if min(near_p[q], near_p[s]) < near_cut:
            skips["endpoint_near_p"] += 1
            continue
        feasible = True
        path = space.shortest_path(q, s, restrict_to_U=True,
                                   dist_to=space.distance_field(s, restrict_to_U=True))
        slack = 1e-12 * path.length
        d_p = space.distance_field(p, restrict_to_U=True)
        # base condition: measured angle at q between [qp] and [qs], against
        # the comparison angle at q of the triangle pqs
        path_qp = space.shortest_path(q, p, restrict_to_U=True, dist_to=d_p)
        y_qp = path_qp.vertex_at_arc(w)
        y_qs = path.vertex_at_arc(w)
        base = angles(sides(y_qp, y_qs, d_q), (d_p[s], d_p[q], path.length))
        if base is None:
            continue
        base_gap = base[1] - base[0]
        # split condition at an interior path vertex away from both ends
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
        d_x = space.distance_field(x, restrict_to_U=True, limit=3.0 * w)
        y_back, y_fwd = path.vertices_at_arcs(np.array([arcs[j] - w, arcs[j] + w]))
        path_xp = space.shortest_path(x, p, restrict_to_U=True, dist_to=d_p)
        y_xp = path_xp.vertex_at_arc(w)
        split = angles(sides(y_back, y_xp, d_x), sides(y_fwd, y_xp, d_x))
        if split is None:
            continue
        gaps.append((base_gap, abs(split[0] + split[1] - math.pi), q, p, s, x))
    base_gaps = [g[0] for g in gaps]
    split_gaps = [g[1] for g in gaps]
    base_violations = sum(g > angle_tol for g in base_gaps)
    split_violations = sum(g > split_tol for g in split_gaps)
    # the worst base violation, else the worst split violation; the first sample on ties
    worst: dict = {}
    if base_violations:
        _, _, q, p, s, _ = gaps[base_gaps.index(max(base_gaps))]
        worst = {"kind": "base", "q": q, "p": p, "s": s, "gap": max(base_gaps)}
    elif split_violations:
        _, _, q, p, s, x = gaps[split_gaps.index(max(split_gaps))]
        worst = {"kind": "split", "q": q, "p": p, "s": s, "x": x, "gap": max(split_gaps)}
    return LocalCheckReport(
        kappa=k, center=center, radius=radius, trials=samples, evaluated=len(gaps),
        skipped=samples - len(gaps), vacuous=not feasible, window=w, h_err=space.h_err,
        base_violations=base_violations,
        base_worst=max(base_gaps, default=0.0),
        split_violations=split_violations,
        split_worst=max(split_gaps, default=0.0),
        worst_case=worst, skips=skips, work=_work_since(space, before),
        tolerances={"angle_tol": float(angle_tol), "split_tol": float(split_tol),
                    "stencil_gap": space.stencil_gap},
    )
